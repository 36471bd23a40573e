//! Regeneration of the paper's Figures 4–7 (and the setup tables).

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use indoor_space::fan_out;
use indoor_time::TimeOfDay;
use itspq_core::{AsynEngine, ItspqConfig, Query, SearchStats, SynEngine};

use crate::{measure_query_set, Measurement, Method, PaperParams, Workload};

/// One row of a figure: an x value plus one measurement per series, each
/// labelled with its series name.
#[derive(Debug, Clone)]
pub struct FigRow {
    /// The x-axis label (`|T|`, `δs2t` or `t`).
    pub x: String,
    /// One measurement per series.
    pub series: Vec<Measurement>,
}

/// A regenerated figure: rows plus metadata.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Short id (`fig4` …).
    pub id: &'static str,
    /// Human title matching the paper.
    pub title: &'static str,
    /// Name of the x axis.
    pub x_name: &'static str,
    /// The measured unit shown in tables (`us` or `KB`).
    pub unit: &'static str,
    /// Data rows.
    pub rows: Vec<FigRow>,
}

impl Figure {
    /// Renders an aligned text table of the figure. A time figure shows per
    /// series the median over the queries that found a route, then how many
    /// did (`-` for the median when none did); a memory figure shows the
    /// mean working set per query.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} — {} ({})", self.id, self.title, self.unit);
        if self.rows.is_empty() {
            return out;
        }
        let _ = write!(out, "{:>10}", self.x_name);
        for m in &self.rows[0].series {
            let _ = write!(out, " {:>20}", m.label);
        }
        out.push('\n');
        for row in &self.rows {
            let _ = write!(out, "{:>10}", row.x);
            for m in &row.series {
                let cell = if self.unit == "KB" {
                    format!("{:.1}", mem_kb(m))
                } else {
                    let p50 = found_p50(m).map_or_else(|| "-".to_owned(), |v| format!("{v:.1}"));
                    format!("{p50} {:>7}", found_of_total(m))
                };
                let _ = write!(out, " {cell:>20}");
            }
            out.push('\n');
        }
        out
    }

    /// Writes the figure as CSV: per series found/total, the median and
    /// slowest time over the queries that found a route (empty when none
    /// did; a setting has too few queries for a tail), then the memory and
    /// allocation columns over every query.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_name);
        if let Some(first) = self.rows.first() {
            for m in &first.series {
                let n = &m.label;
                let _ = write!(
                    out,
                    ",{n} found,{n} p50_us,{n} max_us,{n} mem_kb,{n} alloc_kb"
                );
            }
        }
        out.push('\n');
        for row in &self.rows {
            let _ = write!(out, "{}", row.x);
            for m in &row.series {
                let (p50, max) = match found_p50(m) {
                    Some(p50) => (format!("{p50:.2}"), format!("{:.2}", m.found.max)),
                    None => (String::new(), String::new()),
                };
                let _ = write!(
                    out,
                    ",{},{p50},{max},{:.2},{:.2}",
                    found_of_total(m),
                    mem_kb(m),
                    m.alloc_peak_kb,
                );
            }
            out.push('\n');
        }
        fs::write(&path, out)?;
        Ok(path)
    }
}

/// The median time over the queries that found a route, `None` when none
/// did: a no-route answer can return at once, so it would time something
/// else.
fn found_p50(m: &Measurement) -> Option<f64> {
    (m.found.samples > 0).then_some(m.found.p50)
}

fn found_of_total(m: &Measurement) -> String {
    format!("{}/{}", m.found.samples, m.all.samples)
}

/// Mean estimated working set per query in KB, the paper's memory cost.
fn mem_kb(m: &Measurement) -> f64 {
    m.mean(SearchStats::estimated_bytes).unwrap_or(0.0) / 1024.0
}

/// ITG/S and ITG/A under the paper's configuration, timed interleaved.
fn both_methods(w: &Workload, queries: &[Query], runs: usize) -> Vec<Measurement> {
    let syn = SynEngine::new(w.graph.clone(), ItspqConfig::default());
    let asyn = AsynEngine::new(w.graph.clone(), ItspqConfig::default());
    let methods = [
        Method::new("ITG/S", |q| syn.query(q).into()),
        Method::new("ITG/A", |q| asyn.query(q).into()),
    ];
    measure_query_set(queries, &methods, runs)
}

/// Figure 4: search time vs `|T|`, at `t = 12:00` and `t = 8:00`.
///
/// The four venues (one per `|T|`) are independent, so they are built in
/// parallel, one [`fan_out`] task each; the timed measurements stay
/// sequential to avoid cross-talk.
#[must_use]
pub fn fig4(params: &PaperParams) -> Figure {
    let sizes = &params.t_sizes;
    let workloads = fan_out(sizes.len(), sizes.len(), |i| Workload::paper(sizes[i]));

    let mut rows = Vec::new();
    for w in &workloads {
        let t_size = w.t_size;
        let mut series = Vec::new();
        for probe in [TimeOfDay::hm(12, 0), TimeOfDay::hm(8, 0)] {
            let queries = w.queries(params.default_delta, probe, params.pairs_per_setting);
            for mut m in both_methods(w, &queries, params.runs_per_query) {
                m.label = format!("{}(t={})", m.label, probe.hour());
                series.push(m);
            }
        }
        rows.push(FigRow {
            x: t_size.to_string(),
            series,
        });
    }
    Figure {
        id: "fig4",
        title: "Search Time vs |T|",
        x_name: "|T|",
        unit: "us",
        rows,
    }
}

/// Figure 5: search time vs `δs2t` at the default setting.
#[must_use]
pub fn fig5(params: &PaperParams) -> Figure {
    let w = Workload::paper(params.default_t);
    let mut rows = Vec::new();
    for &delta in &params.deltas {
        let queries = w.queries(delta, params.default_time, params.pairs_per_setting);
        rows.push(FigRow {
            x: format!("{delta:.0}"),
            series: both_methods(&w, &queries, params.runs_per_query),
        });
    }
    Figure {
        id: "fig5",
        title: "Search Time vs δs2t",
        x_name: "δs2t (m)",
        unit: "us",
        rows,
    }
}

/// The query-time sweep behind Figures 6 and 7: one row per `t`.
#[must_use]
pub fn time_sweep(params: &PaperParams) -> Vec<FigRow> {
    let w = Workload::paper(params.default_t);
    params
        .times
        .iter()
        .map(|&t| {
            let queries = w.queries(params.default_delta, t, params.pairs_per_setting);
            FigRow {
                x: t.to_string(),
                series: both_methods(&w, &queries, params.runs_per_query),
            }
        })
        .collect()
}

/// Figure 6: search time vs query time `t`, from [`time_sweep`]'s rows.
#[must_use]
pub fn fig6(rows: Vec<FigRow>) -> Figure {
    Figure {
        id: "fig6",
        title: "Search Time vs t",
        x_name: "t",
        unit: "us",
        rows,
    }
}

/// Figure 7: memory cost vs query time `t`, from [`time_sweep`]'s rows.
#[must_use]
pub fn fig7(rows: Vec<FigRow>) -> Figure {
    Figure {
        id: "fig7",
        title: "Memory Cost vs t",
        x_name: "t",
        unit: "KB",
        rows,
    }
}

/// Prints Table I (the running example's door ATIs) from the built venue.
#[must_use]
pub fn table1() -> String {
    let ex = indoor_space::paper_example::build();
    let mut out = String::from("TABLE I: Active Time Intervals (ATIs) of Doors\n");
    for d in ex.space.doors() {
        let _ = writeln!(out, "{:>4}: {}", d.name, d.atis);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_synthetic::MallConfig;

    /// A miniature figure run on the single-floor mall to keep tests fast.
    #[test]
    fn figure_pipeline_works_end_to_end() {
        let w = Workload::with_mall(MallConfig::single_floor(), 8);
        let queries = w.queries(600.0, TimeOfDay::hm(12, 0), 2);
        let series = both_methods(&w, &queries, 1);
        let fig = Figure {
            id: "figtest",
            title: "test",
            x_name: "x",
            unit: "us",
            rows: vec![FigRow {
                x: "600".into(),
                series,
            }],
        };
        let found = fig.rows[0].series[0].found;
        assert!(found.samples > 0, "the noon queries find routes");
        let table = fig.table();
        assert!(table.contains("ITG/S"));
        assert!(table.contains("600"));
        assert!(table.contains(&format!(
            "{:.1} {:>7}",
            found.p50,
            format!("{}/2", found.samples)
        )));
        let dir = std::env::temp_dir().join("itspq-fig-test");
        let path = fig.write_csv(&dir).unwrap();
        let csv = std::fs::read_to_string(path).unwrap();
        assert!(csv.starts_with("x,ITG/S found,ITG/S p50_us,ITG/S max_us,ITG/S mem_kb"));
        let row = csv.lines().nth(1).unwrap();
        assert!(
            row.starts_with(&format!("600,{}/2,{:.2},", found.samples, found.p50)),
            "{row}"
        );
        assert_eq!(csv.lines().count(), 2);
    }

    /// A setting where no query finds a route shows no time at all.
    #[test]
    fn a_setting_without_a_found_query_shows_no_time() {
        let w = Workload::with_mall(MallConfig::single_floor(), 8);
        // The mall has closed by 23:59.
        let queries = w.queries(600.0, TimeOfDay::hm(12, 0), 2);
        let late: Vec<Query> = queries
            .iter()
            .map(|q| Query::new(q.source, q.target, TimeOfDay::hm(23, 59)))
            .collect();
        let series = both_methods(&w, &late, 1);
        assert_eq!(series[0].found.samples, 0, "no route at 23:59");
        let fig = Figure {
            id: "figtest-none",
            title: "test",
            x_name: "x",
            unit: "us",
            rows: vec![FigRow {
                x: "late".into(),
                series,
            }],
        };
        let table = fig.table();
        assert!(
            table.lines().nth(2).unwrap().contains("-     0/2"),
            "{table}"
        );
        let dir = std::env::temp_dir().join("itspq-fig-test");
        let csv = std::fs::read_to_string(fig.write_csv(&dir).unwrap()).unwrap();
        assert!(
            csv.lines().nth(1).unwrap().starts_with("late,0/2,,,"),
            "{csv}"
        );
    }

    #[test]
    fn table1_lists_all_doors() {
        let t = table1();
        assert!(t.contains("d1:") || t.contains("  d1:"));
        assert!(t.contains("d21"));
        assert!(t.contains("[8:00, 16:00)"));
    }
}
