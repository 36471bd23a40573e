//! Per-query latency on the grid the paper's Figures 4–7 compare its
//! methods on, every cell through `measure_query_set`:
//!
//! * comb malls (geodesic service corridors) at 1, 5 and 50 floors;
//! * `δs2t` of 100 m and 1,500 m;
//! * departures at 12:00 and at 21:58, just before the 22:00 checkpoint, so
//!   walks straddle a closing;
//! * `PaperPruned` and `FullRelax`;
//! * ITG/S, ITG/A-Exact and ITG/A-Faithful, timed interleaved per query.
//!
//! Each cell gives the mean search counters and reports its found and
//! no-route queries apart: a no-route query either fails at once or settles
//! every door it can reach, so it sits at either end of the distribution.
//! An extensions table then times, on the
//! 5-floor δ = 1,500 m 12:00 query set under `FullRelax`, what lies outside
//! the grid: ITG/S as the reference, ITG/A-Exact with cold views (a fresh
//! engine per query), the static and snapshot baselines, unlimited
//! waiting, Yen's k = 3 and the 8:00–16:00 departure profile at 5 min.
//!
//! The default run (100 queries per cell, 10 timed runs each) writes the
//! committed `BENCH_latency.json`. `--quick` (wired into CI) covers 1 and 5
//! floors with 10 queries and 2 runs. Either run exits non-zero if ITG/S and
//! ITG/A-Exact return different paths for any query of any cell, or if on
//! the 5-floor δ = 1,500 m 12:00 `FullRelax` cell ITG/S or ITG/A-Exact
//! settles on average more than half the doors ITG/A-Faithful settles:
//! Faithful keeps Dijkstra's order, so the gate fails when landmark order
//! stops paying. Counters are deterministic; no timing is gated.

use std::fmt::Write as _;

use indoor_synthetic::MallConfig;
use indoor_time::{DurationSecs, TimeOfDay};
use itspq_bench::{measure_query_set, Answer, Distribution, Measurement, Method, Workload};
use itspq_core::profile::departure_profile;
use itspq_core::waiting::{earliest_arrival, WaitPolicy};
use itspq_core::{
    baselines, k_shortest_paths, AsynEngine, AsynMode, ExpandPolicy, ItspqConfig, Query,
    SearchStats, SynEngine,
};

/// `|T|` of every venue: the paper's default.
const T_SIZE: usize = 8;

/// The most doors ITG/S and ITG/A-Exact may settle on the gated cell, as a
/// share of what ITG/A-Faithful settles there.
const SETTLED_SHARE: f64 = 0.5;

fn comb_mall(floors: u16) -> Workload {
    Workload::with_mall(
        MallConfig::paper_default()
            .with_floors(floors)
            .with_comb_corridors(),
        T_SIZE,
    )
}

fn main() {
    let quick = itspq_bench::quick_flag();
    let (floor_counts, per_cell, runs): (&[u16], usize, usize) = if quick {
        (&[1, 5], 10, 2)
    } else {
        (&[1, 5, 50], 100, 10)
    };
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "host parallelism: {host_cores}; {per_cell} queries per cell, {runs} timed runs each; \
         times in µs"
    );
    println!(
        "{:>6} {:>5} {:>6} {:>11} {:>14} {}",
        "floors",
        "δ",
        "depart",
        "expand",
        "method",
        header()
    );

    let mut json_cells = Vec::new();
    let mut differing = 0;
    let mut gate_failures = Vec::new();
    for &floors in floor_counts {
        let w = comb_mall(floors);
        for delta in [100.0, 1500.0] {
            for departure in [TimeOfDay::hm(12, 0), TimeOfDay::hm(21, 58)] {
                let queries = w.queries(delta, departure, per_cell);
                for expand in [ExpandPolicy::PaperPruned, ExpandPolicy::FullRelax] {
                    let config = ItspqConfig::default().with_expand(expand);
                    let syn = SynEngine::new(w.graph.clone(), config);
                    let exact =
                        AsynEngine::new(w.graph.clone(), config.with_asyn_mode(AsynMode::Exact));
                    let faithful =
                        AsynEngine::new(w.graph.clone(), config.with_asyn_mode(AsynMode::Faithful));
                    let methods = [
                        Method::new("ITG/S", |q| syn.query(q).into()),
                        Method::new("ITG/A-Exact", |q| exact.query(q).into()),
                        Method::new("ITG/A-Faithful", |q| faithful.query(q).into()),
                    ];
                    let differ = queries
                        .iter()
                        .filter(|q| syn.query(q).path != exact.query(q).path)
                        .count();
                    if differ > 0 {
                        eprintln!(
                            "{floors} floors, δ {delta}, {departure}, {expand:?}: ITG/A-Exact \
                             answered {differ} of {} queries unlike ITG/S",
                            queries.len()
                        );
                    }
                    differing += differ;
                    let measured = measure_query_set(&queries, &methods, runs);
                    if floors == 5
                        && delta == 1500.0
                        && departure == TimeOfDay::hm(12, 0)
                        && expand == ExpandPolicy::FullRelax
                    {
                        gate_failures.extend(settled_gate(&measured));
                    }
                    for m in measured {
                        println!(
                            "{floors:>6} {delta:>5} {:>6} {:>11} {:>14} {}",
                            departure.to_string(),
                            format!("{expand:?}"),
                            m.label,
                            columns(&m)
                        );
                        json_cells.push(format!(
                            "{{\"floors\": {floors}, \"doors\": {}, \"delta_m\": {delta}, \
                             \"departure\": \"{departure}\", \"expand\": \"{expand:?}\", {}}}",
                            w.graph.space().num_doors(),
                            json(&m)
                        ));
                    }
                }
            }
        }
    }

    let w = comb_mall(5);
    let queries = w.queries(1500.0, TimeOfDay::hm(12, 0), per_cell);
    println!("\nbaselines and extensions: 5 floors, δ 1500, 12:00, FullRelax");
    println!("{:>26} {}", "method", header());
    let mut json_extensions = Vec::new();
    for m in extensions(&w, &queries, runs) {
        println!("{:>26} {}", m.label, columns(&m));
        json_extensions.push(format!("{{{}}}", json(&m)));
    }

    if !quick {
        let json_path = "BENCH_latency.json";
        let baseline = format!(
            "{{\n  \"bench\": \"latency\",\n  \"description\": \"per-query search µs on comb \
             malls, {per_cell} queries per cell, each the mean of {runs} timed runs after a \
             warm-up, methods timed interleaved per query; per group (all, found, no_route) the \
             nearest-rank median, the highest whole percentile with at least ten queries beyond \
             it (none under 40) and the max; mean SearchStats counters of a warm run; extensions \
             on the 5-floor 1500 m 12:00 set under FullRelax\",\n  \"host_cores\": {host_cores},\n  \
             \"cells\": [\n    {}\n  ],\n  \"extensions\": [\n    {}\n  ]\n}}\n",
            json_cells.join(",\n    "),
            json_extensions.join(",\n    ")
        );
        std::fs::write(json_path, baseline).expect("write latency baseline");
        println!("wrote {json_path}");
    }

    if differing > 0 {
        eprintln!("answer check failed: ITG/A-Exact and ITG/S differ on {differing} queries");
    }
    for failure in &gate_failures {
        eprintln!("settled gate failed: {failure}");
    }
    if differing > 0 || !gate_failures.is_empty() {
        std::process::exit(1);
    }
    println!("answers ok: ITG/A-Exact returned ITG/S's path for every query of every cell");
    println!(
        "settled ok: on 5 floors, δ 1500, 12:00, FullRelax, ITG/S and ITG/A-Exact settle at \
         most {SETTLED_SHARE} of ITG/A-Faithful's doors"
    );
}

/// The settled-doors gate on one cell's measurements: one message per
/// landmark-ordered method that settles more than [`SETTLED_SHARE`] of
/// ITG/A-Faithful's mean.
fn settled_gate(measured: &[Measurement]) -> Vec<String> {
    let settled = |label: &str| {
        measured
            .iter()
            .find(|m| m.label == label)
            .and_then(|m| m.mean(|s| s.doors_settled))
            .unwrap_or(f64::NAN)
    };
    let faithful = settled("ITG/A-Faithful");
    ["ITG/S", "ITG/A-Exact"]
        .into_iter()
        .filter_map(|label| {
            let mean = settled(label);
            // A method missing (NaN) fails the gate too.
            let fails = mean.is_nan() || faithful.is_nan() || mean > SETTLED_SHARE * faithful;
            fails.then(|| {
                format!(
                    "{label} settled {mean:.1} doors per query, ITG/A-Faithful {faithful:.1} \
                     (at most {SETTLED_SHARE} of it allowed)"
                )
            })
        })
        .collect()
}

/// What lies outside the grid, timed on one query set under `FullRelax`.
fn extensions(w: &Workload, queries: &[Query], runs: usize) -> Vec<Measurement> {
    let graph = &w.graph;
    let config = ItspqConfig::full_relax();
    let syn = SynEngine::new(graph.clone(), config);
    let found = |found| Answer { found, stats: None };
    let methods = [
        Method::new("ITG/S", |q| syn.query(q).into()),
        Method::new("ITG/A-Exact, cold views", |q| {
            AsynEngine::new(graph.clone(), config.with_asyn_mode(AsynMode::Exact))
                .query(q)
                .into()
        }),
        Method::new("static baseline", |q| {
            baselines::static_shortest_path(graph, q, &config).into()
        }),
        Method::new("snapshot baseline", |q| {
            baselines::snapshot_shortest_path(graph, q, &config).into()
        }),
        Method::new("waiting, unlimited", |q| {
            found(earliest_arrival(graph, q, &config, WaitPolicy::Unlimited).is_some())
        }),
        Method::new("Yen, k = 3", |q| {
            found(!k_shortest_paths(graph, q, &config, 3).is_empty())
        }),
        Method::new("profile 8:00-16:00, 5 min", |q| {
            let (from, to) = (TimeOfDay::hm(8, 0), TimeOfDay::hm(16, 0));
            let step = DurationSecs::from_minutes(5.0);
            let profile = departure_profile(graph, q.source, q.target, from, to, step, &config);
            found(profile.best().is_some())
        }),
    ];
    measure_query_set(queries, &methods, runs)
}

/// A counter of [`SearchStats`].
type Counter = fn(&SearchStats) -> usize;

/// The counters each row reports the mean of, by their baseline names.
const COUNTERS: [(&str, Counter); 4] = [
    ("settled", |s| s.doors_settled),
    ("relaxations", |s| s.relaxations),
    ("tv_checks", |s| s.tv_checks),
    ("graph_updates", |s| s.graph_updates),
];

/// The column heads [`columns`] fills.
fn header() -> String {
    let group = |g| format!("{:>9} {:>15} {:>9}", format!("{g} p50"), "tail", "max");
    let mut out = format!(
        "{:>4} {:>5} {:>5} {} {} {}",
        "n",
        "found",
        "none",
        group("all"),
        group("found"),
        group("none")
    );
    for (name, _) in COUNTERS {
        let _ = write!(out, " {name:>8}");
    }
    out
}

/// One measurement as aligned table columns.
fn columns(m: &Measurement) -> String {
    let group = |d: &Distribution| {
        if d.samples == 0 {
            return format!("{:>9} {:>15} {:>9}", "-", "-", "-");
        }
        let tail = d
            .tail
            .map_or("-".to_owned(), |(p, v)| format!("p{p} {v:.2}"));
        format!("{:>9.2} {tail:>15} {:>9.2}", d.p50, d.max)
    };
    let mut out = format!(
        "{:>4} {:>5} {:>5} {} {} {}",
        m.all.samples,
        m.found.samples,
        m.no_route.samples,
        group(&m.all),
        group(&m.found),
        group(&m.no_route)
    );
    for (name, counter) in COUNTERS {
        let mean = m
            .mean(counter)
            .map_or("-".to_owned(), |v| format!("{v:.1}"));
        let _ = write!(out, " {mean:>w$}", w = name.len().max(8));
    }
    out
}

/// One measurement as the fields of a baseline JSON object.
fn json(m: &Measurement) -> String {
    let group = |d: &Distribution| {
        if d.samples == 0 {
            return "null".to_owned();
        }
        let tail = d
            .tail
            .map_or(String::new(), |(p, v)| format!(", \"p{p}\": {v:.3}"));
        format!("{{\"p50\": {:.3}{tail}, \"max\": {:.3}}}", d.p50, d.max)
    };
    let mut out = format!(
        "\"method\": \"{}\", \"samples\": {}, \"found\": {}, \"no_route\": {}, \
         \"all_us\": {}, \"found_us\": {}, \"no_route_us\": {}",
        m.label,
        m.all.samples,
        m.found.samples,
        m.no_route.samples,
        group(&m.all),
        group(&m.found),
        group(&m.no_route)
    );
    for (name, counter) in COUNTERS {
        let mean = m
            .mean(counter)
            .map_or("null".to_owned(), |v| format!("{v:.2}"));
        let _ = write!(out, ", \"{name}\": {mean}");
    }
    out
}
