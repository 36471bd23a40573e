//! Workload construction and timed measurement.

use std::sync::Arc;
use std::time::Instant;

use indoor_synthetic::{build_mall, HoursConfig, MallConfig, QueryGenConfig, ShopHours};
use indoor_time::TimeOfDay;
use itspq_core::{AsynEngine, ItGraph, ItspqConfig, Query, SynEngine};

use crate::alloc_track::TrackingAllocator;

/// Which of the paper's two methods to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// ITG/S: synchronous ATI checks.
    ItgS,
    /// ITG/A: asynchronous reduced-graph checks.
    ItgA,
}

impl MethodKind {
    /// Display name as in the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MethodKind::ItgS => "ITG/S",
            MethodKind::ItgA => "ITG/A",
        }
    }
}

/// A built venue + graph for one `|T|` setting.
pub struct Workload {
    /// The IT-Graph over the generated mall, `Arc`-shared so every engine
    /// and server measured against it references one venue allocation.
    pub graph: Arc<ItGraph>,
    /// The sampled checkpoint set.
    pub hours: ShopHours,
    /// `|T|` used to build it.
    pub t_size: usize,
}

impl Workload {
    /// Builds the paper-default five-floor mall for a given `|T|`.
    #[must_use]
    pub fn paper(t_size: usize) -> Self {
        Self::with_mall(MallConfig::paper_default(), t_size)
    }

    /// Builds a venue with a custom mall configuration.
    #[must_use]
    pub fn with_mall(mall: MallConfig, t_size: usize) -> Self {
        let hours = ShopHours::sample(&HoursConfig::default().with_t_size(t_size));
        let space = build_mall(&mall, &hours);
        Workload {
            graph: ItGraph::shared(space),
            hours,
            t_size,
        }
    }

    /// Generates the paper's query instances on this venue.
    #[must_use]
    pub fn queries(&self, delta: f64, time: TimeOfDay, pairs: usize) -> Vec<Query> {
        indoor_synthetic::generate_queries(
            &self.graph,
            &QueryGenConfig::default()
                .with_delta(delta)
                .with_time(time)
                .with_count(pairs),
        )
        .into_iter()
        .map(|g| g.query)
        .collect()
    }
}

/// Aggregated measurement of one (method, setting) cell.
///
/// A query's time is the mean of its timed runs; the percentiles rank
/// these per-query times by the nearest-rank method.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The measured method.
    pub method: MethodKind,
    /// Mean search time per query in microseconds.
    pub mean_time_us: f64,
    /// Median per-query time in microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-query time in microseconds.
    pub p99_us: f64,
    /// Slowest per-query time in microseconds.
    pub max_us: f64,
    /// Mean estimated working-set per query in KB (the paper's memory cost).
    pub mean_mem_kb: f64,
    /// Mean allocator peak delta per query in KB: a warm query (its own
    /// warm-up run just finished) on a thread whose search state is pooled
    /// from earlier queries. 0 when the tracking allocator is not
    /// registered, e.g. in unit tests.
    pub alloc_peak_kb: f64,
    /// Queries that found a path.
    pub found: usize,
    /// Total queries.
    pub total: usize,
}

/// Measures a method over a query set: each query is warmed once, then timed
/// `runs` times (the paper runs each instance ten times and averages).
#[must_use]
pub fn measure_query_set(
    graph: &ItGraph,
    method: MethodKind,
    config: ItspqConfig,
    queries: &[Query],
    runs: usize,
) -> Measurement {
    let syn;
    let asyn;
    let run: &dyn Fn(&Query) -> itspq_core::QueryResult = match method {
        MethodKind::ItgS => {
            syn = SynEngine::new(graph.clone(), config);
            &move |q| syn.query(q)
        }
        MethodKind::ItgA => {
            asyn = AsynEngine::new(graph.clone(), config);
            &move |q| asyn.query(q)
        }
    };

    let mut times_us = Vec::with_capacity(queries.len());
    let mut total_mem = 0.0;
    let mut total_alloc = 0.0;
    let mut found = 0;
    for q in queries {
        // Warm-up run: populates ITG/A's reduced-graph cache (its steady
        // state) and faults in code paths.
        let warm = run(q);
        if warm.path.is_some() {
            found += 1;
        }
        total_mem += warm.stats.estimated_bytes() as f64 / 1024.0;
        let ((), alloc_delta) = TrackingAllocator::measure(|| {
            let _ = run(q);
        });
        total_alloc += alloc_delta as f64 / 1024.0;

        let start = Instant::now();
        for _ in 0..runs {
            std::hint::black_box(run(std::hint::black_box(q)));
        }
        times_us.push(start.elapsed().as_secs_f64() * 1e6 / runs as f64);
    }
    let n = queries.len().max(1) as f64;
    let mean_time_us = times_us.iter().sum::<f64>() / n;
    times_us.sort_by(f64::total_cmp);
    Measurement {
        method,
        mean_time_us,
        p50_us: nearest_rank(&times_us, 0.50),
        p99_us: nearest_rank(&times_us, 0.99),
        max_us: times_us.last().copied().unwrap_or(0.0),
        mean_mem_kb: total_mem / n,
        alloc_peak_kb: total_alloc / n,
        found,
        total: queries.len(),
    }
}

/// The `q`-quantile (`0 < q ≤ 1`) of ascending `sorted` by the nearest-rank
/// method: the smallest sample with at least `q · n` samples at or below it
/// (0 for no samples).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_synthetic::MallConfig;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.50), 50.0);
        assert_eq!(nearest_rank(&xs, 0.99), 99.0);
        assert_eq!(nearest_rank(&xs[..3], 0.50), 2.0);
        assert_eq!(nearest_rank(&xs[..3], 0.99), 3.0);
        assert_eq!(nearest_rank(&xs[..1], 0.99), 1.0);
        assert_eq!(nearest_rank(&[], 0.50), 0.0);
    }

    #[test]
    fn measurement_on_single_floor_mall() {
        let w = Workload::with_mall(MallConfig::single_floor(), 8);
        let queries = w.queries(600.0, TimeOfDay::hm(12, 0), 2);
        assert_eq!(queries.len(), 2);
        for method in [MethodKind::ItgS, MethodKind::ItgA] {
            let m = measure_query_set(&w.graph, method, ItspqConfig::default(), &queries, 2);
            assert_eq!(m.total, 2);
            assert!(m.found >= 1, "{}: no paths found", method.label());
            assert!(m.mean_time_us > 0.0);
            assert!(m.p50_us <= m.p99_us && m.p99_us <= m.max_us);
            assert!(m.mean_mem_kb > 0.0);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(MethodKind::ItgS.label(), "ITG/S");
        assert_eq!(MethodKind::ItgA.label(), "ITG/A");
    }
}
