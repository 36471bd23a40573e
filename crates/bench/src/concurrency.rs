//! Multi-threaded throughput measurement: queries/sec vs worker threads on
//! one `Arc`-shared venue.
//!
//! Each sweep point builds a fresh [`VenueServer`] over the same shared
//! graph with exactly that many worker threads (pinned, so a count past the
//! host's parallelism oversubscribes the cores instead of being clamped),
//! warms its reduced-graph cache (so the sweep measures steady-state
//! query throughput, not one-off `Graph_Update` construction), runs one
//! untimed batch, then times `repeats` batches, each on its own, and reports
//! their median, min and max, the median batch's queries/sec and its
//! speedup over the sweep's first point — put `1` first in `worker_counts`
//! to make that column "vs single-thread".

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use indoor_synthetic::{generate_queries, QueryGenConfig, SourceDistribution, TimeDistribution};
use indoor_time::TimeOfDay;
use itspq_core::{
    AsynMode, BatchStrategy, ItGraph, ItspqConfig, Query, ServeMethod, ServerConfig, VenueServer,
};

use crate::Distribution;

/// One measured (worker count → throughput) point.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputPoint {
    /// Worker threads used by the server.
    pub workers: usize,
    /// Queries per batch.
    pub batch_size: usize,
    /// Wall-clock seconds per batch, each batch timed on its own.
    pub batch_secs: Distribution,
    /// Queries per second at the median batch.
    pub qps: f64,
    /// Throughput relative to the sweep's first point.
    pub speedup: f64,
}

/// Sweeps `worker_counts`, returning one [`ThroughputPoint`] per count.
///
/// Answers are independent of the worker count (see
/// [`VenueServer::query_batch`]); the sweep asserts that invariant on the
/// warm-up batch of every point against the first point's answers.
#[must_use]
pub fn throughput_sweep(
    graph: &Arc<ItGraph>,
    queries: &[Query],
    worker_counts: &[usize],
    repeats: usize,
) -> Vec<ThroughputPoint> {
    let repeats = repeats.max(1);
    let mut points: Vec<ThroughputPoint> = Vec::with_capacity(worker_counts.len());
    let mut reference: Option<Vec<Option<f64>>> = None;
    for &workers in worker_counts {
        let server = VenueServer::new(Arc::clone(graph)).with_pinned_workers(workers);
        server.warm();
        let answers = server.query_batch(queries); // untimed warm-up
        let lengths: Vec<Option<f64>> = answers
            .iter()
            .map(|r| r.path.as_ref().map(|p| p.length))
            .collect();
        match &reference {
            None => reference = Some(lengths),
            Some(r) => assert_eq!(
                r, &lengths,
                "answers must not depend on the worker count ({workers} workers)"
            ),
        }

        let batch_secs =
            Distribution::of((0..repeats).map(|_| time_batch(&server, queries)).collect());
        let qps = qps(queries.len(), batch_secs.p50);
        let speedup = points.first().map_or(1.0, |base| qps / base.qps);
        points.push(ThroughputPoint {
            workers,
            batch_size: queries.len(),
            batch_secs,
            qps,
            speedup,
        });
    }
    points
}

/// One measured (batch size × traffic shape × strategy) point.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingPoint {
    /// Batch strategy label (see [`strategy_label`]).
    pub strategy: &'static str,
    /// Queries per batch.
    pub batch_size: usize,
    /// Traffic-shape label (e.g. `"uniform"`, `"zipf-exact"`,
    /// `"clustered"`).
    pub skew: String,
    /// Physical searches this strategy's planner plans for the batch.
    pub searches: usize,
    /// Physical searches / queries for this batch under this strategy's
    /// planner (1.0 means nothing groups; 0.25 means four queries per
    /// search).
    pub sharing_ratio: f64,
    /// Wall-clock seconds per batch, each batch timed on its own.
    pub batch_secs: Distribution,
    /// Queries per second at the median batch.
    pub qps: f64,
    /// This strategy's qps / independent qps on the *same* batch (1.0 for
    /// the independent row itself).
    pub speedup: f64,
}

/// Wall-clock seconds `server` takes to answer `batch` once.
fn time_batch(server: &VenueServer, batch: &[Query]) -> f64 {
    let start = Instant::now();
    std::hint::black_box(server.query_batch(std::hint::black_box(batch)));
    start.elapsed().as_secs_f64()
}

/// Queries per second of a batch of `n` queries taking `secs`.
fn qps(n: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        n as f64 / secs
    } else {
        f64::INFINITY
    }
}

/// The stable label of a batch strategy in tables, CSVs and baselines.
#[must_use]
pub fn strategy_label(strategy: BatchStrategy) -> &'static str {
    match strategy {
        BatchStrategy::Independent => "independent",
        BatchStrategy::Shared => "shared",
    }
}

/// A named traffic shape: how sources and departure times cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficShape {
    /// Stable label used in tables and baselines.
    pub label: &'static str,
    /// Source-point distribution.
    pub source: SourceDistribution,
    /// Departure-time distribution.
    pub times: TimeDistribution,
}

impl TrafficShape {
    /// Fresh uniform sources, two fixed departure times — nothing to share.
    #[must_use]
    pub fn uniform() -> Self {
        TrafficShape {
            label: "uniform",
            source: SourceDistribution::Uniform,
            times: TimeDistribution::Fixed,
        }
    }

    /// Bit-identical zipf sources at fixed times: exact duplicates, answered
    /// verbatim from their group's search.
    #[must_use]
    pub fn zipf_exact(exponent: f64, pool: usize) -> Self {
        TrafficShape {
            label: "zipf-exact",
            source: SourceDistribution::Zipf { exponent, pool },
            times: TimeDistribution::Fixed,
        }
    }

    /// Partition-clustered (but distinct) sources at fixed times. No two
    /// queries share a source point, so `Shared` plans one search per query,
    /// as `Independent` does.
    #[must_use]
    pub fn door_clustered(exponent: f64, pool: usize) -> Self {
        TrafficShape {
            label: "door-clustered",
            source: SourceDistribution::ZipfNear { exponent, pool },
            times: TimeDistribution::Fixed,
        }
    }

    /// Partition-clustered (but distinct) sources with departure times
    /// jittered inside hot windows. No two queries share a source point, so
    /// `Shared` plans one search per query, as `Independent` does.
    #[must_use]
    pub fn clustered(exponent: f64, pool: usize, spread_secs: f64) -> Self {
        TrafficShape {
            label: "clustered",
            source: SourceDistribution::ZipfNear { exponent, pool },
            times: TimeDistribution::HotSpots {
                exponent,
                pool,
                spread_secs,
            },
        }
    }
}

/// A deterministic skewed batch: `size` queries over two departure times
/// (hot-spot shapes override the times per draw), sources and times drawn
/// per `shape`.
#[must_use]
pub fn skewed_batch(
    graph: &ItGraph,
    size: usize,
    shape: TrafficShape,
    delta: f64,
    seed: u64,
) -> Vec<Query> {
    let times = [TimeOfDay::hm(9, 0), TimeOfDay::hm(17, 30)];
    let mut queries = Vec::with_capacity(size);
    for (i, t) in times.iter().enumerate() {
        let count = size / times.len() + usize::from(i < size % times.len());
        queries.extend(
            generate_queries(
                graph,
                &QueryGenConfig::default()
                    .with_count(count)
                    .with_delta(delta)
                    .with_time(*t)
                    .with_seed(seed ^ (i as u64))
                    .with_source(shape.source)
                    .with_times(shape.times),
            )
            .into_iter()
            .map(|g| g.query),
        );
    }
    queries
}

/// Sweeps batch size × traffic shape, timing [`BatchStrategy::Shared`]
/// against `Independent` on identical batches.
///
/// Both servers run ITG/A with [`ItspqConfig::full_relax`] (the policy
/// under which sharing is answer-preserving) in [`AsynMode::Exact`] with
/// `workers` threads; answers are asserted equal on the warm-up pass of
/// every point, so the timed deltas are pure execution-plan effects. The
/// two servers alternate batch by batch, and which runs first flips each
/// round, so drift while a point runs lands on both rows alike.
#[must_use]
pub fn sharing_sweep(
    graph: &Arc<ItGraph>,
    batch_sizes: &[usize],
    shapes: &[TrafficShape],
    workers: usize,
    repeats: usize,
    delta: f64,
) -> Vec<SharingPoint> {
    let repeats = repeats.max(1);
    // Independent first: its row is the reference the shared row is checked
    // and scored against.
    let servers = [BatchStrategy::Independent, BatchStrategy::Shared].map(|strategy| {
        let config = ServerConfig {
            workers,
            method: ServeMethod::Asyn,
            strategy,
            itspq: ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact),
            ..ServerConfig::default()
        };
        let server = VenueServer::with_config(Arc::clone(graph), config);
        server.warm();
        server
    });

    let mut points = Vec::with_capacity(servers.len() * batch_sizes.len() * shapes.len());
    for &shape in shapes {
        for (i, &size) in batch_sizes.iter().enumerate() {
            let batch = skewed_batch(graph, size, shape, delta, 0xB47C4 + i as u64);
            let reference = servers[0].query_batch(&batch);
            for server in &servers {
                // Untimed warm-up doubling as the answer-parity check.
                let answers = server.query_batch(&batch);
                for (x, y) in answers.iter().zip(&reference) {
                    assert_eq!(
                        x.path.as_ref().map(|p| p.length),
                        y.path.as_ref().map(|p| p.length),
                        "{} diverged from independent execution",
                        strategy_label(server.config().strategy),
                    );
                }
            }
            let mut secs = [Vec::with_capacity(repeats), Vec::with_capacity(repeats)];
            for round in 0..repeats {
                for k in [round % 2, 1 - round % 2] {
                    secs[k].push(time_batch(&servers[k], &batch));
                }
            }
            let secs = secs.map(Distribution::of);
            let independent_qps = qps(batch.len(), secs[0].p50);
            for (server, batch_secs) in servers.iter().zip(secs) {
                let plan = server.plan(&batch, false);
                let qps = qps(batch.len(), batch_secs.p50);
                points.push(SharingPoint {
                    strategy: strategy_label(server.config().strategy),
                    batch_size: batch.len(),
                    skew: shape.label.to_string(),
                    searches: plan.searches(),
                    sharing_ratio: plan.searches() as f64 / batch.len().max(1) as f64,
                    batch_secs,
                    qps,
                    speedup: qps / independent_qps,
                });
            }
        }
    }
    points
}

/// Renders an aligned text table of a sharing sweep.
#[must_use]
pub fn sharing_table(points: &[SharingPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>13} {:>7} {:>12} {:>9} {:>12} {:>19} {:>12} {:>9}",
        "strategy", "batch", "skew", "searches", "batch_ms", "min-max", "queries/s", "speedup"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>13} {:>7} {:>12} {:>9.2} {:>12.3} {:>19} {:>12.0} {:>8.2}x",
            p.strategy,
            p.batch_size,
            p.skew,
            p.sharing_ratio,
            p.batch_secs.p50 * 1e3,
            min_max_ms(&p.batch_secs),
            p.qps,
            p.speedup
        );
    }
    out
}

/// A point's fastest and slowest batch in ms, for the tables.
fn min_max_ms(secs: &Distribution) -> String {
    format!("{:.3}-{:.3}", secs.min * 1e3, secs.max * 1e3)
}

/// Writes a sharing sweep as `throughput_sharing.csv` in `dir`.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_sharing_csv(points: &[SharingPoint], dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("throughput_sharing.csv");
    let mut out = String::from(
        "strategy,batch_size,skew,sharing_ratio,batch_secs,batch_secs_min,batch_secs_max,qps,speedup\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{:.4},{:.6},{:.6},{:.6},{:.1},{:.3}",
            p.strategy,
            p.batch_size,
            p.skew,
            p.sharing_ratio,
            p.batch_secs.p50,
            p.batch_secs.min,
            p.batch_secs.max,
            p.qps,
            p.speedup
        );
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Renders an aligned text table of a sweep.
#[must_use]
pub fn table(points: &[ThroughputPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>19} {:>12} {:>9}",
        "workers", "batch", "batch_ms", "min-max", "queries/s", "speedup"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>12.3} {:>19} {:>12.0} {:>8.2}x",
            p.workers,
            p.batch_size,
            p.batch_secs.p50 * 1e3,
            min_max_ms(&p.batch_secs),
            p.qps,
            p.speedup
        );
    }
    out
}

/// Writes a sweep as `throughput.csv` in `dir`.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_csv(points: &[ThroughputPoint], dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("throughput.csv");
    let mut out =
        String::from("workers,batch_size,batch_secs,batch_secs_min,batch_secs_max,qps,speedup\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{:.6},{:.6},{:.6},{:.1},{:.3}",
            p.workers,
            p.batch_size,
            p.batch_secs.p50,
            p.batch_secs.min,
            p.batch_secs.max,
            p.qps,
            p.speedup
        );
    }
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use indoor_synthetic::MallConfig;
    use indoor_time::TimeOfDay;

    #[test]
    fn sweep_reports_consistent_points() {
        let w = Workload::with_mall(MallConfig::single_floor(), 4);
        let mut queries = w.queries(600.0, TimeOfDay::hm(12, 0), 3);
        queries.extend(w.queries(600.0, TimeOfDay::hm(9, 30), 3));
        let points = throughput_sweep(&w.graph, &queries, &[1, 2], 1);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].workers, 1);
        assert!((points[0].speedup - 1.0).abs() < 1e-12);
        for p in &points {
            assert_eq!(p.batch_size, queries.len());
            assert!(p.qps > 0.0);
        }
        let rendered = table(&points);
        assert!(rendered.contains("queries/s"));
    }

    #[test]
    fn sharing_sweep_groups_under_skew_and_keeps_answers() {
        let w = Workload::with_mall(MallConfig::single_floor(), 4);
        let points = sharing_sweep(
            &w.graph,
            &[8],
            &[TrafficShape::zipf_exact(1.5, 2)],
            2,
            1,
            600.0,
        );
        assert_eq!(points.len(), 2, "one independent and one shared row");
        let independent = &points[0];
        assert_eq!(independent.strategy, "independent");
        assert!((independent.sharing_ratio - 1.0).abs() < 1e-12);
        assert!((independent.speedup - 1.0).abs() < 1e-12);
        let shared = &points[1];
        assert_eq!(shared.strategy, "shared");
        assert!(
            shared.sharing_ratio < 1.0,
            "a hot pool of 2 sources over 8 queries must form groups"
        );
        assert!(points.iter().all(|p| p.qps > 0.0));
        assert!(sharing_table(&points).contains("searches"));
    }

    #[test]
    fn clustered_traffic_plans_as_independent_under_shared() {
        let w = Workload::with_mall(MallConfig::single_floor(), 4);
        let points = sharing_sweep(
            &w.graph,
            &[10],
            &[TrafficShape::clustered(1.5, 2, 120.0)],
            2,
            1,
            600.0,
        );
        // Distinct points in hot partitions with jittered times: the
        // queries share source partitions and checkpoint intervals but no
        // source point, so no group forms.
        let shared = points.iter().find(|p| p.strategy == "shared").unwrap();
        assert_eq!(
            shared.searches, shared.batch_size,
            "clustered traffic must plan one search per query"
        );
    }
}
