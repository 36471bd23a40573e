//! Multi-threaded throughput on one shared venue, in two sweeps:
//!
//! 1. **Worker sweep** — queries/sec vs worker threads (1–8) for a
//!    [`itspq_core::VenueServer`] on a mixed-time batch;
//! 2. **Sharing sweep** — queries/sec vs batch size × traffic shape for
//!    [`itspq_core::BatchStrategy::Shared`] against `Independent` on the
//!    *same* batches: exact-duplicate (source, time) pairs group by source
//!    point and checkpoint interval, while partition-clustered sources, at
//!    fixed or jittered departures, are distinct points and plan one search
//!    per query.
//!
//! The default run uses the paper's five-floor mall and writes the committed
//! `BENCH_throughput.json` baseline plus `results/throughput*.csv`.
//! `--quick` (wired into CI) shrinks the venue to a single floor, asserts
//! that `Shared` groups the exact-duplicate shape and beats independent
//! execution on it, that it plans the partition-clustered shapes exactly as
//! `Independent` does, and exits non-zero if the hot batch exceeds a
//! generous wall-clock budget — the serving-path analogue of
//! `construction --quick`.

use std::fmt::Write as _;
use std::path::Path;

use indoor_synthetic::MallConfig;
use indoor_time::TimeOfDay;
use itspq_bench::concurrency::{self, SharingPoint, ThroughputPoint, TrafficShape};
use itspq_bench::{Distribution, Workload};

/// Generous CI budget for one shared pass over the largest quick batch, in
/// seconds. The measured value on a pinned single-core container is well
/// under 0.1 s; tripping this means batch serving got ~two orders of
/// magnitude slower.
const QUICK_BUDGET_SECS: f64 = 10.0;

/// Timed batches per sharing-sweep point. The zipf-exact speed-up is a
/// `--quick` gate, and at 2 batches two identical plans read anywhere from
/// 0.75x to 4x of each other on a quick batch.
const SHARING_REPEATS: usize = 200;

fn main() {
    let quick = itspq_bench::quick_flag();
    let (workload, per_time) = if quick {
        (Workload::with_mall(MallConfig::single_floor(), 8), 16)
    } else {
        (Workload::paper(8), 64)
    };
    let delta = if quick { 600.0 } else { 1500.0 };

    // Traffic mix: morning opening, noon default, evening, late night.
    let mut queries = Vec::new();
    for (h, m) in [(8, 50), (12, 0), (19, 30), (22, 40)] {
        queries.extend(workload.queries(delta, TimeOfDay::hm(h, m), per_time));
    }

    let stats = workload.graph.space().stats();
    println!(
        "venue: {} partitions, {} doors, {} floors; batch: {} queries, |T| = {}",
        stats.partitions,
        stats.doors,
        stats.floors,
        queries.len(),
        workload.t_size
    );
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("host parallelism: {host_cores}");

    let repeats = if quick { 2 } else { 5 };
    let points = concurrency::throughput_sweep(&workload.graph, &queries, &[1, 2, 4, 8], repeats);
    print!("{}", concurrency::table(&points));

    if let Some(p4) = points.iter().find(|p| p.workers == 4) {
        println!(
            "4-worker speedup over single-thread: {:.2}x{}",
            p4.speedup,
            if host_cores < 4 {
                " (host has fewer than 4 cores; the extra threads share them)"
            } else {
                ""
            }
        );
    }

    // Sharing sweep: Shared vs Independent on identical batches.
    let batch_sizes: &[usize] = if quick { &[16, 64] } else { &[32, 128, 512] };
    let shapes = [
        TrafficShape::uniform(),
        TrafficShape::zipf_exact(1.5, 4),
        TrafficShape::door_clustered(1.5, 4),
        TrafficShape::clustered(1.5, 4, 180.0),
    ];
    let workers = 4.min(host_cores.max(1));
    let sharing = concurrency::sharing_sweep(
        &workload.graph,
        batch_sizes,
        &shapes,
        workers,
        SHARING_REPEATS,
        delta,
    );
    println!("\nshared vs independent execution ({workers} workers):");
    print!("{}", concurrency::sharing_table(&sharing));

    std::fs::create_dir_all("results").expect("create results dir");
    let path = concurrency::write_csv(&points, Path::new("results")).expect("write throughput csv");
    println!("wrote {}", path.display());
    let path =
        concurrency::write_sharing_csv(&sharing, Path::new("results")).expect("write sharing csv");
    println!("wrote {}", path.display());

    if !quick {
        let json_path = Path::new("BENCH_throughput.json");
        std::fs::write(
            json_path,
            json_baseline(&points, &sharing, host_cores, repeats, SHARING_REPEATS),
        )
        .expect("write throughput baseline");
        println!("wrote {}", json_path.display());
    }

    if quick {
        // Tripwire 1: `Shared` must group the bit-identical zipf duplicates,
        // and plan one search per query, as `Independent` does, where the
        // sources are distinct points of hot partitions: a group holds one
        // source point.
        let hottest = sharing
            .iter()
            .filter(|p| p.strategy == "shared" && p.skew == "zipf-exact")
            .max_by_key(|p| p.batch_size)
            .expect("quick sweep includes the shared zipf-exact series");
        assert!(
            hottest.sharing_ratio < 1.0,
            "sharing regression: shared formed no groups on its zipf-exact batch"
        );
        for p in sharing.iter().filter(|p| {
            p.strategy == "shared" && (p.skew == "door-clustered" || p.skew == "clustered")
        }) {
            assert_eq!(
                p.searches, p.batch_size,
                "plan regression: shared planned {} searches for its {} batch of {}, \
                 not one per query",
                p.searches, p.skew, p.batch_size
            );
        }
        // Tripwire 2: grouping must *pay*, not just group, on the
        // exact-duplicate batch.
        assert!(
            hottest.speedup > 1.0,
            "sharing regression: shared execution slower than independent \
             on the hot zipf batch ({:.2}x)",
            hottest.speedup
        );
        // Tripwire 3: absolute wall-clock budget, as in `construction --quick`.
        assert!(
            hottest.batch_secs.p50 <= QUICK_BUDGET_SECS,
            "throughput regression: the hot {}-query shared batch took {:.2}s \
             (budget {QUICK_BUDGET_SECS}s)",
            hottest.batch_size,
            hottest.batch_secs.p50
        );
        println!(
            "quick tripwires ok: shared groups zipf-exact and plans the \
             clustered shapes as independent, hot {}-query shared batch \
             {:.3} ms (median) <= {:.0} ms at {:.2}x over independent",
            hottest.batch_size,
            hottest.batch_secs.p50 * 1e3,
            QUICK_BUDGET_SECS * 1e3,
            hottest.speedup
        );
    }
}

fn json_baseline(
    workers: &[ThroughputPoint],
    sharing: &[SharingPoint],
    host_cores: usize,
    repeats: usize,
    sharing_repeats: usize,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"throughput\",");
    let _ = writeln!(
        out,
        "  \"description\": \"VenueServer queries/sec: worker sweep on a mixed-time batch, \
         then Shared (grouped by source point and checkpoint interval) vs \
         Independent on identical batches across traffic shapes — uniform, zipf-exact \
         duplicates, door-clustered sources, clustered sources with jittered departures \
         (sharing_ratio = physical searches per query; batch_secs = median of {repeats} \
         batches per worker point and {sharing_repeats} per sharing point, each timed on its \
         own, with min and max; a sharing point alternates the two strategies batch by batch; \
         qps and speedups at the median)\","
    );
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(out, "  \"worker_sweep\": [");
    for (i, p) in workers.iter().enumerate() {
        let comma = if i + 1 < workers.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"workers\": {}, \"batch_size\": {}, {}, \
             \"qps\": {:.1}, \"speedup_vs_single\": {:.3}}}{}",
            p.workers,
            p.batch_size,
            batch_secs_json(&p.batch_secs),
            p.qps,
            p.speedup,
            comma
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"sharing_sweep\": [");
    for (i, p) in sharing.iter().enumerate() {
        let comma = if i + 1 < sharing.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"strategy\": \"{}\", \"batch_size\": {}, \"skew\": \"{}\", \
             \"sharing_ratio\": {:.4}, {}, \"qps\": {:.1}, \
             \"speedup_vs_independent\": {:.3}}}{}",
            p.strategy,
            p.batch_size,
            p.skew,
            p.sharing_ratio,
            batch_secs_json(&p.batch_secs),
            p.qps,
            p.speedup,
            comma
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

/// A point's batch seconds as baseline JSON fields: median, min and max.
fn batch_secs_json(secs: &Distribution) -> String {
    format!(
        "\"batch_secs\": {:.6}, \"batch_secs_min\": {:.6}, \"batch_secs_max\": {:.6}",
        secs.p50, secs.min, secs.max
    )
}
