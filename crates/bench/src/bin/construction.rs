//! Construction-cost sweep: seconds to generate and build the synthetic mall
//! (`mall_builder` + `VenueBuilder` pipeline) as floor count grows.
//!
//! Three series per floor count in `{5, 10, 25, 50}`:
//!
//! * `band/fast` — the original rectangular-corridor mall (all partitions
//!   convex, Euclidean distances) through the production pipeline;
//! * `comb/fast` — comb-shaped service corridors (geodesic distance model,
//!   real visibility-graph shortest paths in every corridor matrix) through
//!   the production pipeline: per-polygon `GeodesicSolver` one-to-many
//!   queries plus the parallel matrix fan-out;
//! * `comb/sequential` — the same venue through
//!   `VenueBuilder::build_sequential`, the pre-overhaul reference path that
//!   rebuilds the visibility graph for every door pair.
//!
//! The fast and sequential builds are asserted equal at every sweep point
//! before timings are reported. Output: an aligned table,
//! `results/construction.csv`, and the committed `BENCH_construction.json`
//! baseline. `--quick` (wired into CI) sweeps `{5, 10}` only and exits
//! non-zero if the 10-floor comb fast build exceeds a generous wall-clock
//! budget, catching construction regressions before they reach the figure
//! sweeps.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use indoor_synthetic::{mall_builder, HoursConfig, MallConfig, ShopHours};

/// Generous CI budget for the 10-floor comb fast build, in seconds. The
/// measured value on a pinned single-core container is ~0.05 s; tripping this
/// means construction got at least two orders of magnitude slower.
const QUICK_BUDGET_SECS: f64 = 15.0;

struct SweepPoint {
    venue: &'static str,
    pipeline: &'static str,
    floors: u16,
    partitions: usize,
    doors: usize,
    seconds: f64,
    /// Sequential seconds / this pipeline's seconds for the same venue
    /// (1.0 for the sequential series itself; None where sequential was not
    /// measured).
    speedup: Option<f64>,
}

fn main() {
    let quick = itspq_bench::quick_flag();
    let floor_counts: &[u16] = if quick { &[5, 10] } else { &[5, 10, 25, 50] };
    let hours = ShopHours::sample(&HoursConfig::default());
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("host parallelism: {host_cores}, sweep: {floor_counts:?} floors");

    let mut points: Vec<SweepPoint> = Vec::new();
    let mut budget_witness: Option<f64> = None;
    for &floors in floor_counts {
        let band = MallConfig::paper_default().with_floors(floors);
        let comb = band.with_comb_corridors();

        let t = Instant::now();
        let band_space = mall_builder(&band, &hours).build().unwrap();
        let band_fast = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let comb_space = mall_builder(&comb, &hours).build().unwrap();
        let comb_fast = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let comb_seq_space = mall_builder(&comb, &hours).build_sequential().unwrap();
        let comb_seq = t.elapsed().as_secs_f64();
        assert_eq!(
            comb_space, comb_seq_space,
            "fast and sequential pipelines diverged at {floors} floors"
        );

        let stats = comb_space.stats();
        println!(
            "floors={floors:>3}  partitions={:>5}  doors={:>5}  band/fast={band_fast:>8.3}s  \
             comb/fast={comb_fast:>8.3}s  comb/sequential={comb_seq:>8.3}s  speedup={:>5.1}x",
            stats.partitions,
            stats.doors,
            comb_seq / comb_fast,
        );
        points.push(SweepPoint {
            venue: "mall-band",
            pipeline: "fast",
            floors,
            partitions: band_space.num_partitions(),
            doors: band_space.num_doors(),
            seconds: band_fast,
            speedup: None,
        });
        points.push(SweepPoint {
            venue: "mall-comb",
            pipeline: "fast",
            floors,
            partitions: stats.partitions,
            doors: stats.doors,
            seconds: comb_fast,
            speedup: Some(comb_seq / comb_fast),
        });
        points.push(SweepPoint {
            venue: "mall-comb",
            pipeline: "sequential",
            floors,
            partitions: stats.partitions,
            doors: stats.doors,
            seconds: comb_seq,
            speedup: Some(1.0),
        });
        if floors == 10 {
            budget_witness = Some(comb_fast);
        }
    }

    let csv_path = Path::new("results").join("construction.csv");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&csv_path, csv(&points)).expect("write construction csv");
    println!("wrote {}", csv_path.display());

    if !quick {
        let json_path = Path::new("BENCH_construction.json");
        std::fs::write(json_path, json_baseline(&points, host_cores))
            .expect("write construction baseline");
        println!("wrote {}", json_path.display());
    }

    if quick {
        let witness = budget_witness.expect("quick sweep includes 10 floors");
        assert!(
            witness <= QUICK_BUDGET_SECS,
            "construction regression: 10-floor comb fast build took {witness:.2}s \
             (budget {QUICK_BUDGET_SECS}s)"
        );
        println!("quick budget ok: 10-floor comb fast build {witness:.3}s <= {QUICK_BUDGET_SECS}s");
    }
}

fn csv(points: &[SweepPoint]) -> String {
    let mut out = String::from("venue,pipeline,floors,partitions,doors,seconds,speedup\n");
    for p in points {
        let speedup = p.speedup.map_or(String::new(), |s| format!("{s:.2}"));
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.6},{}",
            p.venue, p.pipeline, p.floors, p.partitions, p.doors, p.seconds, speedup
        );
    }
    out
}

fn json_baseline(points: &[SweepPoint], host_cores: usize) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"construction\",");
    let _ = writeln!(
        out,
        "  \"description\": \"build_mall + VenueBuilder pipeline seconds vs floors; \
         comb = geodesic service corridors, sequential = per-pair reference path\","
    );
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let speedup = p
            .speedup
            .map_or(String::from("null"), |s| format!("{s:.2}"));
        let _ = writeln!(
            out,
            "    {{\"venue\": \"{}\", \"pipeline\": \"{}\", \"floors\": {}, \
             \"partitions\": {}, \"doors\": {}, \"seconds\": {:.6}, \
             \"speedup_vs_sequential\": {}}}{}",
            p.venue, p.pipeline, p.floors, p.partitions, p.doors, p.seconds, speedup, comma
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}
