//! Construction-cost sweep: seconds to generate and build the synthetic mall
//! (`mall_builder` + `VenueBuilder` pipeline) as floor count grows.
//!
//! Five series per floor count in `{5, 10, 25, 50}`:
//!
//! * `band/fast` — the original rectangular-corridor mall (all partitions
//!   convex, Euclidean distances) through the production pipeline, with the
//!   built venue's heap bytes (`IndoorSpace::heap_bytes`);
//! * `comb/wiring` — `mall_builder` alone on the comb venue: the builder's
//!   inputs (partitions, doors, connections, overrides), no topology and no
//!   matrix, the part of every build below that is not `VenueBuilder`'s;
//! * `comb/fast` — comb-shaped service corridors (geodesic distance model,
//!   real visibility-graph shortest paths in every corridor matrix) through
//!   the production pipeline: one `GeodesicSolver` per distinct corridor
//!   footprint answering one-to-many queries, then every matrix into the
//!   venue's one cell arena; with the built venue's heap bytes;
//! * `comb/sequential` — the same venue through
//!   `VenueBuilder::build_sequential`, the pre-overhaul reference path that
//!   rebuilds the visibility graph for every door pair;
//! * `comb/landmarks` — the landmark table of the comb venue's `ItGraph`
//!   (`ItGraph::landmarks`, built in parallel on the host's cores), a layer
//!   of its own on top of the venue: its seconds and its heap bytes.
//!
//! Each wiring, fast and landmark build runs 5 times and each sequential
//! build 3 times; a point reports the median with min and max. The fast and
//! sequential builds are asserted equal at every sweep point before timings
//! are reported. Output: an aligned table, `results/construction.csv`, and
//! the committed `BENCH_construction.json` baseline. `--quick` (wired into
//! CI) sweeps `{5, 10}` only. It fails if the 10-floor comb fast build
//! exceeds a generous wall-clock budget, and exits 1 if that build's median
//! is more than [`QUICK_COMB_OVER_BAND`] times the 10-floor band fast
//! build's median of the same run: both venues have the same partitions and
//! doors, so the ratio names the geodesic layer whatever the host's speed.
//! It also exits 1 if the 10-floor comb venue holds more than
//! [`QUICK_BYTES_PER_DOOR`] heap bytes per door: a byte count, the same on
//! every host and every run, that names the venue's layout.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use std::sync::Arc;

use indoor_synthetic::{mall_builder, HoursConfig, MallConfig, ShopHours};
use itspq_bench::Distribution;
use itspq_core::ItGraph;

/// Generous CI budget for the 10-floor comb fast build, in seconds. The
/// measured value on a pinned single-core container is ~0.05 s; tripping this
/// means construction got at least two orders of magnitude slower.
const QUICK_BUDGET_SECS: f64 = 15.0;

/// The most the 10-floor comb fast build's median may be, as a multiple of
/// the 10-floor band fast build's median in the same `--quick` run. With one
/// geodesic solve per distinct corridor footprint it reads ~2.4× on 2 cores
/// and ~3.4× on one; with one solve per corridor it read 12–15× on 2 cores.
const QUICK_COMB_OVER_BAND: f64 = 5.0;

/// The most heap bytes per door the 10-floor comb venue may hold in a
/// `--quick` run. With its mappings in flat lists and its matrices in one
/// cell arena it holds 863,562 bytes for 2,240 doors, 385.5 per door; with
/// one `Vec` per list and per matrix it held 1,431,342, 639 per door (its
/// `heap_bytes` then guessed 951,944, 425 per door).
const QUICK_BYTES_PER_DOOR: f64 = 400.0;

/// Timed builds per wiring, fast and landmark point, and per sequential
/// point.
const FAST_REPEATS: usize = 5;
const SEQUENTIAL_REPEATS: usize = 3;

struct SweepPoint {
    venue: &'static str,
    pipeline: &'static str,
    floors: u16,
    partitions: usize,
    doors: usize,
    seconds: Distribution,
    /// Sequential seconds / this pipeline's seconds for the same venue
    /// (1.0 for the sequential series itself; None where sequential was not
    /// measured).
    speedup: Option<f64>,
    /// Heap bytes of what the point builds, where it is measured (the
    /// fast-built venues and the landmark table).
    bytes: Option<usize>,
}

fn main() {
    let quick = itspq_bench::quick_flag();
    let floor_counts: &[u16] = if quick { &[5, 10] } else { &[5, 10, 25, 50] };
    let hours = ShopHours::sample(&HoursConfig::default());
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("host parallelism: {host_cores}, sweep: {floor_counts:?} floors");

    let mut points: Vec<SweepPoint> = Vec::new();
    // (band, comb) fast-build medians and the comb venue's bytes per door
    // at 10 floors.
    let mut ten_floors: Option<(f64, f64, f64)> = None;
    for &floors in floor_counts {
        let band = MallConfig::paper_default().with_floors(floors);
        let comb = band.with_comb_corridors();

        let (band_space, band_fast) = time_builds(FAST_REPEATS, || {
            mall_builder(&band, &hours).build().unwrap()
        });
        let (_, wiring) = time_builds(FAST_REPEATS, || mall_builder(&comb, &hours));
        let (comb_space, comb_fast) = time_builds(FAST_REPEATS, || {
            mall_builder(&comb, &hours).build().unwrap()
        });
        let (comb_seq_space, comb_seq) = time_builds(SEQUENTIAL_REPEATS, || {
            mall_builder(&comb, &hours).build_sequential().unwrap()
        });
        assert_eq!(
            comb_space, comb_seq_space,
            "fast and sequential pipelines diverged at {floors} floors"
        );

        let stats = comb_space.stats();
        let speedup = comb_seq.p50 / comb_fast.p50;
        let comb_bytes = comb_space.heap_bytes();
        let comb_space = Arc::new(comb_space);
        let mut landmark_bytes = 0;
        let (_, landmarks) = time_builds(FAST_REPEATS, || {
            let graph = ItGraph::from_arc(Arc::clone(&comb_space));
            landmark_bytes = graph.landmarks().heap_bytes();
        });
        println!(
            "floors={floors:>3}  partitions={:>5}  doors={:>5}  band/fast={:>8.4}s  \
             comb/wiring={:>8.4}s  comb/fast={:>8.4}s  comb/sequential={:>8.4}s  \
             speedup={speedup:>5.1}x  comb/landmarks={:>8.4}s [{:.4}, {:.4}] \
             ({landmark_bytes} B)  (medians)  comb venue {comb_bytes} B",
            stats.partitions,
            stats.doors,
            band_fast.p50,
            wiring.p50,
            comb_fast.p50,
            comb_seq.p50,
            landmarks.p50,
            landmarks.min,
            landmarks.max,
        );
        points.push(SweepPoint {
            venue: "mall-band",
            pipeline: "fast",
            floors,
            partitions: band_space.num_partitions(),
            doors: band_space.num_doors(),
            seconds: band_fast,
            speedup: None,
            bytes: Some(band_space.heap_bytes()),
        });
        points.push(SweepPoint {
            venue: "mall-comb",
            pipeline: "wiring",
            floors,
            partitions: stats.partitions,
            doors: stats.doors,
            seconds: wiring,
            speedup: None,
            bytes: None,
        });
        points.push(SweepPoint {
            venue: "mall-comb",
            pipeline: "fast",
            floors,
            partitions: stats.partitions,
            doors: stats.doors,
            seconds: comb_fast,
            speedup: Some(speedup),
            bytes: Some(comb_bytes),
        });
        points.push(SweepPoint {
            venue: "mall-comb",
            pipeline: "sequential",
            floors,
            partitions: stats.partitions,
            doors: stats.doors,
            seconds: comb_seq,
            speedup: Some(1.0),
            bytes: None,
        });
        points.push(SweepPoint {
            venue: "mall-comb",
            pipeline: "landmarks",
            floors,
            partitions: stats.partitions,
            doors: stats.doors,
            seconds: landmarks,
            speedup: None,
            bytes: Some(landmark_bytes),
        });
        if floors == 10 {
            let per_door = comb_bytes as f64 / stats.doors as f64;
            ten_floors = Some((band_fast.p50, comb_fast.p50, per_door));
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
        let (band, witness, per_door) = ten_floors.expect("quick sweep includes 10 floors");
        assert!(
            witness <= QUICK_BUDGET_SECS,
            "construction regression: 10-floor comb fast build took {witness:.2}s \
             (budget {QUICK_BUDGET_SECS}s)"
        );
        println!("quick budget ok: 10-floor comb fast build {witness:.3}s <= {QUICK_BUDGET_SECS}s");
        let ratio = witness / band;
        if ratio > QUICK_COMB_OVER_BAND {
            eprintln!(
                "construction ratio gate failed: 10-floor comb fast build {witness:.4}s is \
                 {ratio:.2}x the band fast build {band:.4}s (at most {QUICK_COMB_OVER_BAND}x)"
            );
            std::process::exit(1);
        }
        println!(
            "ratio ok: 10-floor comb fast build is {ratio:.2}x the band fast build \
             (at most {QUICK_COMB_OVER_BAND}x)"
        );
        if per_door > QUICK_BYTES_PER_DOOR {
            eprintln!(
                "venue bytes gate failed: the 10-floor comb venue holds {per_door:.1} heap \
                 bytes per door (at most {QUICK_BYTES_PER_DOOR})"
            );
            std::process::exit(1);
        }
        println!(
            "bytes ok: the 10-floor comb venue holds {per_door:.1} heap bytes per door \
             (at most {QUICK_BYTES_PER_DOOR})"
        );
    }
}

/// Runs `build` `repeats` times: the last thing built and the seconds each
/// build took. The previous build is dropped before the clock starts, so no
/// timing includes freeing what the one before it built.
fn time_builds<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, Distribution) {
    let mut seconds = Vec::with_capacity(repeats);
    let mut built = None;
    for _ in 0..repeats {
        drop(built.take());
        let t = Instant::now();
        let this = build();
        seconds.push(t.elapsed().as_secs_f64());
        built = Some(this);
    }
    (
        built.expect("at least one build"),
        Distribution::of(seconds),
    )
}

fn csv(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "venue,pipeline,floors,partitions,doors,seconds,seconds_min,seconds_max,speedup,bytes\n",
    );
    for p in points {
        let speedup = p.speedup.map_or(String::new(), |s| format!("{s:.2}"));
        let bytes = p.bytes.map_or(String::new(), |b| b.to_string());
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.6},{:.6},{:.6},{},{}",
            p.venue,
            p.pipeline,
            p.floors,
            p.partitions,
            p.doors,
            p.seconds.p50,
            p.seconds.min,
            p.seconds.max,
            speedup,
            bytes
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
         comb = geodesic service corridors, wiring = mall_builder alone on the comb venue, \
         sequential = per-pair reference path, landmarks = the comb venue's landmark table on \
         the host's cores, with its heap bytes; fast points carry the built venue's heap bytes; \
         seconds = median of {FAST_REPEATS} wiring, fast \
         or landmark builds or {SEQUENTIAL_REPEATS} sequential builds, with min and max; \
         speedup at the medians\","
    );
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(out, "  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let speedup = p
            .speedup
            .map_or(String::from("null"), |s| format!("{s:.2}"));
        let bytes = p
            .bytes
            .map_or(String::new(), |b| format!(", \"bytes\": {b}"));
        let _ = writeln!(
            out,
            "    {{\"venue\": \"{}\", \"pipeline\": \"{}\", \"floors\": {}, \
             \"partitions\": {}, \"doors\": {}, \"seconds\": {:.6}, \
             \"seconds_min\": {:.6}, \"seconds_max\": {:.6}, \
             \"speedup_vs_sequential\": {}{}}}{}",
            p.venue,
            p.pipeline,
            p.floors,
            p.partitions,
            p.doors,
            p.seconds.p50,
            p.seconds.min,
            p.seconds.max,
            speedup,
            bytes,
            comma
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}
