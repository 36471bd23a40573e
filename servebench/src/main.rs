//! `servebench`: a steady serving benchmark for the ITSPQ venue server.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload mall-uniform --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run brings the workload's venue up once to generate its traffic from
//! the seed and to verify every distinct answer (untimed), then serves a
//! fixed number of operations from one closed-loop client, spread over
//! several fresh bring-ups. With `--trace 1` a second, traced pass times
//! the same public calls from outside and adds the counters the API
//! returns. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; see `README.md`.

mod alloc;
mod check;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use itspq_core::{ItspqConfig, Query, QueryError, QueryResult, SynEngine, VenueServer};

use check::Reference;
use stats::{median, per_second, quantile, quantile_percentile, ratio, Tally};
use trace::Tracer;
use workload::{Driver, Summary, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The traced pass makes this share of the untraced pass's operations.
const TRACED_SHARE: usize = 8;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10usize, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or(format!(
                    "unknown workload {value:?} (one of: {})",
                    workload::WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The distinct operations of a run and the verified answer to each query
/// in them.
struct Traffic {
    units: Vec<Vec<Query>>,
    refs: Vec<Vec<Reference>>,
}

impl Traffic {
    fn queries(&self) -> usize {
        self.units.iter().map(Vec::len).sum()
    }
}

/// Answers every distinct operation once, untimed, and cross-checks each
/// answer: the workload's own call, the same server's per-query
/// `try_query` and an independent ITG/S engine must agree, the path must
/// validate, and every batch's books must balance.
fn verify(spec: &Workload, server: &VenueServer, units: Vec<Vec<Query>>) -> Traffic {
    let space = server.graph().space();
    let velocity = server.config().itspq.velocity;
    let oracle = SynEngine::new(Arc::clone(server.graph()), ItspqConfig::full_relax());
    let refs = units
        .iter()
        .map(|unit| {
            let (served, balanced) = match spec.driver {
                Driver::Point => (unit.iter().map(|q| server.try_query(q)).collect(), true),
                Driver::Batch => {
                    let (served, books) = server.try_query_batch_with_stats(unit);
                    (served, check::books_balance(&books, unit.len()))
                }
            };
            // A missing answer leaves its query without a reference, which
            // fails every timed check of it.
            unit.iter()
                .zip(&served)
                .map(|(q, s)| {
                    let single = server.try_query(q);
                    let reference = oracle.try_query(q);
                    check::cross_check(space, velocity, q, s, &single, &reference, balanced)
                })
                .collect()
        })
        .collect();
    Traffic { units, refs }
}

/// The operations of bring-up `round` out of `rounds`: an equal share of
/// `0..ops`, in order.
fn segment(ops: usize, rounds: usize, round: usize) -> std::ops::Range<usize> {
    ops * round / rounds..ops * (round + 1) / rounds
}

/// Books one served unit: every query in it is an attempted operation,
/// failed unless its answer passes the checks.
fn check_unit(
    server: &VenueServer,
    unit: &[Query],
    got: &[Result<QueryResult, QueryError>],
    refs: &[Reference],
    balanced: bool,
    tally: &mut Tally,
) {
    let space = server.graph().space();
    let velocity = server.config().itspq.velocity;
    for (k, q) in unit.iter().enumerate() {
        let ok = match (got.get(k), refs.get(k)) {
            (Some(g), Some(want)) => balanced && check::answer_ok(space, velocity, q, g, want),
            _ => false,
        };
        tally.record(ok);
    }
}

/// What the untraced pass measured.
struct Untraced {
    setup_nanos: Vec<f64>,
    /// Per bring-up: the latency of every query it served, ns (a batch's
    /// latency is each member's), and the time inside its calls.
    rounds: Vec<(Vec<u64>, u64)>,
    calls: u64,
}

fn untraced_pass(spec: &Workload, traffic: &Traffic, ops: usize, tally: &mut Tally) -> Untraced {
    let per_op = traffic.units[0].len();
    let mut pass = Untraced {
        setup_nanos: Vec::with_capacity(spec.rounds),
        rounds: Vec::with_capacity(spec.rounds),
        calls: 0,
    };
    for round in 0..spec.rounds {
        let (offset, depth) = workload::layout(round);
        let (server, setup) =
            workload::on_shifted_stack(depth, || spec.bring_up(None, round as u64 + 1));
        pass.setup_nanos.push(setup as f64);
        let server = workload::place(server, offset);
        let ops = segment(ops, spec.rounds, round);
        let mut samples = Vec::with_capacity(ops.len() * per_op);
        let busy = workload::on_shifted_stack(depth, || {
            serve((*server).as_ref(), spec, traffic, ops, &mut samples, tally)
        });
        pass.calls += (samples.len() / per_op) as u64;
        pass.rounds.push((samples, busy));
    }
    pass
}

/// The timed closed loop over `ops` on one server: records each query's
/// latency and returns the nanoseconds spent inside the calls.
fn serve(
    server: &VenueServer,
    spec: &Workload,
    traffic: &Traffic,
    ops: std::ops::Range<usize>,
    samples: &mut Vec<u64>,
    tally: &mut Tally,
) -> u64 {
    let mut busy = 0;
    for op in ops {
        let u = op % traffic.units.len();
        let (unit, refs) = (&traffic.units[u], &traffic.refs[u]);
        let start = Instant::now();
        match spec.driver {
            Driver::Point => {
                let got = server.try_query(&unit[0]);
                let nanos = start.elapsed().as_nanos() as u64;
                busy += nanos;
                samples.push(nanos);
                check_unit(server, unit, std::slice::from_ref(&got), refs, true, tally);
            }
            Driver::Batch => {
                let (got, books) = server.try_query_batch_with_stats(unit);
                let nanos = start.elapsed().as_nanos() as u64;
                busy += nanos;
                samples.extend(std::iter::repeat_n(nanos, unit.len()));
                let balanced = check::books_balance(&books, unit.len());
                check_unit(server, unit, &got, refs, balanced, tally);
            }
        }
    }
    busy
}

/// Sums the traced pass collects beside its spans.
#[derive(Default)]
struct Layers {
    views_bytes: usize,
    workers: usize,
    // Per `try_query`: `SearchStats` and the counting allocator.
    queries: u64,
    settled: u64,
    relaxations: u64,
    tv_checks: u64,
    view_switches: u64,
    state_bytes: u64,
    allocs: u64,
    alloc_bytes: u64,
    // Per batch: `BatchStats`.
    batches: u64,
    batch_queries: u64,
    searches: u64,
    views_built: u64,
    derived: u64,
    fallbacks: u64,
    plan_nanos: u64,
    search_nanos: u64,
    scatter_nanos: u64,
}

impl Layers {
    fn search(&mut self, got: &Result<QueryResult, QueryError>, allocs: u64, bytes: u64) {
        self.queries += 1;
        self.allocs += allocs;
        self.alloc_bytes += bytes;
        if let Ok(r) = got {
            let s = r.stats;
            self.settled += s.doors_settled as u64;
            self.relaxations += s.relaxations as u64;
            self.tv_checks += s.tv_checks as u64;
            self.view_switches += s.graph_updates as u64;
            self.state_bytes += s.search_bytes as u64;
        }
    }
}

/// Times the same public calls from outside, inside spans, and sums the
/// counters they return. Per batch, one `client.batch` span holds a
/// separate `server.plan` call on the batch, the `server.try_query_batch`
/// call itself, and one `search.try_query` per member.
fn traced_pass(
    spec: &Workload,
    traffic: &Traffic,
    ops: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Layers {
    let mut layers = Layers::default();
    for round in 0..spec.rounds {
        let (offset, depth) = workload::layout(round);
        let (server, _) = workload::on_shifted_stack(depth, || {
            spec.bring_up(Some(&mut *tracer), round as u64 + 1)
        });
        let server = workload::place(server, offset);
        let ops = segment(ops, spec.rounds, round);
        workload::on_shifted_stack(depth, || {
            trace_ops(
                (*server).as_ref(),
                spec,
                traffic,
                ops,
                tracer,
                &mut layers,
                tally,
            );
        });
    }
    layers
}

fn trace_ops(
    server: &VenueServer,
    spec: &Workload,
    traffic: &Traffic,
    ops: std::ops::Range<usize>,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    layers.views_bytes = server.cache_bytes();
    layers.workers = server.config().effective_workers();
    for op in ops {
        let u = op % traffic.units.len();
        let (unit, refs) = (&traffic.units[u], &traffic.refs[u]);
        let request = op as u64;
        if spec.driver == Driver::Point {
            let id = tracer.open("search.try_query", None, request);
            let (got, allocs, bytes) = alloc::count_allocs(|| server.try_query(&unit[0]));
            tracer.close(id);
            layers.search(&got, allocs, bytes);
            check_unit(server, unit, &[got], refs, true, tally);
            continue;
        }
        let root = tracer.open("client.batch", None, request);
        let planned = tracer.span("server.plan", Some(root), request, || {
            server.plan(unit, true).searches()
        });
        std::hint::black_box(planned);
        let (got, books) = tracer.span("server.try_query_batch", Some(root), request, || {
            server.try_query_batch_with_stats(unit)
        });
        layers.batches += 1;
        layers.batch_queries += books.queries as u64;
        layers.searches += books.groups as u64;
        layers.views_built += books.views_built as u64;
        layers.derived += (books.replayed + books.retimed) as u64;
        layers.fallbacks += books.fallbacks as u64;
        layers.plan_nanos += books.plan_nanos;
        layers.search_nanos += books.search_nanos;
        layers.scatter_nanos += books.scatter_nanos;
        let balanced = check::books_balance(&books, unit.len());
        check_unit(server, unit, &got, refs, balanced, tally);
        for (q, want) in unit.iter().zip(refs) {
            let id = tracer.open("search.try_query", Some(root), request);
            let (got, allocs, bytes) = alloc::count_allocs(|| server.try_query(q));
            tracer.close(id);
            layers.search(&got, allocs, bytes);
            let (q, want) = (std::slice::from_ref(q), std::slice::from_ref(want));
            check_unit(server, q, &[got], want, true, tally);
        }
        tracer.close(root);
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

fn mean(values: impl Iterator<Item = u64>) -> (f64, usize) {
    let (sum, n) = values.fold((0u64, 0usize), |(s, n), v| (s + v, n + 1));
    (ratio(sum as f64, n as f64), n)
}

/// A run's latency percentiles (ns) and throughput, each with a note on
/// how it was taken.
struct Timings {
    p50: (f64, String),
    p99: (f64, String),
    qps: (f64, String),
}

/// [`Summary::MedianBringUp`]: the median latency and the throughput over
/// bring-ups, the p99 (which needs 1,000 samples) over quarters of the run.
fn median_bring_up(pass: &Untraced) -> Result<Timings, String> {
    let rounds = pass.rounds.len();
    let n: usize = pass.rounds.iter().map(|(s, _)| s.len()).sum();
    let per_round = n / rounds.max(1);
    let p50 = quantile_percentile(pass.rounds.iter().map(|(s, _)| s.clone()), 50, 0.5).ok_or(
        format!("{per_round} samples per bring-up cannot give a p50"),
    )?;
    // Quarters of consecutive bring-ups, each covering every server
    // placement.
    let quarters = pass
        .rounds
        .chunks(rounds.div_ceil(4).max(1))
        .map(|q| q.iter().flat_map(|(s, _)| s).copied().collect());
    let p99 = quantile_percentile(quarters, 99, 0.5).ok_or(format!(
        "{} samples per quarter cannot give a p99: it needs 1,000",
        n / 4
    ))?;
    let mut qps: Vec<f64> = pass
        .rounds
        .iter()
        .filter_map(|(s, busy)| per_second(s.len() as u64, *busy))
        .collect();
    let qps = median(&mut qps).ok_or("no time was measured")?;
    Ok(Timings {
        p50: (
            p50,
            format!("median over {rounds} bring-ups of each one's p50, n={per_round} each"),
        ),
        p99: (
            p99,
            format!("median over quarters of each one's p99, n={} each", n / 4),
        ),
        qps: (qps, format!("median over {rounds} bring-ups")),
    })
}

/// The share of slices, from the fast end, that [`Summary::FastestTenth`]
/// reads its figures at.
const FASTEST: f64 = 0.1;

/// [`Summary::FastestTenth`] over slices of `cycle` consecutive queries,
/// cut within each bring-up; the remainder of a bring-up is in no slice.
fn fastest_tenth(pass: &Untraced, cycle: usize, per_op: usize) -> Result<Timings, String> {
    let slices = || {
        pass.rounds
            .iter()
            .flat_map(move |(s, _)| s.chunks_exact(cycle.max(1)))
    };
    let k = slices().count();
    let p50 = quantile_percentile(slices().map(<[u64]>::to_vec), 50, FASTEST)
        .ok_or(format!("{k} slices of {cycle} samples cannot give a p50"))?;
    let p99 = quantile_percentile(slices().map(<[u64]>::to_vec), 99, FASTEST).ok_or(format!(
        "{k} slices of {cycle} samples cannot give a p99: each needs 1,000"
    ))?;
    // Each call's time is in the samples once per query it answered.
    let mut qps: Vec<f64> = slices()
        .filter_map(|s| per_second(s.len() as u64, s.iter().sum::<u64>() / per_op as u64))
        .collect();
    let qps = quantile(&mut qps, 1.0 - FASTEST).ok_or("no time was measured")?;
    let note = format!("fastest tenth of {k} slices of one traffic cycle, n={cycle} each");
    Ok(Timings {
        p50: (p50, note.clone()),
        p99: (p99, note.clone()),
        qps: (qps, note),
    })
}

/// The end-to-end metrics.
fn end_to_end(
    spec: &Workload,
    traffic: &Traffic,
    pass: &Untraced,
    heap_peak: usize,
) -> Result<Vec<Metric>, String> {
    let mut setups = pass.setup_nanos.clone();
    let setup = median(&mut setups).ok_or("no timed bring-up")? / 1e9;
    let rounds = pass.rounds.len();
    let n: usize = pass.rounds.iter().map(|(s, _)| s.len()).sum();
    let busy: u64 = pass.rounds.iter().map(|&(_, b)| b).sum();
    let t = match spec.summary {
        Summary::MedianBringUp => median_bring_up(pass)?,
        Summary::FastestTenth => fastest_tenth(pass, traffic.queries(), traffic.units[0].len())?,
    };
    Ok(vec![
        metric(
            "setup_s",
            setup,
            "s",
            format!("median of {rounds} bring-ups after a discarded first"),
        ),
        metric("latency_p50_us", t.p50.0 / 1e3, "us", t.p50.1),
        metric("latency_p99_us", t.p99.0 / 1e3, "us", t.p99.1),
        metric(
            "throughput_qps",
            t.qps.0,
            "queries/s",
            format!(
                "{}; whole run {n} queries in {} calls, {:.3} s inside calls",
                t.qps.1,
                pass.calls,
                busy as f64 / 1e9
            ),
        ),
        metric(
            "heap_peak_mib",
            heap_peak as f64 / (1u64 << 20) as f64,
            "MiB",
            "first bring-up, traffic generation and verification",
        ),
    ])
}

fn per_layer(spec: &Workload, l: &Layers, tracer: &Tracer, untraced: &Untraced) -> Vec<Metric> {
    let span_median = |name: &str| {
        let mut v: Vec<f64> = tracer.durations(name).map(|d| d as f64).collect();
        (median(&mut v).unwrap_or(0.0) / 1e9, v.len())
    };
    let (build, builds) = span_median("builder.build_mall");
    let (warm, warms) = span_median("views.warm");
    let (query_ns, n_query) = mean(tracer.durations("search.try_query"));
    let (batch_ns, n_batch) = mean(tracer.durations("server.try_query_batch"));
    let (plan_ns, n_plan) = mean(tracer.durations("server.plan"));
    let q = l.queries as f64;
    let b = l.batches as f64;
    let batch_busy: u64 = tracer.durations("server.try_query_batch").sum();
    let idle = if l.batches == 0 {
        0.0
    } else {
        1.0 - ratio(
            (l.search_nanos + l.scatter_nanos) as f64,
            (l.workers as u64 * batch_busy) as f64,
        )
    };
    let busy: u64 = untraced.rounds.iter().map(|&(_, b)| b).sum();
    let untraced_ns = ratio(busy as f64, untraced.calls as f64);
    let (traced_ns, traced_calls) = match spec.driver {
        Driver::Point => (query_ns, n_query),
        Driver::Batch => (batch_ns, n_batch),
    };
    let per_q = |v: u64| ratio(v as f64, q);
    let per_b = |v: u64| ratio(v as f64, b);
    let nq = format!("n={n_query} try_query calls");
    let nb = if l.batches == 0 {
        "idle: no batches on this workload".to_string()
    } else {
        format!("n={} batches", l.batches)
    };
    vec![
        metric("builder.build_s", build, "s", format!("median of {builds}")),
        metric("views.warm_s", warm, "s", format!("median of {warms}")),
        metric(
            "views.bytes",
            l.views_bytes as f64,
            "bytes",
            "cache_bytes() after warm",
        ),
        metric("search.query_us", query_ns / 1e3, "us", nq.clone()),
        metric(
            "search.settled_per_query",
            per_q(l.settled),
            "doors",
            nq.clone(),
        ),
        metric(
            "search.relaxations_per_query",
            per_q(l.relaxations),
            "count",
            nq.clone(),
        ),
        metric(
            "search.tv_checks_per_query",
            per_q(l.tv_checks),
            "count",
            nq.clone(),
        ),
        metric(
            "search.view_switches_per_query",
            per_q(l.view_switches),
            "count",
            nq.clone(),
        ),
        metric(
            "search.state_bytes_per_query",
            per_q(l.state_bytes),
            "bytes",
            nq.clone(),
        ),
        metric(
            "search.allocs_per_query",
            per_q(l.allocs),
            "count",
            nq.clone(),
        ),
        metric(
            "search.alloc_bytes_per_query",
            per_q(l.alloc_bytes),
            "bytes",
            nq,
        ),
        metric(
            "server.batch_ms",
            batch_ns / 1e6,
            "ms",
            format!("{nb}, span"),
        ),
        metric(
            "server.plan_us_per_batch",
            plan_ns / 1e3,
            "us",
            format!("n={n_plan} plan calls"),
        ),
        metric(
            "server.plan_in_batch_us_per_batch",
            per_b(l.plan_nanos) / 1e3,
            "us",
            format!("{nb}, BatchStats::plan_nanos"),
        ),
        metric(
            "server.search_busy_us_per_query",
            ratio(l.search_nanos as f64, l.batch_queries as f64) / 1e3,
            "us",
            format!("{nb}, BatchStats::search_nanos"),
        ),
        metric(
            "server.scatter_us_per_batch",
            per_b(l.scatter_nanos) / 1e3,
            "us",
            nb.clone(),
        ),
        metric(
            "server.worker_idle_share",
            idle,
            "share",
            format!("{nb}, {} workers", l.workers),
        ),
        metric(
            "server.searches_per_query",
            ratio(l.searches as f64, l.batch_queries as f64),
            "ratio",
            nb.clone(),
        ),
        metric(
            "server.views_built_per_batch",
            per_b(l.views_built),
            "count",
            nb.clone(),
        ),
        metric(
            "replay.derived_per_batch",
            per_b(l.derived),
            "count",
            nb.clone(),
        ),
        metric(
            "replay.fallbacks_per_batch",
            per_b(l.fallbacks),
            "count",
            nb.clone(),
        ),
        metric(
            "replay.certified_ratio",
            ratio(l.derived as f64, (l.derived + l.fallbacks) as f64),
            "ratio",
            nb,
        ),
        metric(
            "trace.overhead_pct",
            (ratio(traced_ns, untraced_ns) - 1.0) * 100.0,
            "%",
            format!(
                "mean traced call {:.1} us vs untraced {:.1} us, n={traced_calls}",
                traced_ns / 1e3,
                untraced_ns / 1e3,
            ),
        ),
    ]
}

fn render(tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        println!(
            "  {:<36} {:>16} {:<9} ({})",
            m.name, m.value, m.unit, m.note
        );
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "  operations attempted {}, failed {}",
        tally.attempted, tally.failed
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let spec = args.workload;
    println!(
        "servebench {}: {} floors, {} worker(s), host parallelism {}, seed {}",
        spec.name,
        spec.floors,
        spec.workers,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        args.seed
    );
    println!("  why: {}", spec.why);

    // The first bring-up is discarded from `setup_s`: it makes the
    // traffic, verifies every distinct answer and sets the heap peak.
    let started = Instant::now();
    let (server, _) = spec.bring_up(None, 0);
    let units = spec.traffic(server.graph(), args.seed);
    let traffic = verify(spec, &server, units);
    let heap_peak = alloc::finish_peak();
    drop(server);
    let unverified = traffic
        .refs
        .iter()
        .flatten()
        .filter(|r| !r.verified)
        .count();
    println!(
        "  traffic: {} distinct operations, {} queries, {} failed verification ({:.1} s)",
        traffic.units.len(),
        traffic.queries(),
        unverified,
        started.elapsed().as_secs_f64()
    );

    let ops = spec.ops_per_second * args.seconds;
    let mut tally = Tally::default();
    let started = Instant::now();
    let untraced = untraced_pass(spec, &traffic, ops, &mut tally);
    println!(
        "  untraced pass: {ops} operations over {} bring-ups ({:.1} s)",
        spec.rounds,
        started.elapsed().as_secs_f64()
    );
    let e2e = end_to_end(spec, &traffic, &untraced, heap_peak)?;
    if !args.trace {
        return render(&tally, &e2e);
    }
    for m in &e2e {
        println!(
            "  untraced {} = {} {} ({})",
            m.name, m.value, m.unit, m.note
        );
    }

    let traced_ops = ops / TRACED_SHARE;
    let per_op_spans = match spec.driver {
        Driver::Point => 1,
        Driver::Batch => 3 + traffic.units[0].len(),
    };
    let mut tracer = Tracer::new(traced_ops * per_op_spans + 8 * spec.rounds);
    let started = Instant::now();
    let layers = traced_pass(spec, &traffic, traced_ops, &mut tracer, &mut tally);
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = out.join(format!("trace-{}.jsonl", spec.name));
    std::fs::create_dir_all(&out)
        .and_then(|()| tracer.write_jsonl(&file))
        .map_err(|e| format!("writing spans: {e}"))?;
    println!(
        "  traced pass: {traced_ops} operations, {} spans written to out/{} ({:.1} s)",
        tracer.len(),
        file.file_name()
            .map_or(String::new(), |f| f.to_string_lossy().into_owned()),
        started.elapsed().as_secs_f64()
    );
    render(&tally, &per_layer(spec, &layers, &tracer, &untraced))
}
