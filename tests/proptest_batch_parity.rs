//! Property-based parity pin for the shared-execution batch engine.
//!
//! The claim of shared execution is that sharing is *invisible* in
//! the answers: grouping queries by source point and checkpoint interval
//! and answering each group from one multi-target frontier (verbatim, or
//! retimed where the target shares the source's partition or the margin
//! certificate holds) returns
//! exactly what per-query execution returns — the same `Path` values bit
//! for bit, the same "no such routes", the same typed errors for malformed
//! queries — for every engine (ITG/S, ITG/A Exact *and* the stateful
//! paper-faithful ITG/A), any worker count, and adversarially skewed
//! batches.
//!
//! These properties drive randomized venues (seeded ATIs on the tiny mall),
//! zipf-like source skew (a tiny source pool with many duplicates),
//! partition-clustered sources with second-granularity time jitter or
//! minute-granularity spread (including night hours where doors seal and
//! near-boundary departures that force certified fallbacks), batch sizes,
//! worker counts, and injected malformed queries (NaN coordinates,
//! unknown partitions), asserting byte-identity against the per-query
//! reference the whole way. Failures render compactly: the offending index
//! and query plus outcome summaries, never whole venues or result dumps.

use itspq_repro::core::{AsynMode, QueryResult};
use itspq_repro::prelude::*;
use itspq_repro::synthetic::{build_mall, HoursConfig, MallConfig, ShopHours};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Builds the tiny mall with seeded ATIs and picks `n` random indoor points.
fn venue_and_points(seed: u64, n: usize) -> (ItGraph, Vec<IndoorPoint>) {
    let hours = ShopHours::sample(&HoursConfig::default().with_seed(seed));
    let space = build_mall(&MallConfig::tiny(), &hours);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let mut points = Vec::with_capacity(n);
    let parts: Vec<_> = space
        .partitions()
        .iter()
        .filter(|p| p.polygon.is_some())
        .map(|p| (p.id, p.polygon.clone().unwrap()))
        .collect();
    for _ in 0..n {
        let (id, poly) = &parts[rng.random_range(0..parts.len())];
        let (min, max) = poly.bounding_box();
        let mut pos = poly.centroid();
        for _ in 0..32 {
            let cand = itspq_repro::geom::Point::new(
                rng.random_range(min.x..=max.x),
                rng.random_range(min.y..=max.y),
            );
            if poly.contains(cand) {
                pos = cand;
                break;
            }
        }
        points.push(IndoorPoint::new(*id, pos));
    }
    (ItGraph::new(space), points)
}

/// A zipf-like skewed batch: sources from a pool of `pool` points (heavy
/// duplication ⇒ shareable groups), random targets, a few distinct times
/// including night hours that yield genuine "no such routes" answers.
fn skewed_batch(pts: &[IndoorPoint], seed: u64, size: usize, pool: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
    let times = [
        TimeOfDay::hm(9, 0),
        TimeOfDay::hm(12, 0),
        TimeOfDay::hm(23, 30),
        TimeOfDay::hm(4, 0),
    ];
    let pool = pool.clamp(1, pts.len());
    (0..size)
        .map(|_| {
            Query::new(
                pts[rng.random_range(0..pool)],
                pts[rng.random_range(0..pts.len())],
                times[rng.random_range(0..times.len())],
            )
        })
        .collect()
}

/// Overwrites one batch slot with a NaN-source query and (if the batch has
/// ≥ 2 entries) another with an unknown-partition target.
fn inject_malformed(batch: &mut [Query], seed: u64) {
    if batch.is_empty() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA11);
    let i = rng.random_range(0..batch.len());
    batch[i].source = IndoorPoint::new(
        batch[i].source.partition,
        itspq_repro::geom::Point::new(f64::NAN, 1.0),
    );
    if batch.len() >= 2 {
        let j = (i + 1) % batch.len();
        batch[j].target =
            IndoorPoint::new(PartitionId(9_999), itspq_repro::geom::Point::new(1.0, 1.0));
    }
}

/// `per` random points in each of the first `parts` traversable polygon
/// partitions: many *distinct* source points concentrated in few partitions,
/// so batches mix groups at recurring points with searches from lone ones.
fn partition_clustered_points(
    graph: &ItGraph,
    seed: u64,
    parts: usize,
    per: usize,
) -> Vec<IndoorPoint> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0012);
    let chosen: Vec<_> = graph
        .space()
        .partitions()
        .iter()
        .filter(|p| p.polygon.is_some() && p.kind.traversable())
        .take(parts)
        .map(|p| (p.id, p.polygon.clone().unwrap()))
        .collect();
    let mut pts = Vec::new();
    for (id, poly) in &chosen {
        let (min, max) = poly.bounding_box();
        for _ in 0..per {
            let mut pos = poly.centroid();
            for _ in 0..32 {
                let cand = itspq_repro::geom::Point::new(
                    rng.random_range(min.x..=max.x),
                    rng.random_range(min.y..=max.y),
                );
                if poly.contains(cand) {
                    pos = cand;
                    break;
                }
            }
            pts.push(IndoorPoint::new(*id, pos));
        }
    }
    pts
}

/// Sources from the partition-clustered pool, departures jittered by seconds
/// around a few base instants (9:00, 12:00, and 23:30 where night sealing
/// yields genuine no-routes): exact duplicates, same-instant different-point
/// pairs, and same-interval different-instant pairs all occur.
fn clustered_batch(
    cluster: &[IndoorPoint],
    targets: &[IndoorPoint],
    seed: u64,
    size: usize,
) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC10C);
    let bases = [32_400.0, 43_200.0, 84_600.0];
    let jitter = [0.0, 0.0, 17.5, 45.0, 171.0];
    (0..size)
        .map(|_| {
            let t =
                bases[rng.random_range(0..bases.len())] + jitter[rng.random_range(0..jitter.len())];
            Query::new(
                cluster[rng.random_range(0..cluster.len())],
                targets[rng.random_range(0..targets.len())],
                TimeOfDay::from_seconds(t).expect("in range by construction"),
            )
        })
        .collect()
}

/// Sources from the partition-clustered pool, departures spread by minutes
/// after a few base instants (9:00, 12:00, and 23:00 where night sealing
/// yields genuine no-routes): most members of a group depart at another
/// instant than its lead, so they are retimed from the lead's already-run
/// ("warm") frontier or fall back.
fn spread_batch(
    cluster: &[IndoorPoint],
    targets: &[IndoorPoint],
    seed: u64,
    size: usize,
) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5B8EAD);
    let bases = [32_400.0, 43_200.0, 82_800.0];
    let offsets = [0.0, 300.0, 1_200.0, 2_400.0];
    (0..size)
        .map(|_| {
            let t = bases[rng.random_range(0..bases.len())]
                + offsets[rng.random_range(0..offsets.len())];
            Query::new(
                cluster[rng.random_range(0..cluster.len())],
                targets[rng.random_range(0..targets.len())],
                TimeOfDay::from_seconds(t).expect("in range by construction"),
            )
        })
        .collect()
}

/// Byte-identity witness that is total over NaN: two answers are the same
/// iff they render identically (a NaN coordinate makes `==` reflexively
/// false while the values are still bit-for-bit equal).
fn rendered<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

/// Compact one-line outcome summary for failure messages: counts and key
/// figures instead of a full `Path`/venue dump.
fn outcome_kind(r: &Result<QueryResult, QueryError>) -> String {
    match r {
        Ok(res) => match &res.path {
            Some(p) => format!("path({} hops, len {:.3})", p.hops.len(), p.length),
            None => "no-route".into(),
        },
        Err(e) => format!("rejected({e:?})"),
    }
}

/// A server with sharing actually engaged (FullRelax).
fn sharing_server(
    graph: &ItGraph,
    method: ServeMethod,
    mode: AsynMode,
    workers: usize,
) -> VenueServer {
    let config = ServerConfig {
        workers,
        // Pinned: the properties range workers over {1, 4} to hunt for
        // scheduling-dependent answers, which requires the pool to really
        // have 4 threads even on a single-core CI host.
        pin_workers: true,
        method,
        itspq: ItspqConfig::full_relax().with_asyn_mode(mode),
        ..ServerConfig::default()
    };
    VenueServer::with_config(graph.clone(), config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Headline parity: shared batch answers are byte-identical to per-query
    /// `try_query` answers — paths, no-routes and typed errors alike — on
    /// skewed batches with malformed queries mixed in.
    #[test]
    fn shared_batch_is_byte_identical_to_try_query(
        seed in 0u64..300,
        size in 1usize..24,
        workers in 1usize..5,
    ) {
        let (graph, pts) = venue_and_points(seed, 8);
        let mut batch = skewed_batch(&pts, seed, size, 2);
        inject_malformed(&mut batch, seed);
        let server = sharing_server(&graph, ServeMethod::Asyn, AsynMode::Exact, workers);
        let shared = server.try_query_batch(&batch);
        prop_assert_eq!(shared.len(), batch.len());
        for (i, (q, got)) in batch.iter().zip(&shared).enumerate() {
            let want = server.try_query(q);
            match (got, want) {
                (Ok(g), Ok(w)) => prop_assert_eq!(
                    rendered(&g.path), rendered(&w.path),
                    "paths diverge at index {} (seed {})", i, seed
                ),
                (Err(g), Err(w)) => prop_assert_eq!(rendered(g), rendered(&w)),
                (g, w) => prop_assert!(
                    false,
                    "outcome mismatch at index {i} (seed {seed}): query {q:?} \
                     got {} want {}",
                    outcome_kind(g), outcome_kind(&w)
                ),
            }
        }
    }

    /// The same parity holds for every engine — including the *stateful*
    /// paper-faithful ITG/A, whose checker cursor must evolve through the
    /// identical door-relaxation sequence in shared and per-query runs.
    #[test]
    fn every_method_shares_without_changing_answers(
        seed in 0u64..200,
        size in 2usize..16,
    ) {
        let (graph, pts) = venue_and_points(seed, 6);
        let batch = skewed_batch(&pts, seed, size, 2);
        for (method, mode) in [
            (ServeMethod::Syn, AsynMode::Exact),
            (ServeMethod::Asyn, AsynMode::Exact),
            (ServeMethod::Asyn, AsynMode::Faithful),
        ] {
            let server = sharing_server(&graph, method, mode, 2);
            let shared = server.try_query_batch(&batch);
            for (i, (q, got)) in batch.iter().zip(&shared).enumerate() {
                let want = server.try_query(q).expect("batch is well-formed");
                let got = got.as_ref().expect("batch is well-formed");
                prop_assert_eq!(
                    &got.path, &want.path,
                    "{:?}/{:?} diverges at index {} (seed {})", method, mode, i, seed
                );
            }
        }
    }

    /// Raw batch answers are independent of the worker count: a batch on
    /// any pool size equals per-query `query` answers.
    #[test]
    fn raw_batch_matches_per_query_on_any_worker_count(
        seed in 0u64..200,
        size in 1usize..20,
        workers in 2usize..6,
    ) {
        let (graph, pts) = venue_and_points(seed, 6);
        let mut batch = skewed_batch(&pts, seed, size, 3);
        // Raw `query_batch` runs malformed queries unvalidated, which must
        // degrade to no-route identically everywhere: a NaN source, and a
        // source and a target in a partition the venue lacks.
        if size >= 3 {
            let unknown = IndoorPoint::new(PartitionId(9_999), itspq_repro::geom::Point::new(1.0, 1.0));
            batch[0].source =
                IndoorPoint::new(batch[0].source.partition, itspq_repro::geom::Point::new(f64::NAN, 1.0));
            batch[1].source = unknown;
            batch[2].target = unknown;
        }
        let server = sharing_server(&graph, ServeMethod::Asyn, AsynMode::Exact, workers);
        let shared = server.query_batch(&batch);
        prop_assert_eq!(shared.len(), batch.len());
        for (i, (q, got)) in batch.iter().zip(&shared).enumerate() {
            prop_assert_eq!(
                rendered(&got.path), rendered(&server.query(q).path),
                "index {} (seed {})", i, seed
            );
        }
    }

    /// The execution report is arithmetically consistent with the plan, and
    /// duplicated sources share exactly where the planner's key allows.
    #[test]
    fn batch_stats_are_consistent(
        seed in 0u64..200,
        size in 4usize..24,
    ) {
        let (graph, pts) = venue_and_points(seed, 6);
        // Keep targets in traversable partitions so every query is
        // shared-eligible; private-target fallbacks are covered by the
        // parity properties above.
        let pts: Vec<IndoorPoint> = pts
            .into_iter()
            .filter(|p| graph.space().partition(p.partition).kind.traversable())
            .collect();
        if pts.len() < 2 {
            return Ok(()); // all-private draw: nothing to group
        }
        // Pool of 1: every query shares one source point (and partition),
        // so a group forms in each checkpoint interval holding at least two
        // of the batch's departures.
        let batch = skewed_batch(&pts, seed, size, 1);
        let checkpoints = graph.space().checkpoints();
        let mut per_interval = std::collections::BTreeMap::new();
        for q in &batch {
            *per_interval
                .entry(checkpoints.interval_index(q.time))
                .or_insert(0usize) += 1;
        }
        let expected_groups = per_interval.values().filter(|&&n| n >= 2).count();
        let server = sharing_server(&graph, ServeMethod::Asyn, AsynMode::Exact, 2);
        let plan = server.plan(&batch, false);
        let (results, stats) = server.query_batch_with_stats(&batch);
        prop_assert_eq!(results.len(), batch.len());
        prop_assert_eq!(stats.queries, batch.len());
        prop_assert_eq!(stats.groups, plan.searches());
        prop_assert_eq!(stats.shared_queries, plan.shared_queries());
        prop_assert_eq!(
            stats.frontier_reuses,
            plan.shared_queries() - plan.shared_groups()
        );
        prop_assert!(stats.groups <= stats.queries);
        prop_assert_eq!(
            plan.shared_groups(), expected_groups,
            "single-source batch of {} (seed {}): {} groups, {} intervals \
             hold two or more departures",
            batch.len(), seed, plan.shared_groups(), expected_groups
        );
        prop_assert_eq!(
            stats.frontier_reuses > 0, expected_groups > 0,
            "single-source batch of {} (seed {}): {} frontier reuses, {} groups expected",
            batch.len(), seed, stats.frontier_reuses, expected_groups
        );
        prop_assert_eq!(stats.sharing_ratio() < 1.0, expected_groups > 0);
    }

    /// The whole report — retimes, fallbacks, views — keeps the batch books
    /// balanced and is independent of the worker count (phase timings, the
    /// one wall-clock part, compared zeroed).
    #[test]
    fn leveled_stats_are_consistent_and_worker_independent(
        seed in 0u64..150,
        size in 4usize..20,
    ) {
        let (graph, pts) = venue_and_points(seed, 6);
        let cluster = partition_clustered_points(&graph, seed, 2, 3);
        prop_assert!(!cluster.is_empty());
        let batch = clustered_batch(&cluster, &pts, seed, size);
        let one = sharing_server(&graph, ServeMethod::Asyn, AsynMode::Exact, 1);
        let four = sharing_server(&graph, ServeMethod::Asyn, AsynMode::Exact, 4);
        let (_, s1) = one.query_batch_with_stats(&batch);
        let (_, s4) = four.query_batch_with_stats(&batch);
        prop_assert!(
            s1.is_consistent(),
            "broke the accounting identity (seed {}): {}", seed, s1
        );
        prop_assert_eq!(
            s1.timings_zeroed(), s4.timings_zeroed(),
            "stats depend on worker count (seed {})", seed
        );
    }

    /// Answering members from a lead that departed minutes earlier (or
    /// later) in the same interval is answer-invisible: byte-identical to
    /// per-query execution for every engine (ITG/S, ITG/A Exact, stateful
    /// ITG/A Faithful) and workers ∈ {1, 4}, on partition-clustered batches
    /// with minute-spread departures, sealed night doors and malformed
    /// queries (NaN source, unknown-partition target) mixed in.
    #[test]
    fn warm_start_sharing_matches_per_query(
        seed in 0u64..150,
        size in 2usize..18,
        worker_sel in 0usize..2,
    ) {
        let workers = [1, 4][worker_sel];
        let (graph, pts) = venue_and_points(seed, 6);
        let cluster = partition_clustered_points(&graph, seed, 2, 3);
        prop_assert!(!cluster.is_empty());
        let mut batch = spread_batch(&cluster, &pts, seed, size);
        inject_malformed(&mut batch, seed);
        for (method, mode) in [
            (ServeMethod::Syn, AsynMode::Exact),
            (ServeMethod::Asyn, AsynMode::Exact),
            (ServeMethod::Asyn, AsynMode::Faithful),
        ] {
            let server = sharing_server(&graph, method, mode, workers);
            let shared = server.try_query_batch(&batch);
            prop_assert_eq!(shared.len(), batch.len());
            for (i, (q, got)) in batch.iter().zip(&shared).enumerate() {
                let want = server.try_query(q);
                prop_assert_eq!(
                    rendered(&got.as_ref().map(|r| &r.path)),
                    rendered(&want.as_ref().map(|r| &r.path)),
                    "warm {:?}/{:?} w{} diverges at index {} (seed {}): \
                     query {:?} got {} want {}",
                    method, mode, workers, i, seed, q,
                    outcome_kind(got), outcome_kind(&want)
                );
            }
        }
    }
}

proptest! {
    // The clustered property mixes every plan outcome (verbatim, retimed,
    // refused and lone points), so it gets the largest case budget.
    #![proptest_config(ProptestConfig::with_cases(72))]

    /// Sharing across door-spread sources and interval-spread departures is
    /// byte-identical to per-query execution for every engine (ITG/S, ITG/A
    /// Exact, stateful ITG/A Faithful) and workers ∈ {1, 4}, on
    /// partition-clustered batches with jittered departures, sealed night
    /// doors and malformed queries (NaN source, unknown-partition target)
    /// mixed in.
    #[test]
    fn door_and_interval_sharing_match_per_query(
        seed in 0u64..150,
        size in 2usize..18,
        worker_sel in 0usize..2,
    ) {
        let workers = [1, 4][worker_sel];
        let (graph, pts) = venue_and_points(seed, 6);
        let cluster = partition_clustered_points(&graph, seed, 2, 3);
        prop_assert!(!cluster.is_empty());
        let mut batch = clustered_batch(&cluster, &pts, seed, size);
        inject_malformed(&mut batch, seed);
        for (method, mode) in [
            (ServeMethod::Syn, AsynMode::Exact),
            (ServeMethod::Asyn, AsynMode::Exact),
            (ServeMethod::Asyn, AsynMode::Faithful),
        ] {
            let server = sharing_server(&graph, method, mode, workers);
            let shared = server.try_query_batch(&batch);
            prop_assert_eq!(shared.len(), batch.len());
            for (i, (q, got)) in batch.iter().zip(&shared).enumerate() {
                let want = server.try_query(q);
                prop_assert_eq!(
                    rendered(&got.as_ref().map(|r| &r.path)),
                    rendered(&want.as_ref().map(|r| &r.path)),
                    "{:?}/{:?} w{} diverges at index {} (seed {}): \
                     query {:?} got {} want {}",
                    method, mode, workers, i, seed, q,
                    outcome_kind(got), outcome_kind(&want)
                );
            }
        }
    }
}
