//! Property-based tests of the ITSPQ engines on randomised workloads.
//!
//! Venues come from the synthetic generator (tiny mall, randomised ATI seeds)
//! so topology invariants hold by construction; queries draw random endpoints
//! and times. Invariants checked:
//!
//! * ITG/S and ITG/A(Exact) paths always pass the independent rule validator;
//!   ITG/A(Faithful) may break rule 1 only (the paper's documented
//!   unsoundness, see `arrive_too_early.rs`), never rule 2 or topology;
//! * ITG/S ≡ ITG/A(Exact), path for path under both expand policies, with
//!   half the departures just before a checkpoint and some crossing
//!   midnight;
//! * `FullRelax` never returns a longer path than `PaperPruned`;
//! * results are sound w.r.t. the exhaustive oracle: the oracle never loses
//!   to the engine, and proves infeasibility only when the engine agrees;
//! * engines are deterministic; hop bookkeeping is monotone.

use indoor_time::SECONDS_PER_DAY;
use itspq_repro::core::{baselines, validate_path, AsynMode};
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

fn arb_time() -> impl Strategy<Value = TimeOfDay> {
    (0u32..SECONDS_PER_DAY as u32).prop_map(|s| TimeOfDay::from_seconds(f64::from(s)).unwrap())
}

/// A departure for the ITG/S ≡ ITG/A(Exact) parity, by `kind`: `0` and `1`
/// (half of them) fall in the five minutes before checkpoint `pick` of the
/// venue, where ITG/A-Exact must refuse to vouch for the expansions that
/// straddle it; `2` falls after 23:59:00, so that walks cross midnight; `3`
/// falls anywhere in the day. `secs` is a uniform second of the day.
fn parity_time(space: &IndoorSpace, kind: u32, pick: usize, secs: u32) -> TimeOfDay {
    let secs = f64::from(secs);
    let t = match kind {
        0 | 1 => {
            let cps = space.checkpoints().times();
            let before = 1.0 + secs % 300.0;
            (cps[pick % cps.len()].seconds() - before).rem_euclid(SECONDS_PER_DAY)
        }
        2 => SECONDS_PER_DAY - 60.0 + secs % 60.0,
        _ => secs,
    };
    TimeOfDay::from_seconds(t).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ITG/S and the sound ITG/A(Exact) always satisfy both ITSPQ rules.
    /// The paper-faithful ITG/A may violate rule 1 after a premature graph
    /// update (see `arrive_too_early.rs`) but never rule 2 or topology.
    #[test]
    fn engine_paths_always_validate(seed in 0u64..500, t in arb_time()) {
        let (graph, pts) = venue_and_points(seed, 2);
        let q = Query::new(pts[0], pts[1], t);
        for cfg in [ItspqConfig::default(), ItspqConfig::full_relax()] {
            let syn = SynEngine::new(graph.clone(), cfg);
            if let Some(p) = syn.query(&q).path {
                prop_assert!(validate_path(graph.space(), &p, t, cfg.velocity).is_ok(),
                    "invalid ITG/S path (seed {seed}, t {t})");
            }
            let exact = AsynEngine::new(graph.clone(), cfg.with_asyn_mode(AsynMode::Exact));
            if let Some(p) = exact.query(&q).path {
                prop_assert!(validate_path(graph.space(), &p, t, cfg.velocity).is_ok(),
                    "invalid ITG/A(Exact) path (seed {seed}, t {t})");
            }
            let faithful = AsynEngine::new(graph.clone(), cfg);
            if let Some(p) = faithful.query(&q).path {
                match validate_path(graph.space(), &p, t, cfg.velocity) {
                    Ok(()) => {}
                    Err(itspq_repro::core::PathViolation::DoorClosed { .. }) => {
                        // The paper's documented unsoundness: rule 1 only.
                    }
                    Err(v) => prop_assert!(false,
                        "ITG/A(Faithful) broke more than rule 1: {v} (seed {seed}, t {t})"),
                }
            }
        }
    }

    /// ITG/S and ITG/A in Exact mode are interchangeable: the same `Path`,
    /// hop for hop, under both expand policies.
    #[test]
    fn syn_equals_asyn_exact(
        seed in 0u64..500,
        kind in 0u32..4,
        pick in 0usize..64,
        secs in 0u32..SECONDS_PER_DAY as u32,
    ) {
        let (graph, pts) = venue_and_points(seed, 2);
        let t = parity_time(graph.space(), kind, pick, secs);
        let q = Query::new(pts[0], pts[1], t);
        for cfg in [ItspqConfig::default(), ItspqConfig::full_relax()] {
            let syn = SynEngine::new(graph.clone(), cfg).query(&q).path;
            let exact = AsynEngine::new(graph.clone(), cfg.with_asyn_mode(AsynMode::Exact))
                .query(&q)
                .path;
            prop_assert_eq!(syn, exact, "ITG/S and ITG/A(Exact) differ (seed {}, t {}, {:?})",
                seed, t, cfg.expand);
        }
    }

    /// When the paper-faithful ITG/A returns a path that is actually valid,
    /// a full-relaxation ITG/S search must find one at least as short (the
    /// valid relaxations form a superset).
    #[test]
    fn faithful_asyn_valid_paths_are_dominated(seed in 0u64..500, t in arb_time()) {
        let (graph, pts) = venue_and_points(seed, 2);
        let q = Query::new(pts[0], pts[1], t);
        let faithful = AsynEngine::new(graph.clone(), ItspqConfig::default());
        if let Some(fp) = faithful.query(&q).path {
            if validate_path(graph.space(), &fp, t, WALKING_SPEED).is_ok() {
                let full = SynEngine::new(graph.clone(), ItspqConfig::full_relax());
                let sp = full.query(&q).path;
                prop_assert!(sp.is_some(), "valid ITG/A path missed by full ITG/S");
                prop_assert!(fp.length >= sp.unwrap().length - 1e-9);
            }
        }
    }

    /// Full relaxation dominates the paper's pruned expansion.
    #[test]
    fn full_relax_dominates_pruned(seed in 0u64..500, t in arb_time()) {
        let (graph, pts) = venue_and_points(seed, 2);
        let q = Query::new(pts[0], pts[1], t);
        let pruned = SynEngine::new(graph.clone(), ItspqConfig::default()).query(&q).path;
        let full = SynEngine::new(graph.clone(), ItspqConfig::full_relax()).query(&q).path;
        if let Some(p) = &pruned {
            let f = full.as_ref().expect("FullRelax explores a superset");
            prop_assert!(f.length <= p.length + 1e-9,
                "FullRelax {} vs PaperPruned {}", f.length, p.length);
        }
    }

    /// Relation to the exhaustive oracle. The paper's no-waiting semantics
    /// are non-FIFO: a *longer* path can become valid by arriving after a
    /// door opens, and a Dijkstra-style search (the paper's and ours) prunes
    /// it — so the engine may miss paths the oracle finds (the
    /// "arrive-too-early" anomaly, demonstrated deterministically in
    /// `arrive_too_early_anomaly`). The sound half of the relation is an
    /// invariant: whatever the engine finds is valid, so the oracle must find
    /// something at least as short; and if the oracle proves no valid path
    /// exists, the engine cannot find one.
    #[test]
    fn engine_results_are_sound_wrt_oracle(seed in 0u64..200, t in arb_time()) {
        let (graph, pts) = venue_and_points(seed, 2);
        let q = Query::new(pts[0], pts[1], t);
        let cfg = ItspqConfig::full_relax();
        let engine = SynEngine::new(graph.clone(), cfg).query(&q).path;
        let oracle = baselines::exhaustive_shortest(&graph, &q, &cfg, 10);
        if let Some(e) = &engine {
            let o = oracle.as_ref().expect("engine found a valid path; so must the oracle");
            prop_assert!(o.length <= e.length + 1e-6,
                "oracle {} worse than engine {}", o.length, e.length);
        }
        if oracle.is_none() {
            prop_assert!(engine.is_none(), "no valid path exists, engine returned one");
        }
    }

    /// Engines are deterministic functions of (venue, query).
    #[test]
    fn engines_are_deterministic(seed in 0u64..300, t in arb_time()) {
        let (graph, pts) = venue_and_points(seed, 2);
        let q = Query::new(pts[0], pts[1], t);
        let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
        let r1 = syn.query(&q);
        let r2 = syn.query(&q);
        prop_assert_eq!(r1.path, r2.path);
        prop_assert_eq!(r1.stats, r2.stats);
    }

    /// Path hop arrival timestamps increase monotonically and match the
    /// distance/velocity bookkeeping.
    #[test]
    fn hop_arrivals_are_monotone(seed in 0u64..300, t in arb_time()) {
        let (graph, pts) = venue_and_points(seed, 2);
        let q = Query::new(pts[0], pts[1], t);
        let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
        if let Some(p) = syn.query(&q).path {
            let mut last = p.departure;
            for hop in &p.hops {
                prop_assert!(hop.arrival >= last);
                let expect = p.departure + WALKING_SPEED.travel_time(hop.distance);
                prop_assert!((hop.arrival.seconds() - expect.seconds()).abs() < 1e-6);
                last = hop.arrival;
            }
            prop_assert!(p.arrival >= last);
            prop_assert!((p.duration().seconds()
                - WALKING_SPEED.travel_time(p.length).seconds()).abs() < 1e-6);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Waiting invariants: unlimited waiting succeeds whenever the no-wait
    /// engine does, never arrives later, and every crossing happens while the
    /// door is open.
    #[test]
    fn waiting_dominates_no_wait(seed in 0u64..300, t in arb_time()) {
        use itspq_repro::core::waiting::{earliest_arrival, WaitPolicy};
        let (graph, pts) = venue_and_points(seed, 2);
        let q = Query::new(pts[0], pts[1], t);
        let cfg = ItspqConfig::full_relax();
        let engine = SynEngine::new(graph.clone(), cfg).query(&q).path;
        let waited = earliest_arrival(&graph, &q, &cfg, WaitPolicy::Unlimited);
        if let Some(p) = &engine {
            let w = waited.as_ref().expect("waiting explores a superset");
            prop_assert!(w.arrival.seconds() <= p.arrival.seconds() + 1e-6,
                "waiting arrived later ({} vs {})", w.arrival, p.arrival);
        }
        if let Some(w) = &waited {
            for hop in &w.hops {
                prop_assert!(graph.space().door(hop.door).atis.is_open_at(hop.crossed));
                prop_assert!(hop.crossed >= hop.reached);
            }
        }
    }

    /// One-to-many reachability lower-bounds every point query.
    #[test]
    fn reachability_bounds_queries(seed in 0u64..200, t in arb_time()) {
        use itspq_repro::core::one_to_many::reachability;
        let (graph, pts) = venue_and_points(seed, 2);
        let cfg = ItspqConfig::full_relax();
        let map = reachability(&graph, pts[0], t, &cfg);
        let q = Query::new(pts[0], pts[1], t);
        if let Some(p) = SynEngine::new(graph.clone(), cfg).query(&q).path {
            prop_assert!(p.length >= map.to_partition(pts[1].partition) - 1e-9,
                "query {} beat the reachability bound {}",
                p.length, map.to_partition(pts[1].partition));
        }
    }
}
