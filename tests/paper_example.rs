//! Integration tests over the paper's running example (Figure 1, Table I,
//! Example 1 and the §II-A mapping examples), exercised through the public
//! umbrella API.

use itspq_repro::core::{baselines, validate_path, AsynMode, ExpandPolicy};
use itspq_repro::prelude::*;
use itspq_repro::space::paper_example;

fn engines() -> (paper_example::PaperExample, SynEngine, AsynEngine) {
    let ex = paper_example::build();
    let graph = ItGraph::new(ex.space.clone());
    let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
    let asyn = AsynEngine::new(graph, ItspqConfig::default());
    (ex, syn, asyn)
}

#[test]
fn example1_morning_query_returns_d18_path() {
    let (ex, syn, asyn) = engines();
    let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0));
    for (name, res) in [("ITG/S", syn.query(&q)), ("ITG/A", asyn.query(&q))] {
        let path = res
            .path
            .unwrap_or_else(|| panic!("{name}: path must exist at 9:00"));
        assert_eq!(
            path.doors().collect::<Vec<_>>(),
            vec![ex.d(18)],
            "{name}: Example 1 expects (p3, d18, p4)"
        );
        assert!((path.length - 12.0).abs() < 1e-9, "{name}: length 12 m");
        validate_path(&ex.space, &path, q.time, WALKING_SPEED).expect("valid path");
        // The queue's high-water mark: at least one entry, never more than
        // were pushed.
        let s = res.stats;
        assert!(
            0 < s.peak_heap && s.peak_heap <= s.heap_pushes,
            "{name}: peak queue {} vs {} pushes",
            s.peak_heap,
            s.heap_pushes
        );
    }
}

#[test]
fn example1_night_query_has_no_route() {
    let (ex, syn, asyn) = engines();
    let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30));
    assert!(syn.query(&q).path.is_none(), "ITG/S: d18 closed at 23:30");
    assert!(asyn.query(&q).path.is_none(), "ITG/A: d18 closed at 23:30");
}

#[test]
fn example1_shortcut_is_used_when_v15_is_not_private() {
    // Counterfactual: rebuild the example with v15 public; the 10 m shortcut
    // through d15/d16 must win at 9:00 (both doors open from 8:00).
    use itspq_repro::space::Connection;
    let ex = paper_example::build();
    let mut b = VenueBuilder::new();
    // Rebuild only the Example-1 cluster: v13, v14, v15 (public this time).
    let v13 = b.add_partition("v13", PartitionKind::Public);
    let v14 = b.add_partition("v14", PartitionKind::Public);
    let v15 = b.add_partition("v15-public", PartitionKind::Public);
    let d15 = b.add_door(
        "d15",
        DoorKind::Public,
        ex.space.door(ex.d(15)).atis.clone(),
        ex.space.door(ex.d(15)).position,
    );
    let d16 = b.add_door(
        "d16",
        DoorKind::Public,
        ex.space.door(ex.d(16)).atis.clone(),
        ex.space.door(ex.d(16)).position,
    );
    let d18 = b.add_door(
        "d18",
        DoorKind::Public,
        ex.space.door(ex.d(18)).atis.clone(),
        ex.space.door(ex.d(18)).position,
    );
    b.connect(d15, Connection::TwoWay(v13, v15)).unwrap();
    b.connect(d16, Connection::TwoWay(v15, v14)).unwrap();
    b.connect(d18, Connection::TwoWay(v13, v14)).unwrap();
    let space = b.build().unwrap();
    let engine = SynEngine::new(ItGraph::new(space), ItspqConfig::default());
    let q = Query::new(
        IndoorPoint::new(v13, ex.p3.position),
        IndoorPoint::new(v14, ex.p4.position),
        TimeOfDay::hm(9, 0),
    );
    let path = engine.query(&q).path.unwrap();
    assert_eq!(path.doors().collect::<Vec<_>>(), vec![d15, d16]);
    assert!((path.length - 10.0).abs() < 1e-9);
}

#[test]
fn all_paper_mapping_examples_hold() {
    let (ex, _, _) = engines();
    let s = &ex.space;
    assert_eq!(s.d2p(ex.d(3)), vec![ex.v(3), ex.v(16)]);
    assert_eq!(s.d2p_leaveable(ex.d(3)), &[ex.v(3)]);
    assert_eq!(s.d2p_enterable(ex.d(3)), &[ex.v(16)]);
    let doors = |ns: &[u32]| ns.iter().map(|&n| ex.d(n)).collect::<Vec<_>>();
    assert_eq!(s.p2d(ex.v(3)), doors(&[1, 2, 3, 5, 6]));
    assert_eq!(s.p2d_leaveable(ex.v(3)), doors(&[1, 2, 3, 5, 6]));
    assert_eq!(s.p2d_enterable(ex.v(3)), doors(&[1, 2, 5, 6]));
}

#[test]
fn one_way_d3_is_never_crossed_backwards() {
    // Any route into v3's cluster from the lower hallways must avoid d3
    // (it only opens v3 -> v16).
    let (ex, syn, _) = engines();
    let from = IndoorPoint::new(ex.v(16), itspq_repro::geom::Point::new(7.0, 26.0));
    let to = ex.p1; // in v3
    let q = Query::new(from, to, TimeOfDay::hm(12, 0));
    let path = syn.query(&q).path.expect("v3 reachable the long way");
    // d3 may appear only if crossed v3 -> v16, impossible here (we start in
    // v16 and end in v3), so it must not appear at all.
    assert!(path.doors().all(|d| d != ex.d(3)));
    validate_path(&ex.space, &path, q.time, WALKING_SPEED).unwrap();
}

#[test]
fn engines_agree_on_a_time_sweep() {
    let (ex, syn, _) = engines();
    let asyn_exact = AsynEngine::new(
        ItGraph::new(ex.space.clone()),
        ItspqConfig::default().with_asyn_mode(AsynMode::Exact),
    );
    let pairs = [
        (ex.p1, ex.p2),
        (ex.p2, ex.p3),
        (ex.p3, ex.p1),
        (ex.p4, ex.p2),
    ];
    for hour in 0..24 {
        for (a, b) in pairs {
            let q = Query::new(a, b, TimeOfDay::hm(hour, 0));
            let s = syn.query(&q).path.map(|p| p.length);
            let x = asyn_exact.query(&q).path.map(|p| p.length);
            match (s, x) {
                (None, None) => {}
                (Some(ls), Some(lx)) => assert!(
                    (ls - lx).abs() < 1e-9,
                    "ITG/S {ls} vs ITG/A(Exact) {lx} at {hour}:00"
                ),
                (s, x) => panic!("outcome mismatch at {hour}:00: {s:?} vs {x:?}"),
            }
        }
    }
}

#[test]
fn full_relax_never_longer_than_paper_pruned() {
    let (ex, _, _) = engines();
    let graph = ItGraph::new(ex.space.clone());
    let pruned = SynEngine::new(graph.clone(), ItspqConfig::default());
    let full = SynEngine::new(
        graph,
        ItspqConfig::default().with_expand(ExpandPolicy::FullRelax),
    );
    let pairs = [
        (ex.p1, ex.p2),
        (ex.p2, ex.p4),
        (ex.p3, ex.p2),
        (ex.p1, ex.p4),
    ];
    for hour in [6u32, 9, 12, 15, 18, 21] {
        for (a, b) in pairs {
            let q = Query::new(a, b, TimeOfDay::hm(hour, 0));
            let lp = pruned.query(&q).path.map(|p| p.length);
            let lf = full.query(&q).path.map(|p| p.length);
            if let (Some(lp), Some(lf)) = (lp, lf) {
                assert!(
                    lf <= lp + 1e-9,
                    "FullRelax ({lf}) must not exceed PaperPruned ({lp}) at {hour}:00"
                );
            }
            if lp.is_some() {
                assert!(lf.is_some(), "FullRelax explores a superset at {hour}:00");
            }
        }
    }
}

#[test]
fn exhaustive_oracle_matches_full_relax_on_example() {
    let (ex, _, _) = engines();
    let graph = ItGraph::new(ex.space.clone());
    let cfg = ItspqConfig::full_relax();
    let engine = SynEngine::new(graph.clone(), cfg);
    let pairs = [(ex.p1, ex.p2), (ex.p3, ex.p4), (ex.p2, ex.p1)];
    for hour in [7u32, 9, 12, 17, 22] {
        for (a, b) in pairs {
            let q = Query::new(a, b, TimeOfDay::hm(hour, 0));
            let oracle = baselines::exhaustive_shortest(&graph, &q, &cfg, 12);
            let engine_path = engine.query(&q).path;
            match (&oracle, &engine_path) {
                (None, None) => {}
                (Some(o), Some(e)) => assert!(
                    (o.length - e.length).abs() < 1e-6,
                    "oracle {} vs engine {} at {hour}:00",
                    o.length,
                    e.length
                ),
                _ => panic!(
                    "oracle/engine outcome mismatch at {hour}:00: {:?} vs {:?}",
                    oracle.map(|p| p.length),
                    engine_path.map(|p| p.length)
                ),
            }
        }
    }
}

#[test]
fn static_baseline_uses_paths_that_itspq_rejects_at_night() {
    let (ex, syn, _) = engines();
    let graph = ItGraph::new(ex.space.clone());
    let cfg = ItspqConfig::default();
    let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30));
    let static_path = baselines::static_shortest_path(&graph, &q, &cfg)
        .path
        .expect("static routing ignores closing times");
    assert!(validate_path(&ex.space, &static_path, q.time, WALKING_SPEED).is_err());
    assert!(syn.query(&q).path.is_none());
}

#[test]
fn query_results_report_plausible_stats() {
    let (ex, syn, asyn) = engines();
    let q = Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0));
    let s = syn.query(&q);
    let a = asyn.query(&q);
    assert!(s.stats.doors_settled >= s.path.as_ref().map_or(0, |p| p.hops.len()));
    assert!(s.stats.heap_pops >= s.stats.doors_settled);
    assert!(s.stats.tv_checks >= s.stats.tv_rejections);
    assert!(a.stats.reduced_graph_bytes > 0, "ITG/A accounts its views");
    assert_eq!(s.stats.reduced_graph_bytes, 0, "ITG/S has no views");
}
