//! Integration tests over the synthetic evaluation venue: generator
//! statistics, multi-floor routing, query generation and engine agreement at
//! scale.

use std::sync::Arc;

use itspq_repro::core::one_to_many::paths_to_many;
use itspq_repro::core::{baselines, k_shortest_paths, validate_path, AsynMode};
use itspq_repro::geom::Point;
use itspq_repro::prelude::*;
use itspq_repro::synthetic::{
    build_mall, generate_queries, HoursConfig, MallConfig, QueryGenConfig, ShopHours,
};

fn paper_graph(t_size: usize) -> ItGraph {
    let hours = ShopHours::sample(&HoursConfig::default().with_t_size(t_size));
    ItGraph::new(build_mall(&MallConfig::paper_default(), &hours))
}

#[test]
fn default_venue_matches_paper_statistics() {
    let graph = paper_graph(8);
    let stats = graph.space().stats();
    assert_eq!(stats.partitions, 705);
    assert_eq!(stats.doors, 1120);
    assert_eq!(stats.floors, 5);
    // |T| = 8 plus the implicit midnight.
    assert_eq!(stats.checkpoints, 9);
}

#[test]
fn every_t_size_yields_expected_checkpoints() {
    for t in [4usize, 8, 12, 16] {
        let graph = paper_graph(t);
        assert_eq!(
            graph.space().checkpoints().len(),
            t + 1,
            "|T| = {t} plus midnight"
        );
    }
}

#[test]
fn noon_routing_works_and_validates_at_scale() {
    let graph = paper_graph(8);
    let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
    let asyn = AsynEngine::new(graph.clone(), ItspqConfig::default());
    let queries = generate_queries(&graph, &QueryGenConfig::default().with_count(5));
    assert_eq!(queries.len(), 5);
    let mut found = 0;
    for gq in &queries {
        let s = syn.query(&gq.query);
        let a = asyn.query(&gq.query);
        assert_eq!(
            s.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
            a.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
            "ITG/S and ITG/A disagree at noon"
        );
        if let Some(p) = &s.path {
            found += 1;
            validate_path(graph.space(), p, gq.query.time, WALKING_SPEED).unwrap();
            // ITSPQ length can exceed the temporal-oblivious distance but
            // never undercut it.
            assert!(p.length >= gq.realised_distance - 1e-6);
        }
    }
    assert!(
        found >= 4,
        "almost all noon queries should route, got {found}/5"
    );
}

#[test]
fn cross_floor_routes_use_stairs() {
    let graph = paper_graph(8);
    let space = graph.space();
    // A point on floor 0 and one directly above on floor 4.
    let f0 = space
        .partitions()
        .iter()
        .find(|p| p.name == "F0/hall(0,0)")
        .unwrap();
    let f4 = space
        .partitions()
        .iter()
        .find(|p| p.name == "F4/hall(0,0)")
        .unwrap();
    let a = IndoorPoint::new(f0.id, f0.polygon.as_ref().unwrap().centroid());
    let b = IndoorPoint::new(f4.id, f4.polygon.as_ref().unwrap().centroid());
    let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
    let q = Query::new(a, b, TimeOfDay::hm(12, 0));
    let path = syn.query(&q).path.expect("floors are connected");
    validate_path(space, &path, q.time, WALKING_SPEED).unwrap();
    // The route crosses at least 4 stair doors (one per floor transition) and
    // its length includes 4 × 20 m of stairways.
    // 4 up-doors (one per transition) plus entry/exit lobby doors.
    let up_hops = path
        .hops
        .iter()
        .filter(|h| space.door(h.door).name.ends_with("/up"))
        .count();
    assert_eq!(up_hops, 4, "4 floor transitions need 4 up-door hops");
    let lobby_hops = path
        .hops
        .iter()
        .filter(|h| space.door(h.door).name.ends_with("/door"))
        .count();
    assert!(lobby_hops >= 2, "must enter and leave the stairwell");
    // Half flight + 3 full flights + half flight = 80 m of stairway.
    assert!(path.length >= 4.0 * 20.0);
}

#[test]
fn night_shop_queries_fail_fast() {
    let graph = paper_graph(8);
    let space = graph.space();
    let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
    // Two shops on different floors: both closed at 2:00.
    let s1 = space
        .partitions()
        .iter()
        .find(|p| p.name == "F0/shop(0,0)#0")
        .unwrap();
    let s2 = space
        .partitions()
        .iter()
        .find(|p| p.name == "F4/shop(2,2)#3")
        .unwrap();
    let a = IndoorPoint::new(s1.id, s1.polygon.as_ref().unwrap().centroid());
    let b = IndoorPoint::new(s2.id, s2.polygon.as_ref().unwrap().centroid());
    let q = Query::new(a, b, TimeOfDay::hm(2, 0));
    let res = syn.query(&q);
    // The shop's own doors are closed: the search dies at the source.
    assert!(res.path.is_none());
    assert_eq!(res.stats.doors_settled, 0, "source doors closed at 2:00");
    assert!(res.stats.tv_rejections >= 1);
    // The same pair routes fine at noon.
    let noon = syn.query(&Query::new(a, b, TimeOfDay::hm(12, 0)));
    assert!(noon.path.is_some());
}

#[test]
fn hallway_to_hallway_routes_exist_even_at_night() {
    let graph = paper_graph(8);
    let space = graph.space();
    let h1 = space
        .partitions()
        .iter()
        .find(|p| p.name == "F0/hall(0,0)")
        .unwrap();
    let h2 = space
        .partitions()
        .iter()
        .find(|p| p.name == "F0/hall(3,3)")
        .unwrap();
    let a = IndoorPoint::new(h1.id, h1.polygon.as_ref().unwrap().centroid());
    let b = IndoorPoint::new(h2.id, h2.polygon.as_ref().unwrap().centroid());
    let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
    for hour in [2u32, 12, 23] {
        let q = Query::new(a, b, TimeOfDay::hm(hour, 0));
        let path = syn
            .query(&q)
            .path
            .unwrap_or_else(|| panic!("hallways open at {hour}:00"));
        validate_path(space, &path, q.time, WALKING_SPEED).unwrap();
    }
}

#[test]
fn asyn_exact_equals_syn_across_checkpoint_crossings() {
    let graph = paper_graph(8);
    let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
    let exact = AsynEngine::new(
        graph.clone(),
        ItspqConfig::default().with_asyn_mode(AsynMode::Exact),
    );
    // Departures a few minutes before checkpoints force mid-walk crossings.
    for (h, m) in [(8, 50), (9, 55), (16, 55), (19, 50)] {
        let queries = generate_queries(
            &graph,
            &QueryGenConfig::default()
                .with_count(2)
                .with_time(TimeOfDay::hm(h, m))
                .with_seed(7 + u64::from(h)),
        );
        for gq in &queries {
            let s = syn.query(&gq.query).path.map(|p| p.length);
            let x = exact.query(&gq.query).path.map(|p| p.length);
            match (s, x) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "at {h}:{m}: {a} vs {b}"),
                (s, x) => panic!("outcome mismatch at {h}:{m}: {s:?} vs {x:?}"),
            }
        }
    }
}

#[test]
fn faithful_asyn_is_conservative() {
    // AsynMode::Faithful drops relaxations that cross checkpoints, so it may
    // miss paths ITG/S finds, but it must never invent an invalid one, and
    // when both find a path the faithful one is never shorter.
    let graph = paper_graph(8);
    let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
    let faithful = AsynEngine::new(graph.clone(), ItspqConfig::default());
    for (h, m) in [(8, 50), (16, 55), (11, 58)] {
        let queries = generate_queries(
            &graph,
            &QueryGenConfig::default()
                .with_count(2)
                .with_time(TimeOfDay::hm(h, m))
                .with_seed(100 + u64::from(h)),
        );
        for gq in &queries {
            let s = syn.query(&gq.query).path;
            let f = faithful.query(&gq.query).path;
            if let Some(fp) = &f {
                validate_path(graph.space(), fp, gq.query.time, WALKING_SPEED).unwrap();
                let sp = s.as_ref().expect("ITG/S finds a superset of ITG/A paths");
                assert!(fp.length >= sp.length - 1e-9);
            }
        }
    }
}

/// The target-side *touch* (ARCHITECTURE §"Deviations from the paper"):
/// under `FullRelax` a door reached through `P(pt)` still relaxes `pt`, so a
/// route may walk to a door inside the target's partition and turn back
/// without crossing it. In a stair lobby the explicit 10 m half-flight to
/// the up door undercuts the 40 m planar leg from the hallway door, so the
/// touch is the shortest answer. `PaperPruned`, which does not expand a door
/// into `P(pt)`, and the exhaustive oracle, which finishes only in the
/// partition the last door enters, walk the direct leg instead; that is
/// Yen's second path.
#[test]
fn stair_lobby_touch_undercuts_the_direct_leg_under_full_relax() {
    let hours = ShopHours::sample(&HoursConfig::default());
    let graph = ItGraph::shared(build_mall(
        &MallConfig::paper_default()
            .with_floors(2)
            .with_comb_corridors(),
        &hours,
    ));
    let space = graph.space();
    let part = |name: &str| space.partitions().iter().find(|p| p.name == name).unwrap();
    let door = |name: &str| space.doors().iter().find(|d| d.name == name).unwrap().id;
    let (hall, lobby) = (part("F0/vseg(0,1)"), part("F0/stair0"));
    let (entry, up) = (door("F0/stair0/door"), door("F0/stair0/up"));
    let c = lobby.polygon.as_ref().unwrap().centroid();
    let q = Query::new(
        IndoorPoint::new(hall.id, hall.polygon.as_ref().unwrap().centroid()),
        IndoorPoint::new(lobby.id, Point::new(c.x + 1.0, c.y + 1.0)),
        TimeOfDay::hm(12, 0),
    );

    let to_entry = space.point_to_door(&q.source, entry).unwrap();
    let touch = to_entry
        + space.door_to_door(lobby.id, entry, up).unwrap()
        + space.point_to_door(&q.target, up).unwrap();
    let direct = to_entry + space.point_to_door(&q.target, entry).unwrap();
    assert!((touch - 17.41).abs() < 5e-3, "touch {touch}");
    assert!((direct - 45.01).abs() < 5e-3, "direct {direct}");

    let full = ItspqConfig::full_relax();
    let yen = k_shortest_paths(&graph, &q, &full, 2);
    assert_eq!(yen.len(), 2);
    let touches = [
        (
            "ITG/S",
            SynEngine::new(Arc::clone(&graph), full).query(&q).path,
        ),
        (
            "ITG/A-Exact",
            AsynEngine::new(Arc::clone(&graph), full.with_asyn_mode(AsynMode::Exact))
                .query(&q)
                .path,
        ),
        (
            "paths_to_many",
            paths_to_many(&graph, q.source, q.time, &[q.target], &full)
                .paths
                .pop()
                .flatten(),
        ),
        ("Yen's first path", Some(yen[0].clone())),
    ];
    for (name, path) in touches {
        let path = path.unwrap_or_else(|| panic!("{name}: no route"));
        assert_eq!(path.doors().collect::<Vec<_>>(), [entry, up], "{name}");
        assert_eq!(path.length.to_bits(), touch.to_bits(), "{name}");
        validate_path(space, &path, q.time, WALKING_SPEED).unwrap();
    }

    let directs = [
        (
            "PaperPruned",
            SynEngine::new(Arc::clone(&graph), ItspqConfig::default())
                .query(&q)
                .path,
        ),
        (
            "exhaustive",
            baselines::exhaustive_shortest(&graph, &q, &full, 4),
        ),
        ("Yen's second path", Some(yen[1].clone())),
    ];
    for (name, path) in directs {
        let path = path.unwrap_or_else(|| panic!("{name}: no route"));
        assert_eq!(path.doors().collect::<Vec<_>>(), [entry], "{name}");
        assert_eq!(path.length.to_bits(), direct.to_bits(), "{name}");
    }
}

#[test]
fn serde_round_trip_of_generated_venue() {
    let hours = ShopHours::sample(&HoursConfig::default());
    let space = build_mall(&MallConfig::single_floor(), &hours);
    let json = serde_json::to_string(&space).unwrap();
    let back: IndoorSpace = serde_json::from_str(&json).unwrap();
    assert_eq!(space, back);
    // And the restored venue answers queries identically.
    let g1 = ItGraph::new(space);
    let g2 = ItGraph::new(back);
    let queries = generate_queries(
        &g1,
        &QueryGenConfig::default().with_count(2).with_delta(600.0),
    );
    let e1 = SynEngine::new(g1, ItspqConfig::default());
    let e2 = SynEngine::new(g2, ItspqConfig::default());
    for gq in &queries {
        assert_eq!(
            e1.query(&gq.query).path.map(|p| p.length),
            e2.query(&gq.query).path.map(|p| p.length)
        );
    }
}
