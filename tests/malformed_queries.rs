//! Regression tests: malformed queries surface as typed [`QueryError`]s —
//! and even unvalidated, a degenerate query must never panic a search.
//!
//! Motivation: the engines run on `VenueServer` worker threads, where a
//! panic poisons the whole batch. A NaN coordinate or an out-of-range
//! partition therefore has to be a *value* on every path: `try_query`
//! rejects it up front, and the raw `query` path (heap ordering, travel-time
//! projection, reconstruction) is total over non-finite distances.

use indoor_geom::Point;
use indoor_space::{paper_example, IndoorPoint, PartitionId};
use indoor_synthetic::{build_mall, HoursConfig, MallConfig, ShopHours};
use indoor_time::{DurationSecs, TimeOfDay};
use itspq_core::one_to_many::{paths_to_many, reachability};
use itspq_core::profile::departure_profile;
use itspq_core::waiting::{earliest_arrival, WaitPolicy};
use itspq_core::{
    baselines, k_shortest_paths, AsynEngine, AsynMode, ItGraph, ItspqConfig, Query, QueryError,
    ServerConfig, SynEngine, VenueServer,
};

fn nan_query(ex: &paper_example::PaperExample) -> Query {
    let src = IndoorPoint::new(ex.p3.partition, Point::new(f64::NAN, 2.0));
    Query::new(src, ex.p4, TimeOfDay::hm(12, 0))
}

#[test]
fn syn_try_query_rejects_nan_source() {
    let ex = paper_example::build();
    let engine = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let err = engine.try_query(&nan_query(&ex)).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::NonFinitePosition {
                endpoint: "source",
                ..
            }
        ),
        "unexpected error: {err:?}"
    );
    // The error formats usefully.
    assert!(err.to_string().contains("source"));
}

#[test]
fn asyn_try_query_rejects_infinite_target() {
    let ex = paper_example::build();
    let engine = AsynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let bad = IndoorPoint::new(ex.p4.partition, Point::new(f64::INFINITY, 0.0));
    let err = engine
        .try_query(&Query::new(ex.p3, bad, TimeOfDay::hm(12, 0)))
        .unwrap_err();
    assert!(matches!(
        err,
        QueryError::NonFinitePosition {
            endpoint: "target",
            ..
        }
    ));
}

#[test]
fn try_query_rejects_unknown_partition() {
    let ex = paper_example::build();
    let engine = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let bad = IndoorPoint::new(PartitionId(9_999), Point::new(1.0, 1.0));
    let err = engine
        .try_query(&Query::new(ex.p3, bad, TimeOfDay::hm(12, 0)))
        .unwrap_err();
    match err {
        QueryError::UnknownPartition {
            endpoint,
            index,
            num_partitions,
        } => {
            assert_eq!(endpoint, "target");
            assert_eq!(index, 9_999);
            assert_eq!(num_partitions, ex.space.num_partitions());
        }
        other => panic!("unexpected error: {other:?}"),
    }
}

#[test]
fn try_query_accepts_well_formed_queries() {
    let ex = paper_example::build();
    let engine = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let res = engine
        .try_query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)))
        .expect("well-formed query");
    assert!((res.path.expect("feasible at 9:00").length - 12.0).abs() < 1e-9);
}

#[test]
fn server_try_query_rejects_without_poisoning() {
    let ex = paper_example::build();
    let server = VenueServer::new(ItGraph::shared(ex.space.clone()));
    assert!(server.try_query(&nan_query(&ex)).is_err());
    // The server still answers well-formed queries afterwards.
    let ok = server
        .try_query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)))
        .expect("well-formed query");
    assert!(ok.path.is_some());
}

#[test]
fn unvalidated_nan_query_degrades_to_no_route_not_panic() {
    // Even bypassing validation, a NaN coordinate must not panic the search:
    // NaN distances lose every relaxation contest under the total order, so
    // the expansion simply never leaves the source partition.
    let ex = paper_example::build();
    let syn = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let asyn = AsynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let q = nan_query(&ex);
    assert!(syn.query(&q).path.is_none());
    assert!(asyn.query(&q).path.is_none());
}

#[test]
fn unvalidated_infinite_query_degrades_to_no_route_not_panic() {
    // An infinite coordinate projects an infinite travel time; the saturating
    // projection keeps it a value and `inf < inf` never improves a label.
    let ex = paper_example::build();
    let syn = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
    let src = IndoorPoint::new(ex.p3.partition, Point::new(f64::INFINITY, 2.0));
    let res = syn.query(&Query::new(src, ex.p4, TimeOfDay::hm(12, 0)));
    assert!(res.path.is_none());
}

#[test]
fn ksp_and_reachability_survive_nan_input() {
    let ex = paper_example::build();
    let g = ItGraph::new(ex.space.clone());
    let q = nan_query(&ex);
    assert!(itspq_core::k_shortest_paths(&g, &q, &ItspqConfig::full_relax(), 3).is_empty());
    let map = itspq_core::one_to_many::reachability(
        &g,
        q.source,
        TimeOfDay::hm(12, 0),
        &ItspqConfig::default(),
    );
    // Only the (degenerate) source partition is "reachable" at distance 0.
    assert_eq!(map.reachable_partitions(), 1);
}

/// A point in a partition the paper example does not have.
fn nowhere() -> IndoorPoint {
    IndoorPoint::new(PartitionId(9_999), Point::new(1.0, 1.0))
}

#[test]
fn every_entry_point_answers_an_unknown_partition_with_no_route() {
    // `Query::validate` refuses these; run raw, each entry point gives its
    // no-route value instead of indexing past the venue's tables.
    let ex = paper_example::build();
    let graph = ItGraph::shared(ex.space.clone());
    let at = TimeOfDay::hm(9, 0);
    let window = (TimeOfDay::hm(8, 0), TimeOfDay::hm(10, 0));
    let step = DurationSecs::new(60.0).unwrap();
    for config in [ItspqConfig::default(), ItspqConfig::full_relax()] {
        let server = VenueServer::with_config(
            graph.clone(),
            ServerConfig {
                itspq: config.with_asyn_mode(AsynMode::Exact),
                ..ServerConfig::default()
            },
        );
        let syn = SynEngine::new(graph.clone(), config);
        let asyn = AsynEngine::new(graph.clone(), config);
        for q in [
            Query::new(nowhere(), ex.p4, at),
            Query::new(ex.p3, nowhere(), at),
        ] {
            let fine = Query::new(ex.p3, ex.p4, at);
            assert!(server.query(&q).path.is_none(), "{q:?}");
            let batch = server.query_batch(&[q, fine, q]);
            assert!(batch[0].path.is_none() && batch[2].path.is_none(), "{q:?}");
            assert!(batch[1].path.is_some(), "{q:?}");
            assert!(syn.query(&q).path.is_none(), "{q:?}");
            assert!(asyn.query(&q).path.is_none(), "{q:?}");
            assert!(baselines::static_shortest_path(&graph, &q, &config)
                .path
                .is_none());
            assert!(baselines::snapshot_shortest_path(&graph, &q, &config)
                .path
                .is_none());
            assert!(baselines::exhaustive_shortest(&graph, &q, &config, 8).is_none());
            assert!(k_shortest_paths(&graph, &q, &config, 3).is_empty());
            assert!(earliest_arrival(&graph, &q, &config, WaitPolicy::Unlimited).is_none());
            let many = paths_to_many(&graph, q.source, at, &[q.target, ex.p2], &config);
            assert!(many.paths[0].is_none(), "{q:?}");
            // The known target keeps its answer beside an unknown one.
            assert_eq!(many.paths[1].is_some(), q.source == ex.p3, "{q:?}");
            let profile = departure_profile(
                &graph, q.source, q.target, window.0, window.1, step, &config,
            );
            assert!(!profile.points.is_empty());
            assert!(profile.points.iter().all(|p| p.length.is_none()), "{q:?}");
        }
        let map = reachability(&graph, nowhere(), at, &config);
        assert_eq!(map.reachable_partitions(), 0);
        assert!(map.door_distance.iter().all(|d| d.is_infinite()));
    }
    let doors = baselines::door_distances(&graph, &nowhere());
    assert_eq!(doors.len(), ex.space.num_doors());
    assert!(doors.iter().all(|d| d.is_infinite()));
}

#[test]
fn an_unknown_target_ends_a_long_sweep_without_a_route() {
    // On a venue large enough for a `FullRelax` sweep to switch to landmark
    // order, whose bound reads the target's partition.
    let hours = ShopHours::sample(&HoursConfig::default());
    let space = build_mall(&MallConfig::single_floor(), &hours);
    let graph = ItGraph::shared(space);
    let from = graph.space().partitions()[0].id;
    let corner = graph.space().partitions()[0]
        .polygon
        .as_ref()
        .unwrap()
        .centroid();
    let q = Query::new(
        IndoorPoint::new(from, corner),
        nowhere(),
        TimeOfDay::hm(12, 0),
    );
    let config = ItspqConfig::full_relax();
    assert!(SynEngine::new(graph.clone(), config)
        .query(&q)
        .path
        .is_none());
    assert!(k_shortest_paths(&graph, &q, &config, 2).is_empty());
}

#[test]
fn an_inverted_profile_window_is_empty() {
    let ex = paper_example::build();
    let graph = ItGraph::new(ex.space.clone());
    let profile = departure_profile(
        &graph,
        ex.p3,
        ex.p4,
        TimeOfDay::hm(10, 0),
        TimeOfDay::hm(9, 0),
        DurationSecs::new(60.0).unwrap(),
        &ItspqConfig::default(),
    );
    assert!(profile.points.is_empty());
    assert!(profile.best().is_none());
}
