//! Named regression pins for shared execution.
//!
//! A `Shared` group is one multi-target sweep from one source point: its
//! members are answered verbatim or by a retime of the lead's path (always
//! for a target in the source's partition, else under the margin
//! certificate), else by their own search.
//! Each test constructs one specific edge case — a source exactly on a
//! door, a zero-length source leg on the *lead*, a sealed source door at
//! departure — and pins the batch answer against per-query `try_query`,
//! byte for byte. The `warm_` pins mix members that depart at another
//! instant than their lead with queries from other points of the
//! partition, which plan as searches of their own: a frontier sealed at
//! the member's departure, a lone pair from two points, a source on a door
//! other sweeps settle, and a member submitted ahead of an
//! earlier-departing lead.
//!
//! `member_arriving_after_a_closing_takes_its_own_verdict` builds its own
//! venue so that the retime certificate alone decides the answer: a door
//! closes between the lead's and a member's arrivals, so the margin must
//! refuse the retime.
//!
//! A second group of tests pins the planner's key (one source point and
//! checkpoint interval per group) and the `BatchStats` bookkeeping
//! invariants: the accounting identity, view-count monotonicity versus
//! independent execution, and worker-count independence of the whole
//! report.

use itspq_repro::core::server::BatchStrategy;
use itspq_repro::core::{AsynMode, QueryResult};
use itspq_repro::prelude::*;
use itspq_repro::space::{paper_example, Connection};

/// A paper-example server with sharing engaged (FullRelax) under `strategy`.
fn server(ex: &paper_example::PaperExample, strategy: BatchStrategy) -> VenueServer {
    let config = ServerConfig {
        strategy,
        itspq: ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact),
        ..ServerConfig::default()
    };
    VenueServer::with_config(ItGraph::shared(ex.space.clone()), config)
}

/// Byte-identity pin: the batch answer for every query must render exactly
/// like its per-query answer (Debug rendering keeps NaN comparisons total).
fn assert_pinned(server: &VenueServer, batch: &[Query], what: &str) {
    let got = server.try_query_batch(batch);
    assert_eq!(got.len(), batch.len());
    for (i, (q, g)) in batch.iter().zip(&got).enumerate() {
        let want = server.try_query(q);
        assert_eq!(
            format!("{:?}", g.as_ref().map(|r| &r.path)),
            format!("{:?}", want.as_ref().map(|r| &r.path)),
            "{what}: batch index {i} diverges from per-query ({q:?})"
        );
    }
}

fn result_found(r: &Result<QueryResult, QueryError>) -> bool {
    matches!(r, Ok(res) if res.path.is_some())
}

#[test]
fn source_exactly_on_a_door_matches_per_query() {
    // Two queries whose source sits bitwise on d18's position: their group's
    // source leg to d18 is exactly 0.0 long.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::Shared);
    let on_door = IndoorPoint::new(ex.p3.partition, ex.space.door(ex.d(18)).position);
    let nine = TimeOfDay::hm(9, 0);
    let batch = vec![
        Query::new(ex.p3, ex.p4, nine),
        Query::new(on_door, ex.p4, nine),
        Query::new(on_door, ex.p2, nine),
        Query::new(ex.p3, ex.p1, nine),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!(
        (plan.shared_groups(), plan.shared_queries()),
        (2, 4),
        "each source point must plan into a group of its own"
    );
    assert_pinned(&srv, &batch, "source on door");
    // The on-door queries do find routes (0-length first leg, not rejected).
    let got = srv.try_query_batch(&batch);
    assert!(result_found(&got[1]) && result_found(&got[2]));
}

#[test]
fn lead_with_zero_length_source_leg_matches_per_query() {
    // The on-door group's *lead* (its earliest departure) starts exactly on
    // d18, so its sweep's source leg to d18 is 0.0 long, and its 9:45 member
    // is retimed from that sweep.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::Shared);
    let on_door = IndoorPoint::new(ex.p3.partition, ex.space.door(ex.d(18)).position);
    let batch = vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 30)),
        Query::new(on_door, ex.p2, TimeOfDay::hm(9, 0)), // earliest: the lead
        Query::new(ex.p3, ex.p1, TimeOfDay::hm(10, 15)),
        Query::new(on_door, ex.p4, TimeOfDay::hm(9, 45)),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!(plan.shared_groups(), 2);
    assert_pinned(&srv, &batch, "zero-length lead source leg");
    let (_, stats) = srv.query_batch_with_stats(&batch);
    assert_eq!((stats.retimed, stats.fallbacks), (2, 0), "{stats}");
}

#[test]
fn source_door_sealed_at_departure_matches_per_query() {
    // 23:30: d18 is sealed (Example 1's night case), so the group search
    // rejects relaxations and finds genuine no-routes; the members from the
    // other p3 point must reach the identical verdicts.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::Shared);
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let night = TimeOfDay::hm(23, 30);
    let batch = vec![
        Query::new(ex.p3, ex.p4, night),
        Query::new(elsewhere, ex.p4, night),
        Query::new(elsewhere, ex.p2, night),
    ];
    assert_pinned(&srv, &batch, "sealed source door");
    // The sealed door really does make the p3→p4 legs unroutable.
    let got = srv.try_query_batch(&batch);
    assert!(!result_found(&got[0]) && !result_found(&got[1]));
}

fn indoor_geom_point(x: f64, y: f64) -> itspq_repro::geom::Point {
    itspq_repro::geom::Point::new(x, y)
}

/// A mixed batch exercising every plan outcome: exact duplicates, a source
/// elsewhere in p3 (its own search), an interval-spread departure (retimed),
/// a private-partition fallback and a singleton.
fn mixed_batch(ex: &paper_example::PaperExample) -> Vec<Query> {
    let other = IndoorPoint::new(ex.p3.partition, indoor_geom_point(2.0, 1.5));
    let private = IndoorPoint::new(ex.v(15), indoor_geom_point(5.0, 0.0));
    vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)), // exact duplicate
        Query::new(other, ex.p2, TimeOfDay::hm(9, 0)), // another point: own search
        Query::new(ex.p3, ex.p1, TimeOfDay::hm(9, 40)), // interval-spread: retimed
        Query::new(ex.p3, private, TimeOfDay::hm(9, 0)), // private: fallback
        Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)), // singleton
    ]
}

#[test]
fn stats_invariants_hold_at_every_level() {
    let ex = paper_example::build();
    for strategy in [BatchStrategy::Independent, BatchStrategy::Shared] {
        let srv = server(&ex, strategy);
        let (_, stats) = srv.query_batch_with_stats(&mixed_batch(&ex));
        assert!(
            stats.is_consistent(),
            "{strategy:?} broke groups + frontier_reuses == queries - rejected: {stats}"
        );
        assert!(stats.replayed + stats.retimed <= stats.frontier_reuses);
    }
}

#[test]
fn shared_views_never_exceed_independent_views() {
    let ex = paper_example::build();
    let (_, independent) =
        server(&ex, BatchStrategy::Independent).query_batch_with_stats(&mixed_batch(&ex));
    let (_, shared) = server(&ex, BatchStrategy::Shared).query_batch_with_stats(&mixed_batch(&ex));
    assert!(
        shared.views_built <= independent.views_built,
        "shared built {} views, independent built {}",
        shared.views_built,
        independent.views_built
    );
}

/// Runs `batch` under `Shared` on a serial and a 4-worker server, asserts
/// the whole non-timing report and every answer are equal between them, and
/// returns the serial report.
fn assert_worker_independent(ex: &paper_example::PaperExample, batch: &[Query]) -> BatchStats {
    // Pinned so the 4-worker run really threads even on a 1-core host;
    // timings are measured wall-clock and are the one legitimately
    // nondeterministic part of the report, so compare them zeroed.
    let (r1, s1) = server(ex, BatchStrategy::Shared)
        .with_pinned_workers(1)
        .query_batch_with_stats(batch);
    let (r4, s4) = server(ex, BatchStrategy::Shared)
        .with_pinned_workers(4)
        .query_batch_with_stats(batch);
    assert_eq!(
        s1.timings_zeroed(),
        s4.timings_zeroed(),
        "stats depend on worker count"
    );
    for (a, b) in r1.iter().zip(&r4) {
        assert_eq!(a.path, b.path, "answers depend on worker count");
    }
    s1
}

#[test]
fn stats_are_identical_across_worker_counts() {
    // The planner groups through an ordered map keyed by (partition,
    // interval, source point); this pin holds the whole non-timing report
    // equal between a serial and a 4-worker run of the mixed batch.
    let ex = paper_example::build();
    let stats = assert_worker_independent(&ex, &mixed_batch(&ex));
    assert!(stats.frontier_reuses > 0, "batch must share: {stats}");
}

#[test]
fn warm_start_stats_are_identical_across_worker_counts() {
    // The same pin on a batch whose p3 queries leave three points at spread
    // instants of one interval: only the pair from (1, 1) shares a search,
    // and the retime count must not depend on which worker runs which item.
    let ex = paper_example::build();
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let far = IndoorPoint::new(ex.p3.partition, indoor_geom_point(2.5, 0.5));
    let batch = vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
        Query::new(elsewhere, ex.p2, TimeOfDay::hm(9, 20)),
        Query::new(far, ex.p4, TimeOfDay::hm(9, 40)),
        Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)),
        Query::new(elsewhere, ex.p4, TimeOfDay::hm(9, 5)),
    ];
    let stats = assert_worker_independent(&ex, &batch);
    assert_eq!(
        (stats.groups, stats.retimed, stats.fallbacks),
        (4, 1, 0),
        "the 9:20 member from (1, 1) is retimed, the rest search: {stats}"
    );
}

#[test]
fn warm_donor_fully_sealed_at_member_departure_matches_per_query() {
    // 23:30: d18 is sealed, so a frontier from p3 dies immediately (every
    // p3 exit rejected). The 23:40 member from (1, 1) is derived from its
    // 23:30 lead's dead frontier and must reach the identical "no such
    // routes" verdict — or fall back — never a phantom route.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::Shared);
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let far = IndoorPoint::new(ex.p3.partition, indoor_geom_point(2.5, 0.5));
    let batch = vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)),
        Query::new(elsewhere, ex.p2, TimeOfDay::hm(23, 30)),
        Query::new(far, ex.p4, TimeOfDay::hm(23, 40)),
        Query::new(elsewhere, ex.p4, TimeOfDay::hm(23, 40)),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!(
        (plan.shared_groups(), plan.searches()),
        (1, 3),
        "only the pair from (1, 1) must plan behind one lead"
    );
    assert_pinned(&srv, &batch, "sealed lead frontier");
    let got = srv.try_query_batch(&batch);
    assert!(
        !result_found(&got[0]) && !result_found(&got[2]),
        "d18 sealed: the p4 legs must be unroutable"
    );
    let (_, stats) = srv.query_batch_with_stats(&batch);
    assert!(stats.is_consistent(), "{stats}");
    assert_eq!((stats.retimed, stats.fallbacks), (1, 0), "{stats}");
}

#[test]
fn warm_merged_singletons_donate_an_empty_frontier_delta() {
    // Two lone queries from distinct p3 points at distinct instants of one
    // interval: they share a partition and an interval but no point, so no
    // frontier is donated and each runs its own search.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::Shared);
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let batch = vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
        Query::new(elsewhere, ex.p2, TimeOfDay::hm(9, 20)),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!(plan.searches(), 2, "the two lone queries must plan apart");
    assert_eq!(plan.shared_queries(), 0);
    assert_pinned(&srv, &batch, "lone pair");
    let (_, stats) = srv.query_batch_with_stats(&batch);
    assert!(stats.is_consistent(), "{stats}");
    assert_eq!(
        (stats.frontier_reuses, stats.retimed, stats.fallbacks),
        (0, 0, 0),
        "{stats}"
    );
}

#[test]
fn warm_member_source_on_a_donated_settled_door_matches_per_query() {
    // The 9:20 pair starts bitwise on d18's position — a door the 9:00
    // sweeps from p3 settle. Their own group's sweep takes a 0.0-length
    // source leg onto it; the answers must still be byte-for-byte
    // per-query.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::Shared);
    let on_door = IndoorPoint::new(ex.p3.partition, ex.space.door(ex.d(18)).position);
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let batch = vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
        Query::new(elsewhere, ex.p2, TimeOfDay::hm(9, 0)),
        Query::new(on_door, ex.p4, TimeOfDay::hm(9, 20)),
        Query::new(on_door, ex.p1, TimeOfDay::hm(9, 20)),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!((plan.shared_groups(), plan.searches()), (1, 3));
    assert_pinned(&srv, &batch, "member source on a settled door");
    let got = srv.try_query_batch(&batch);
    assert!(result_found(&got[2]) && result_found(&got[3]));
    let (_, stats) = srv.query_batch_with_stats(&batch);
    assert!(stats.is_consistent(), "{stats}");
}

#[test]
fn warm_earlier_departing_seeded_member_matches_per_query() {
    // The 9:05 pair is submitted after the 9:20 trio, and each of them
    // leaves from a source point of the trio: the planner must rotate the
    // earliest departure to each group's lead so no member is retimed
    // through the saturating-to-zero timestamp delta of an earlier
    // departure. Retime or fallback answer the 9:20 members, byte-for-byte.
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::Shared);
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let far = IndoorPoint::new(ex.p3.partition, indoor_geom_point(2.5, 0.5));
    let batch = vec![
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 20)),
        Query::new(elsewhere, ex.p2, TimeOfDay::hm(9, 20)),
        Query::new(far, ex.p1, TimeOfDay::hm(9, 20)),
        Query::new(ex.p3, ex.p2, TimeOfDay::hm(9, 5)), // earlier, same point as the first
        Query::new(elsewhere, ex.p4, TimeOfDay::hm(9, 5)),
    ];
    let plan = srv.plan(&batch, false);
    assert_eq!(
        (plan.shared_groups(), plan.searches()),
        (2, 3),
        "two points recur in the interval, the third is alone"
    );
    assert_pinned(&srv, &batch, "earlier-departing member");
    let (_, stats) = srv.query_batch_with_stats(&batch);
    assert!(stats.is_consistent(), "{stats}");
    assert_eq!((stats.retimed, stats.fallbacks), (2, 0), "{stats}");
}

#[test]
fn member_arriving_after_a_closing_takes_its_own_verdict() {
    // Door `d` closes at 10:00, the only checkpoint after midnight, so a
    // 9:00 lead and a 9:59:30 member at its point share one interval. The
    // lead crosses `d` at 9:01; the member would reach it at 10:00:41 and
    // must detour through `e`. Its 59.5 min shift exceeds the smallest
    // margin any of the lead's checked arrivals has to 10:00, so the retime
    // certificate must refuse it and send it to its own search. The
    // 9:59:30 query from another point plans as a search of its own.
    let mut b = VenueBuilder::new();
    let hall = b.add_partition("hall", PartitionKind::Public);
    let room = b.add_partition("room", PartitionKind::Public);
    let mut door = |name: &str, atis: AtiList, x: f64, y: f64| {
        let d = b.add_door(name, DoorKind::Public, atis, indoor_geom_point(x, y));
        b.connect(d, Connection::TwoWay(hall, room))
            .expect("fresh door between known partitions");
        d
    };
    let d = door("d", AtiList::hm(&[((0, 0), (10, 0))]), 100.0, 0.0);
    let e = door("e", AtiList::always_open(), 2.0, 200.0);
    let space = b.build().expect("valid venue");

    let at = |p: PartitionId, x: f64, y: f64| IndoorPoint::new(p, indoor_geom_point(x, y));
    let batch = vec![
        Query::new(at(hall, 1.0, 0.0), at(room, 60.0, 0.0), TimeOfDay::hm(9, 0)),
        Query::new(
            at(hall, 2.0, 0.0),
            at(room, 50.0, 100.0),
            TimeOfDay::hms(9, 59, 30),
        ),
        Query::new(
            at(hall, 1.0, 0.0),
            at(room, 60.0, 0.0),
            TimeOfDay::hms(9, 59, 30),
        ),
    ];
    for method in [ServeMethod::Asyn, ServeMethod::Syn] {
        let config = ServerConfig {
            method,
            itspq: ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact),
            ..ServerConfig::default()
        };
        let srv = VenueServer::with_config(ItGraph::shared(space.clone()), config);
        let plan = srv.plan(&batch, false);
        assert_eq!((plan.shared_groups(), plan.searches()), (1, 2));
        assert_pinned(&srv, &batch, "member verdict after a closing");
        let (answers, stats) = srv.query_batch_with_stats(&batch);
        let doors = |i: usize| -> Vec<DoorId> {
            answers[i]
                .path
                .as_ref()
                .expect("every query has a route")
                .doors()
                .collect()
        };
        assert_eq!(
            [doors(0), doors(1), doors(2)],
            [vec![d], vec![e], vec![e]],
            "{method:?}"
        );
        assert_eq!(
            (stats.retimed, stats.fallbacks),
            (0, 1),
            "{method:?}: the retime must be refused: {stats}"
        );
    }
}

#[test]
fn groups_are_keyed_by_source_point() {
    let ex = paper_example::build();
    let srv = server(&ex, BatchStrategy::Shared);
    let elsewhere = IndoorPoint::new(ex.p3.partition, indoor_geom_point(1.0, 1.0));
    let nine = TimeOfDay::hm(9, 0);
    // Two points of one partition at one instant: two singles.
    let apart = vec![
        Query::new(ex.p3, ex.p4, nine),
        Query::new(elsewhere, ex.p4, nine),
    ];
    let plan = srv.plan(&apart, false);
    assert_eq!((plan.shared_groups(), plan.searches()), (0, 2));
    assert_pinned(&srv, &apart, "two points at one instant");
    // One point at two instants of one interval: one group, whose later
    // member is answered by one retime.
    let later = vec![
        Query::new(ex.p3, ex.p4, nine),
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 20)),
    ];
    let plan = srv.plan(&later, false);
    assert_eq!((plan.shared_groups(), plan.searches()), (1, 1));
    assert_pinned(&srv, &later, "one point at two instants");
    let (_, stats) = srv.query_batch_with_stats(&later);
    assert_eq!(
        (stats.replayed, stats.retimed, stats.fallbacks),
        (0, 1, 0),
        "{stats}"
    );
}

#[test]
fn plan_shape_is_a_pure_function_of_the_batch() {
    // Two fresh servers must produce byte-identical plans for the same
    // batch: grouping runs over an ordered map, so no hasher seed can
    // reorder groups or rosters between processes.
    let ex = paper_example::build();
    let batch = mixed_batch(&ex);
    let a = server(&ex, BatchStrategy::Shared).plan(&batch, false);
    let b = server(&ex, BatchStrategy::Shared).plan(&batch, false);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "plan differs between identical servers"
    );
}
