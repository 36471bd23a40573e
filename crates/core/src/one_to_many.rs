//! Extension: single-source valid-distance maps.
//!
//! Evacuation planning, coverage analysis and facility dashboards need "how
//! far is everything from here, *right now*" rather than a single target:
//! [`reachability`] runs the search framework's sweep (ITG/S semantics, full
//! relaxation) with no targets, so it only stops when its frontier is empty,
//! and reports the valid shortest distance to **every door** and to **every
//! partition** (through its nearest open, enterable door). [`paths_to_many`]
//! runs the same sweep with a set of targets and returns full routes.
//!
//! The same two rules apply per relaxation: doors must be open at the
//! arrival time; private partitions are traversed only if they contain the
//! source (every partition may still be *entered* as a final destination —
//! mirroring `pt`'s exemption, any partition can be someone's target).

use indoor_space::{DoorId, IndoorPoint, PartitionId};
use indoor_time::{TimeOfDay, Timestamp};

use crate::engine_syn::SynChecker;
use crate::framework::{run_search, run_search_targets, SweepObserver};
use crate::ord::min_dist;
use crate::{known_partition, ExpandPolicy, ItGraph, ItspqConfig, Path, SearchStats};

/// The result of a one-to-many sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ReachabilityMap {
    /// The source point.
    pub source: IndoorPoint,
    /// Departure time.
    pub time: TimeOfDay,
    /// Valid shortest distance to each door (`f64::INFINITY` if unreachable
    /// under the temporal rules).
    pub door_distance: Vec<f64>,
    /// Valid shortest distance to each partition: the best
    /// `door_distance[d]` over its open enterable doors (the source's own
    /// partition has distance 0).
    pub partition_distance: Vec<f64>,
}

impl ReachabilityMap {
    /// Distance to a door.
    #[must_use]
    pub fn to_door(&self, d: DoorId) -> f64 {
        self.door_distance[d.index()]
    }

    /// Distance to a partition (to its nearest valid entry door).
    #[must_use]
    pub fn to_partition(&self, p: PartitionId) -> f64 {
        self.partition_distance[p.index()]
    }

    /// Number of partitions currently reachable.
    #[must_use]
    pub fn reachable_partitions(&self) -> usize {
        self.partition_distance
            .iter()
            .filter(|d| d.is_finite())
            .count()
    }
}

/// The result of a one-to-many *path* sweep: full routes to a set of targets.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetPaths {
    /// The source point.
    pub source: IndoorPoint,
    /// Departure time.
    pub time: TimeOfDay,
    /// One slot per requested target, in input order: the valid shortest
    /// path, or `None` for "no such routes".
    pub paths: Vec<Option<Path>>,
    /// Statistics of the single shared search that answered every target.
    pub stats: SearchStats,
}

impl TargetPaths {
    /// Number of targets that received a path.
    #[must_use]
    pub fn reached(&self) -> usize {
        self.paths.iter().filter(|p| p.is_some()).count()
    }
}

/// Computes full valid shortest *paths* from `source` at `time` to each of
/// `targets` with one shared search frontier (ITG/S semantics, full
/// relaxation — `config.expand` is ignored, exactly as in [`reachability`]).
///
/// It runs the same multi-target sweep (`framework::run_search_targets`)
/// as the engines do for the server's shared groups. Each returned path is
/// byte-identical to the one a per-target [`crate::SynEngine::query`] under
/// [`ItspqConfig::full_relax`] would produce, because door relaxations under
/// full relaxation do not depend on the target set.
///
/// Targets in non-traversable partitions other than the source's own are
/// answered per-target (Rule 2 exempts each query's own `pt`, which a shared
/// frontier cannot honour for one target without corrupting the others).
#[must_use]
pub fn paths_to_many(
    graph: &ItGraph,
    source: IndoorPoint,
    time: TimeOfDay,
    targets: &[IndoorPoint],
    config: &ItspqConfig,
) -> TargetPaths {
    let space = graph.space();
    let config = config.with_expand(ExpandPolicy::FullRelax);
    let checker = || SynChecker {
        space,
        velocity: config.velocity,
        t0: Timestamp::from_time_of_day(time),
    };

    // Targets the shared frontier cannot carry (private/outdoor partitions
    // away from the source, and partitions the venue lacks) run as
    // one-target sweeps of their own.
    let sharable = |t: &IndoorPoint| {
        t.partition == source.partition
            || (known_partition(space, t.partition)
                && space.partition(t.partition).kind.traversable())
    };
    let shared_targets: Vec<IndoorPoint> = targets.iter().copied().filter(sharable).collect();
    // (A sweep without targets would map the whole venue: skip it.)
    let (shared, mut stats) = if shared_targets.is_empty() {
        (Vec::new(), SearchStats::default())
    } else {
        let sweep = run_search_targets(
            graph,
            &source,
            time,
            &shared_targets,
            &config,
            &mut checker(),
            &mut SweepObserver::off(),
            None,
            &[],
        );
        (sweep.paths, sweep.stats)
    };

    let mut shared = shared.into_iter();
    let paths = targets
        .iter()
        .map(|target| {
            if sharable(target) {
                shared.next().flatten()
            } else {
                let q = crate::Query::new(source, *target, time);
                let (path, s) = run_search(graph, &q, &config, &mut checker());
                stats.merge(&s);
                path
            }
        })
        .collect();

    TargetPaths {
        source,
        time,
        paths,
        stats,
    }
}

/// Computes valid shortest distances from `source` at `time` to every door
/// and partition (ITG/S semantics, full relaxation — `config.expand` is
/// ignored).
#[must_use]
pub fn reachability(
    graph: &ItGraph,
    source: IndoorPoint,
    time: TimeOfDay,
    config: &ItspqConfig,
) -> ReachabilityMap {
    let space = graph.space();
    let mut partition_distance = vec![f64::INFINITY; space.num_partitions()];
    if !known_partition(space, source.partition) {
        return ReachabilityMap {
            source,
            time,
            door_distance: vec![f64::INFINITY; space.num_doors()],
            partition_distance,
        };
    }
    let mut checker = SynChecker {
        space,
        velocity: config.velocity,
        t0: Timestamp::from_time_of_day(time),
    };
    let dist = run_search_targets(
        graph,
        &source,
        time,
        &[],
        &config.with_expand(ExpandPolicy::FullRelax),
        &mut checker,
        &mut SweepObserver::off(),
        None,
        &[],
    )
    .door_dist;

    // Partition distances: best open enterable door.
    partition_distance[source.partition.index()] = 0.0;
    for (pi, pd) in partition_distance.iter_mut().enumerate() {
        if pi == source.partition.index() {
            continue;
        }
        let p = PartitionId::from_index(pi);
        for &d in space.p2d_enterable(p) {
            *pd = min_dist(*pd, dist[d.index()]);
        }
    }

    ReachabilityMap {
        source,
        time,
        door_distance: dist,
        partition_distance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ItspqConfig, Query, SynEngine};
    use indoor_space::paper_example;

    fn setup() -> (paper_example::PaperExample, ItGraph) {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        (ex, g)
    }

    #[test]
    fn noon_reaches_everything_reachable() {
        let (ex, g) = setup();
        let map = reachability(&g, ex.p1, TimeOfDay::hm(12, 0), &ItspqConfig::default());
        // All 18 partitions enterable at noon (v0 outdoors via d14 too).
        assert_eq!(map.reachable_partitions(), 18);
        // Source partition is at distance zero.
        assert_eq!(map.to_partition(ex.p1.partition), 0.0);
    }

    #[test]
    fn night_reaches_almost_nothing() {
        let (ex, g) = setup();
        // At 4:00 most Table I doors are closed.
        let map = reachability(&g, ex.p3, TimeOfDay::hm(4, 0), &ItspqConfig::default());
        assert!(map.reachable_partitions() < 8);
        // d18 is open [0:00,23:00): v14 is reachable.
        assert!(map.to_partition(ex.v(14)).is_finite());
        // d15 ([8:00,16:00)) is closed: v15 is not.
        assert!(map.to_partition(ex.v(15)).is_infinite());
    }

    #[test]
    fn agrees_with_single_target_queries() {
        let (ex, g) = setup();
        let cfg = ItspqConfig::full_relax();
        let map = reachability(&g, ex.p1, TimeOfDay::hm(12, 0), &cfg);
        let engine = SynEngine::new(g.clone(), cfg);
        // For each named point, the point-to-point query must cost the
        // distance to some enterable door of its partition plus the final
        // leg; in particular it is lower-bounded by the partition distance.
        for target in [ex.p2, ex.p3, ex.p4] {
            let q = Query::new(ex.p1, target, TimeOfDay::hm(12, 0));
            let path = engine.query(&q).path.expect("reachable at noon");
            assert!(
                path.length >= map.to_partition(target.partition) - 1e-9,
                "path {} shorter than partition bound {}",
                path.length,
                map.to_partition(target.partition)
            );
            // And the last door's map distance matches the hop bookkeeping.
            if let Some(last) = path.hops.last() {
                assert!(map.to_door(last.door) <= last.distance + 1e-9);
            }
        }
    }

    #[test]
    fn paths_to_many_singleton_group_matches_engine_exactly() {
        // The planner demotes 1-member groups to per-query execution; the
        // shared primitive must nonetheless agree on them byte for byte.
        let (ex, g) = setup();
        let cfg = ItspqConfig::full_relax();
        let noon = TimeOfDay::hm(12, 0);
        let tp = paths_to_many(&g, ex.p1, noon, &[ex.p4], &cfg);
        let single = SynEngine::new(g.clone(), cfg).query(&Query::new(ex.p1, ex.p4, noon));
        assert_eq!(tp.paths[0], single.path);
        assert_eq!(tp.reached(), 1);
    }

    #[test]
    fn paths_to_many_sealed_source_reaches_only_its_own_partition() {
        // v1's single door d1 is closed at 4:00: no frontier ever leaves the
        // source partition, but a same-partition target crosses no door.
        let (ex, g) = setup();
        let cfg = ItspqConfig::full_relax();
        let src = indoor_space::IndoorPoint::new(ex.v(1), indoor_geom::Point::new(5.0, 35.0));
        let roommate = indoor_space::IndoorPoint::new(ex.v(1), indoor_geom::Point::new(6.0, 35.0));
        let tp = paths_to_many(
            &g,
            src,
            TimeOfDay::hm(4, 0),
            &[ex.p3, ex.p4, roommate],
            &cfg,
        );
        assert!(tp.paths[0].is_none());
        assert!(tp.paths[1].is_none());
        let direct = tp.paths[2].as_ref().expect("no door crossed");
        assert!(direct.hops.is_empty());
        assert_eq!(tp.reached(), 1);
    }

    #[test]
    fn paths_to_many_all_targets_unreachable_is_all_none() {
        // At 23:30 d18 is closed and p4 cannot be reached from p3 (the
        // paper's Example 1 night case), whichever way it is asked for.
        let (ex, g) = setup();
        let cfg = ItspqConfig::full_relax();
        let tp = paths_to_many(&g, ex.p3, TimeOfDay::hm(23, 30), &[ex.p4, ex.p4], &cfg);
        assert_eq!(tp.reached(), 0);
        assert!(tp.paths.iter().all(Option::is_none));
    }

    #[test]
    fn paths_to_many_duplicate_pairs_answer_identically() {
        let (ex, g) = setup();
        let cfg = ItspqConfig::full_relax();
        let tp = paths_to_many(&g, ex.p3, TimeOfDay::hm(9, 0), &[ex.p4, ex.p2, ex.p4], &cfg);
        assert!(tp.paths[0].is_some());
        assert_eq!(tp.paths[0], tp.paths[2]);
    }

    #[test]
    fn paths_to_many_private_target_falls_back_per_target() {
        // A private target partition enlarges Rule 2's traversable set for
        // that query alone, so it cannot ride the shared frontier — the
        // fallback must still answer it exactly like a point query.
        let (ex, g) = setup();
        let cfg = ItspqConfig::full_relax();
        let noon = TimeOfDay::hm(12, 0);
        let private = indoor_space::IndoorPoint::new(ex.v(15), indoor_geom::Point::new(5.0, 0.0));
        let tp = paths_to_many(&g, ex.p3, noon, &[private, ex.p4], &cfg);
        let engine = SynEngine::new(g.clone(), cfg);
        assert!(tp.paths[0].is_some());
        assert_eq!(
            tp.paths[0],
            engine.query(&Query::new(ex.p3, private, noon)).path
        );
        assert_eq!(
            tp.paths[1],
            engine.query(&Query::new(ex.p3, ex.p4, noon)).path
        );
        // The fallback search is folded into the sweep's statistics.
        assert!(tp.stats.doors_settled > 0);
    }

    #[test]
    fn private_partitions_are_enterable_but_not_traversable() {
        let (ex, g) = setup();
        let map = reachability(&g, ex.p3, TimeOfDay::hm(12, 0), &ItspqConfig::default());
        // v15 (private) is enterable through d15 at noon …
        assert!(map.to_partition(ex.v(15)).is_finite());
        // … but the sweep never goes through it: d16's only access from p3's
        // side is via v14 (through d18), which is longer than via v15 would
        // have been.
        let via_v14 =
            map.to_door(ex.d(18)) + ex.space.door_to_door(ex.v(14), ex.d(18), ex.d(16)).unwrap();
        assert!((map.to_door(ex.d(16)) - via_v14).abs() < 1e-9);
    }
}
