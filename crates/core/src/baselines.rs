//! Baseline algorithms for comparison and ground truth.
//!
//! * [`static_shortest_path`] — temporal-oblivious Dijkstra: the pre-ITSPQ
//!   state of the art that ignores ATIs entirely (distances stay valid only
//!   while every door is open). Also used by the synthetic query generator to
//!   realise the paper's `δs2t` distance control.
//! * [`snapshot_shortest_path`] — Dijkstra on the topology frozen at the query
//!   time `t`: what a system refreshing its graph but unaware of *en-route*
//!   changes would answer. Its paths can be invalid under ITSPQ semantics.
//! * [`door_distances`] — full single-source distances from a point to every
//!   door, ignoring time (workload generation, diagnostics).
//! * [`exhaustive_shortest`] — an exponential oracle enumerating elementary
//!   door sequences; exact ITSPQ answers on small venues for testing.

use indoor_space::{DoorId, IndoorPoint, IndoorSpace, PartitionId};
use indoor_time::Timestamp;

use crate::framework::{run_search, TvChecker};
use crate::heap::{MinHeap, Node};
use crate::{
    known_partition, DoorHop, ItGraph, ItspqConfig, Path, Query, QueryResult, SearchStats,
};

/// A checker that accepts every door (temporal-oblivious baseline).
pub(crate) struct StaticChecker<'a> {
    pub(crate) space: &'a IndoorSpace,
}

impl<'a> TvChecker<'a> for StaticChecker<'a> {
    fn leaveable(&self, v: PartitionId, _base: Option<f64>) -> (&'a [DoorId], bool) {
        (self.space.p2d_leaveable(v), false)
    }

    fn check(&mut self, _d: DoorId, _dist: f64, _stats: &mut SearchStats) -> bool {
        true
    }

    fn account(&self, _stats: &mut SearchStats) {}

    fn order_free(&self) -> bool {
        true
    }
}

/// A checker that freezes door states at the query time `t`.
pub(crate) struct SnapshotChecker<'a> {
    pub(crate) space: &'a IndoorSpace,
    pub(crate) t: indoor_time::TimeOfDay,
}

impl<'a> TvChecker<'a> for SnapshotChecker<'a> {
    fn leaveable(&self, v: PartitionId, _base: Option<f64>) -> (&'a [DoorId], bool) {
        (self.space.p2d_leaveable(v), false)
    }

    fn check(&mut self, d: DoorId, _dist: f64, _stats: &mut SearchStats) -> bool {
        self.space.door(d).atis.is_open(self.t)
    }

    fn account(&self, _stats: &mut SearchStats) {}

    fn order_free(&self) -> bool {
        true
    }
}

/// Shortest path ignoring temporal variations entirely.
#[must_use]
pub fn static_shortest_path(graph: &ItGraph, query: &Query, config: &ItspqConfig) -> QueryResult {
    let mut checker = StaticChecker {
        space: graph.space(),
    };
    let (path, stats) = run_search(graph, query, config, &mut checker);
    QueryResult { path, stats }
}

/// Shortest path on the topology frozen at the query time (doors keep their
/// state at `t` for the whole walk).
#[must_use]
pub fn snapshot_shortest_path(graph: &ItGraph, query: &Query, config: &ItspqConfig) -> QueryResult {
    let mut checker = SnapshotChecker {
        space: graph.space(),
        t: query.time,
    };
    let (path, stats) = run_search(graph, query, config, &mut checker);
    QueryResult { path, stats }
}

/// Temporal-oblivious distances from `source` to every door (`f64::INFINITY`
/// where unreachable). Traversal rules (privacy) still apply, with `source`'s
/// partition always permitted.
///
/// This is its own Dijkstra loop, not a zero-target sweep of the search
/// framework, because it differs in one rule: it expands a settled door back
/// into the partition the door was reached through. From a source in a stair
/// lobby that is a touch that shortens labels — walk to the up door at the
/// lobby's centre, then take the 10 m half-flight to the hallway door
/// instead of the 40 m point leg. The synthetic query generator
/// (`indoor_synthetic::generate_queries`) draws its targets from these
/// labels, so the sweep in its place would change generated workloads and
/// every digest built on them.
#[must_use]
pub fn door_distances(graph: &ItGraph, source: &IndoorPoint) -> Vec<f64> {
    let space = graph.space();
    let n = space.num_doors();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = MinHeap::new();

    let allowed =
        |v: PartitionId| -> bool { v == source.partition || space.partition(v).kind.traversable() };

    if !known_partition(space, source.partition) {
        return dist;
    }
    for &d in space.p2d_leaveable(source.partition) {
        if let Some(w) = space.point_to_door(source, d) {
            if w < dist[d.index()] {
                dist[d.index()] = w;
                heap.push(w, Node::Door(d.index() as u32));
            }
        }
    }

    while let Some(entry) = heap.pop() {
        let Node::Door(di) = entry.node else { continue };
        if settled[di as usize] {
            continue;
        }
        settled[di as usize] = true;
        let door = DoorId(di);
        let base = dist[di as usize];
        for &v in space.d2p_enterable(door) {
            if !allowed(v) {
                continue;
            }
            for &dj in space.p2d_leaveable(v) {
                if dj.index() as u32 == di || settled[dj.index()] {
                    continue;
                }
                if let Some(w) = space.door_to_door(v, door, dj) {
                    let cand = base + w;
                    if cand < dist[dj.index()] {
                        dist[dj.index()] = cand;
                        heap.push(cand, Node::Door(dj.index() as u32));
                    }
                }
            }
        }
    }
    dist
}

/// Exhaustive ITSPQ oracle: enumerates every elementary door sequence (each
/// door crossed at most once) respecting both ITSPQ rules, and returns the
/// shortest valid path. Exponential — only for small venues in tests.
///
/// `max_doors` bounds the search depth.
#[must_use]
pub fn exhaustive_shortest(
    graph: &ItGraph,
    query: &Query,
    config: &ItspqConfig,
    max_doors: usize,
) -> Option<Path> {
    let space = graph.space();
    let t0 = query.departure();
    let src = query.source;
    let dst = query.target;

    if !known_partition(space, src.partition) || !known_partition(space, dst.partition) {
        return None;
    }
    if src.partition == dst.partition {
        let length = src.position.distance(dst.position);
        return Some(Path {
            source: src,
            target: dst,
            hops: Vec::new(),
            length,
            departure: t0,
            arrival: t0 + config.velocity.travel_time(length),
        });
    }

    struct Dfs<'a> {
        space: &'a IndoorSpace,
        config: &'a ItspqConfig,
        t0: Timestamp,
        src: IndoorPoint,
        dst: IndoorPoint,
        max_doors: usize,
        used: Vec<bool>,
        stack: Vec<(DoorId, PartitionId)>,
        best_len: f64,
        best: Option<Vec<(DoorId, PartitionId)>>,
    }

    impl Dfs<'_> {
        fn allowed(&self, v: PartitionId) -> bool {
            v == self.src.partition
                || v == self.dst.partition
                || self.space.partition(v).kind.traversable()
        }

        /// Explore from partition `v`, entered through `entry` with
        /// cumulative distance `dist`.
        fn go(&mut self, v: PartitionId, entry: Option<DoorId>, dist: f64) {
            // Terminal: the entry door bounds the target partition.
            if v == self.dst.partition {
                if let Some(e) = entry {
                    if let Some(leg) = self.space.point_to_door(&self.dst, e) {
                        let total = dist + leg;
                        if total < self.best_len {
                            self.best_len = total;
                            self.best = Some(self.stack.clone());
                        }
                    }
                }
                // Continuing through P(pt) is legal but cannot yield a
                // shorter arrival back into it (triangle inequality).
                return;
            }
            if self.stack.len() >= self.max_doors {
                return;
            }
            for &dj in self.space.p2d_leaveable(v) {
                if self.used[dj.index()] {
                    continue;
                }
                let leg = match entry {
                    Some(e) => self.space.door_to_door(v, e, dj),
                    None => self.space.point_to_door(&self.src, dj),
                };
                let Some(leg) = leg else { continue };
                let nd = dist + leg;
                if nd >= self.best_len {
                    continue; // cannot improve
                }
                let tarr = self.t0 + self.config.velocity.travel_time(nd);
                if !self.space.door(dj).atis.is_open_at(tarr) {
                    continue;
                }
                for ui in 0..self.space.d2p_enterable(dj).len() {
                    let u = self.space.d2p_enterable(dj)[ui];
                    if u == v || !self.allowed(u) {
                        continue;
                    }
                    self.used[dj.index()] = true;
                    self.stack.push((dj, v));
                    self.go(u, Some(dj), nd);
                    self.stack.pop();
                    self.used[dj.index()] = false;
                }
            }
        }
    }

    let mut dfs = Dfs {
        space,
        config,
        t0,
        src,
        dst,
        max_doors,
        used: vec![false; space.num_doors()],
        stack: Vec::new(),
        best_len: f64::INFINITY,
        best: None,
    };
    dfs.go(src.partition, None, 0.0);

    let doors = dfs.best?;
    // Rebuild cumulative distances for the winning sequence.
    let mut hops = Vec::with_capacity(doors.len());
    let mut cumulative = 0.0;
    let mut prev: Option<DoorId> = None;
    for &(door, via) in &doors {
        // The winning sequence was walked by the DFS, so every leg exists;
        // `?` degrades a broken invariant to "no route" instead of a panic.
        let leg = match prev {
            None => space.point_to_door(&src, door),
            Some(p) => space.door_to_door(via, p, door),
        }?;
        cumulative += leg;
        hops.push(DoorHop {
            door,
            via_partition: via,
            distance: cumulative,
            arrival: t0 + config.velocity.travel_time(cumulative),
        });
        prev = Some(door);
    }
    let length = dfs.best_len;
    Some(Path {
        source: src,
        target: dst,
        hops,
        length,
        departure: t0,
        arrival: t0 + config.velocity.travel_time(length),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate_path, SynEngine};
    use indoor_space::paper_example;
    use indoor_time::TimeOfDay;

    #[test]
    fn static_path_ignores_time() {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        let cfg = ItspqConfig::default();
        // At 23:30 ITSPQ has no route, but the static baseline happily routes
        // through d18 (and would hit a closed door in reality).
        let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30));
        let static_res = static_shortest_path(&g, &q, &cfg);
        assert!(static_res.path.is_some());
        let syn = SynEngine::new(g.clone(), cfg);
        assert!(syn.query(&q).path.is_none());
        // The static path is invalid under ITSPQ validation at 23:30.
        let path = static_res.path.unwrap();
        assert!(validate_path(&ex.space, &path, q.time, cfg.velocity).is_err());
    }

    #[test]
    fn static_path_takes_private_shortcut_never() {
        // Privacy rules still apply to the static baseline.
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(12, 0));
        let res = static_shortest_path(&g, &q, &ItspqConfig::default());
        let doors: Vec<_> = res.path.unwrap().doors().collect();
        assert_eq!(doors, vec![ex.d(18)]);
    }

    #[test]
    fn snapshot_can_differ_from_itspq() {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        let cfg = ItspqConfig::default();
        // At 12:00 everything is open: snapshot == ITSPQ.
        let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(12, 0));
        let snap = snapshot_shortest_path(&g, &q, &cfg).path.unwrap();
        let syn = SynEngine::new(g.clone(), cfg).query(&q).path.unwrap();
        assert_eq!(
            snap.doors().collect::<Vec<_>>(),
            syn.doors().collect::<Vec<_>>()
        );
    }

    #[test]
    fn door_distances_from_p3() {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        let dist = door_distances(&g, &ex.p3);
        // Directly reachable doors of v13.
        assert!((dist[ex.d(15).index()] - 3.0).abs() < 1e-9);
        assert!((dist[ex.d(18).index()] - 1.0).abs() < 1e-9);
        // d16 is NOT reachable via private v15; it must go around through v14.
        let via_v14 =
            dist[ex.d(18).index()] + ex.space.door_to_door(ex.v(14), ex.d(18), ex.d(16)).unwrap();
        assert!((dist[ex.d(16).index()] - via_v14).abs() < 1e-9);
        // All doors reachable in the example.
        assert!(dist.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn exhaustive_matches_engine_on_example() {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        let cfg = ItspqConfig::default();
        let syn = SynEngine::new(g.clone(), cfg);
        for (h, m) in [(9, 0), (12, 0), (23, 30), (5, 30)] {
            let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(h, m));
            let oracle = exhaustive_shortest(&g, &q, &cfg, 12);
            let engine = syn.query(&q).path;
            match (oracle, engine) {
                (None, None) => {}
                (Some(o), Some(e)) => {
                    assert!(
                        (o.length - e.length).abs() < 1e-6,
                        "oracle {} vs engine {} at {h}:{m}",
                        o.length,
                        e.length
                    );
                }
                (o, e) => panic!(
                    "oracle/engine disagree at {h}:{m}: {:?} vs {:?}",
                    o.map(|p| p.length),
                    e.map(|p| p.length)
                ),
            }
        }
    }

    #[test]
    fn exhaustive_respects_depth_bound() {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        let cfg = ItspqConfig::default();
        let q = Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0));
        // p1 (v3) to p2 (v10) needs at least 3 doors; a depth bound of 1
        // must find nothing.
        assert!(exhaustive_shortest(&g, &q, &cfg, 1).is_none());
        assert!(exhaustive_shortest(&g, &q, &cfg, 12).is_some());
    }
}
