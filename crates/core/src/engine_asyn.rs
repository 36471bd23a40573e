//! Method ITG/A: Algorithm 1 + the asynchronous check of Algorithm 4 over the
//! reduced time-dependent graphs of Algorithm 3.
//!
//! ITG/A trades the per-relaxation ATI lookups of ITG/S for **reduced
//! IT-Graphs**: per checkpoint interval, a view of the topology with every
//! closed door deleted, so within an interval a door's usability is a
//! constant-time bitset probe. The sound [`AsynMode::Exact`] goes one step
//! further where it can prove it safe: an expansion whose every arrival lies
//! in the current view's interval walks that view's reduced door list and
//! checks none of its doors (the *guard*, see `AsynChecker`). Every other
//! expansion walks the full topology and resolves each relaxation in the
//! view of its own arrival interval.
//!
//! The engine keeps one build-once slot per
//! checkpoint interval — a [`OnceLock`] indexed by interval, sized from the
//! venue's checkpoint set when the engine is built. This is the shared
//! structure a [`crate::server::VenueServer`] amortises across worker
//! threads: a filled slot is read with no lock, and a cold slot builds its
//! interval's view exactly once per engine no matter how many threads miss
//! it at the same time (the others wait on that slot only, so a build never
//! stalls traffic on other intervals).
//!
//! As in ITG/S, the checker is set up in one place, `query_targets`, which
//! runs the framework's sweep; a point query is the sweep with one target.
//!
//! The engine holds its graph as an `Arc<ItGraph>` and is `Sync`: one
//! instance can answer queries from many threads concurrently.
//!
//! # Example
//!
//! The paper's Example 1 through ITG/A: same answers as ITG/S, plus a warm
//! reduced-graph cache after the first query.
//!
//! ```
//! use indoor_space::paper_example;
//! use indoor_time::TimeOfDay;
//! use itspq_core::{AsynEngine, ItGraph, ItspqConfig, Query};
//!
//! let ex = paper_example::build();
//! let engine = AsynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
//!
//! let morning = engine.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)));
//! assert!((morning.path.expect("feasible at 9:00").length - 12.0).abs() < 1e-9);
//! assert!(engine.cached_views() >= 1); // Graph_Update ran and was cached
//!
//! let night = engine.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)));
//! assert!(night.path.is_none());
//! ```

use std::sync::{Arc, OnceLock};

use indoor_space::{DoorId, IndoorPoint, PartitionId};
use indoor_time::{TimeOfDay, Timestamp, Velocity};

use crate::framework::{run_search_targets, SweepObserver, TvChecker};
use crate::{
    AsynMode, ItGraph, ItspqConfig, Path, Query, QueryError, QueryResult, ReducedGraph, SearchStats,
};

/// The ITG/A query engine.
///
/// The search runs on the reduced IT-Graph of the checkpoint interval
/// containing the query time; closed doors are pruned before expansion.
/// Whenever a relaxation's arrival time crosses the next checkpoint,
/// `Asyn_Check` refreshes the reduced graph via `Graph_Update` (Algorithm 3)
/// and — in the paper's [`AsynMode::Faithful`] — rejects that relaxation.
///
/// Reduced graphs are cached per checkpoint interval (the asynchronous
/// maintenance an online deployment would perform once per checkpoint); a
/// fresh engine starts cold.
pub struct AsynEngine {
    graph: Arc<ItGraph>,
    config: ItspqConfig,
    /// One build-once view per checkpoint interval, indexed by
    /// `Checkpoints::interval_index`.
    views: Box<[OnceLock<ReducedGraph>]>,
    /// Per partition, the longest entry of its distance matrix: no leg of
    /// an expansion of the partition from one of its doors is longer.
    max_leg: Box<[f64]>,
}

impl AsynEngine {
    /// Creates the engine over a graph. Accepts an `Arc<ItGraph>` (shared
    /// with other engines) or a plain [`ItGraph`] (wrapped on the fly).
    #[must_use]
    pub fn new(graph: impl Into<Arc<ItGraph>>, config: ItspqConfig) -> Self {
        let graph: Arc<ItGraph> = graph.into();
        let space = graph.space();
        let views = (0..space.checkpoints().len())
            .map(|_| OnceLock::new())
            .collect();
        let max_leg = space
            .partitions()
            .iter()
            .map(|p| space.distance_matrix(p.id).max_distance())
            .collect();
        AsynEngine {
            graph,
            config,
            views,
            max_leg,
        }
    }

    /// The engine's graph.
    #[must_use]
    pub fn graph(&self) -> &ItGraph {
        &self.graph
    }

    /// A shareable handle to the engine's graph.
    #[must_use]
    pub fn graph_arc(&self) -> Arc<ItGraph> {
        Arc::clone(&self.graph)
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &ItspqConfig {
        &self.config
    }

    /// Number of reduced graphs currently cached (slots whose view has
    /// finished building).
    #[must_use]
    pub fn cached_views(&self) -> usize {
        self.views.iter().filter(|s| s.get().is_some()).count()
    }

    /// Total heap bytes of the cached reduced graphs.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.views
            .iter()
            .filter_map(OnceLock::get)
            .map(ReducedGraph::heap_bytes)
            .sum()
    }

    /// Precomputes the reduced graph of every checkpoint interval (warm
    /// start for an online deployment).
    pub fn precompute_all(&self) {
        let times: Vec<_> = self.graph.space().checkpoints().times().to_vec();
        let mut stats = SearchStats::default();
        for t in times {
            let _ = self.view_for(t, &mut stats);
        }
    }

    /// `Graph_Update(t, T)` with caching: the reduced view for the checkpoint
    /// interval containing clock time `t`.
    ///
    /// Each interval's view is built **exactly once** per engine, even
    /// under concurrent misses: [`OnceLock::get_or_init`] lets one thread
    /// run `ReducedGraph::build` while the others wait on that interval's
    /// slot only. `stats.views_built` counts only actual constructions.
    fn view_for(&self, t: TimeOfDay, stats: &mut SearchStats) -> &ReducedGraph {
        let space = self.graph.space();
        let slot = &self.views[space.checkpoints().interval_index(t)];
        let mut built_here = false;
        let view = slot.get_or_init(|| {
            built_here = true;
            ReducedGraph::build(space, t)
        });
        if built_here {
            stats.views_built += 1;
        }
        view
    }

    /// The timeline instants `[start, end)` during which every arrival
    /// resolves to `view`, the view of arrival `ts`; `end` is Algorithm 4's
    /// next checkpoint after `ts` (`next_instant`). On the query day an
    /// instant's clock time is its timeline value, so they are `view`'s own
    /// checkpoints. Past midnight the interval is left empty
    /// (`start == end`), which spares reasoning about rounding in
    /// `day + checkpoint` for the few walks that get there.
    fn bounds(&self, view: &ReducedGraph, ts: Timestamp) -> (Timestamp, Timestamp) {
        if ts.day_offset() == 0 {
            let end = view.next_checkpoint().unwrap_or(TimeOfDay::END_OF_DAY);
            (
                Timestamp::from_time_of_day(view.checkpoint()),
                Timestamp::from_time_of_day(end),
            )
        } else {
            let end = self.graph.space().checkpoints().next_instant(ts);
            (end, end)
        }
    }

    /// Answers `ITSPQ(ps, pt, t)`: the one-target sweep.
    #[must_use]
    pub fn query(&self, query: &Query) -> QueryResult {
        let (mut paths, stats) = self.query_targets(
            &query.source,
            query.time,
            std::slice::from_ref(&query.target),
            &mut SweepObserver::off(),
        );
        QueryResult {
            path: paths.pop().flatten(),
            stats,
        }
    }

    /// Answers `ITSPQ(ps, pt, t)` after validating the query.
    ///
    /// # Errors
    /// [`QueryError`] if an endpoint has non-finite coordinates or names a
    /// partition the venue does not have; the search itself never runs.
    pub fn try_query(&self, query: &Query) -> Result<QueryResult, QueryError> {
        query.validate(self.graph.space())?;
        Ok(self.query(query))
    }

    /// Answers targets from one source with a single sweep of Algorithm 1
    /// (see [`run_search_targets`]). The checker — a `Faithful` cursor
    /// included — evolves through the same door-relaxation sequence as in
    /// each target's own [`query`], so with more than one target, under the
    /// sweep's preconditions (FullRelax config, traversable-or-source target
    /// partitions), every answer is byte-identical to it.
    ///
    /// [`query`]: AsynEngine::query
    pub(crate) fn query_targets(
        &self,
        source: &IndoorPoint,
        time: TimeOfDay,
        targets: &[IndoorPoint],
        observer: &mut SweepObserver,
    ) -> (Vec<Option<Path>>, SearchStats) {
        let mut stats0 = SearchStats::default();
        let t0 = Timestamp::from_time_of_day(time);
        let current = self.view_for(time, &mut stats0);
        let (start, end) = self.bounds(current, t0);
        let mut checker = AsynChecker {
            engine: self,
            velocity: self.config.velocity,
            t0,
            start,
            end,
            view_bytes: current.heap_bytes(),
            seen_intervals: vec![current.interval_index()],
            current,
            mode: self.config.asyn_mode,
            pre_stats: stats0,
        };
        let mut sweep = run_search_targets(
            &self.graph,
            source,
            time,
            targets,
            &self.config,
            &mut checker,
            observer,
            None,
            &[],
        );
        sweep.stats.views_built += checker.pre_stats.views_built;
        (sweep.paths, sweep.stats)
    }
}

impl std::fmt::Debug for AsynEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsynEngine")
            .field("cached_views", &self.cached_views())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// `Asyn_Check` (Algorithm 4) plus the reduced topology view.
///
/// The checker keeps a current view and the timeline instants `[start, end)`
/// of its interval (`AsynEngine::bounds`).
///
/// `Faithful` follows the paper to the letter: one global current graph,
/// advanced by `Graph_Update` whenever a relaxation's arrival reaches `end`,
/// the next checkpoint (that relaxation is dropped). Because Dijkstra relaxes
/// in settle order, not arrival order, a far relaxation can advance the
/// cursor and later, *nearer* relaxations are then judged against the wrong
/// interval — the paper's algorithm can accept a door that is closed at the
/// actual arrival time (see the `arrive_too_early` integration tests).
///
/// `Exact` instead resolves every relaxation against the reduced graph of its
/// own arrival interval, which is equivalent to `Syn_Check` door-by-door and
/// therefore always matches ITG/S. An arrival in `[start, end)` reads the
/// current view; any other is looked up in the engine cache and becomes the
/// current view. The *guard* in `leaveable` vouches for the current view's
/// reduced list of `v` when an expansion from a door labelled `base` metres
/// arrives in `[start, end)` both after `base` and after
/// `base + max_leg(v)`. Every leg lies in `[0, max_leg(v)]`, so every
/// arrival lies between those two, where a door is open exactly when the
/// view keeps it. `max_leg` spans the legs to closed doors too: a longer leg
/// could reach one after the next checkpoint, where it may be open
/// (ARCHITECTURE.md §"Reading the views in a search").
struct AsynChecker<'a> {
    engine: &'a AsynEngine,
    velocity: Velocity,
    t0: Timestamp,
    current: &'a ReducedGraph,
    /// First timeline instant of the current view's interval.
    start: Timestamp,
    /// Timeline instant at which the current view expires.
    end: Timestamp,
    /// Accumulated bytes of every distinct view consulted by this query.
    view_bytes: usize,
    /// Interval indices already accounted in `view_bytes`.
    seen_intervals: Vec<usize>,
    mode: AsynMode,
    /// Stats accrued before the framework ran (initial view construction).
    pre_stats: SearchStats,
}

impl AsynChecker<'_> {
    /// The arrival after walking `dist` metres from `ps`.
    fn arrival(&self, dist: f64) -> Timestamp {
        self.t0 + self.velocity.travel_time(dist)
    }

    /// Whether `t` lies in `[start, end)`, so that it resolves to the
    /// current view.
    fn in_current(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// `Graph_Update(tarr, T)`: moves to the view of `tarr`'s interval.
    /// Returns whether that is another view than the current one.
    fn update(&mut self, tarr: Timestamp, stats: &mut SearchStats) -> bool {
        let view = self.engine.view_for(tarr.time_of_day(), stats);
        (self.start, self.end) = self.engine.bounds(view, tarr);
        if !self.seen_intervals.contains(&view.interval_index()) {
            self.seen_intervals.push(view.interval_index());
            self.view_bytes += view.heap_bytes();
        }
        let moved = !std::ptr::eq(view, self.current);
        self.current = view;
        moved
    }
}

impl<'a> TvChecker<'a> for AsynChecker<'a> {
    fn leaveable(&self, v: PartitionId, base: Option<f64>) -> (&'a [DoorId], bool) {
        match (self.mode, base) {
            // The paper iterates the reduced P2D of the current graph and
            // checks every door against its cursor.
            (AsynMode::Faithful, _) => (self.current.leaveable(v), false),
            (AsynMode::Exact, Some(base))
                if self.in_current(self.arrival(base))
                    && self.in_current(self.arrival(base + self.engine.max_leg[v.index()])) =>
            {
                (self.current.leaveable(v), true)
            }
            // Arrivals may leave the current interval: iterate the full
            // topology and let `check` consult each arrival's own view.
            (AsynMode::Exact, _) => (self.engine.graph.space().p2d_leaveable(v), false),
        }
    }

    fn check(&mut self, d: DoorId, dist: f64, stats: &mut SearchStats) -> bool {
        let tarr = self.arrival(dist);
        match self.mode {
            AsynMode::Faithful => {
                if tarr < self.end {
                    // Within the current interval the door is open by
                    // construction (closed doors are absent from the reduced
                    // P2D lists). Arrivals *before* the interval — possible
                    // after a premature update — are accepted too, exactly as
                    // the paper's Algorithm 4 does.
                    return true;
                }
                // Crossing: Graph_Update(tarr, T), then return false.
                self.update(tarr, stats);
                stats.graph_updates += 1;
                false
            }
            AsynMode::Exact => {
                // Constant-time bitset lookup in the arrival interval's view.
                if !self.in_current(tarr) && self.update(tarr, stats) {
                    stats.graph_updates += 1;
                }
                self.current.is_open(d)
            }
        }
    }

    fn account(&self, stats: &mut SearchStats) {
        stats.reduced_graph_bytes = self.view_bytes;
    }

    /// Exact resolves each arrival in its own interval's view; the
    /// Faithful cursor's verdict depends on the relaxations before it.
    fn order_free(&self) -> bool {
        self.mode == AsynMode::Exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;
    use indoor_time::TimeOfDay;

    fn engine(config: ItspqConfig) -> (paper_example::PaperExample, AsynEngine) {
        let ex = paper_example::build();
        let graph = ItGraph::new(ex.space.clone());
        (ex, AsynEngine::new(graph, config))
    }

    #[test]
    fn example1_matches_itg_s() {
        let (ex, eng) = engine(ItspqConfig::default());
        let res = eng.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)));
        let path = res.path.expect("path exists at 9:00");
        assert_eq!(path.doors().collect::<Vec<_>>(), vec![ex.d(18)]);
        assert!((path.length - 12.0).abs() < 1e-9);

        let res = eng.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)));
        assert!(res.path.is_none());
    }

    #[test]
    fn caches_views_across_queries() {
        let (ex, eng) = engine(ItspqConfig::default());
        assert_eq!(eng.cached_views(), 0);
        let _ = eng.query(&Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)));
        let first = eng.cached_views();
        assert!(first >= 1);
        // Re-running the same query builds nothing new.
        let res = eng.query(&Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)));
        assert_eq!(eng.cached_views(), first);
        assert_eq!(res.stats.views_built, 0);
        assert!(eng.cache_bytes() > 0);
    }

    #[test]
    fn precompute_builds_every_interval() {
        let (ex, eng) = engine(ItspqConfig::default());
        eng.precompute_all();
        assert_eq!(eng.cached_views(), ex.space.checkpoints().len());
    }

    #[test]
    fn reduced_graph_bytes_accounted() {
        let (ex, eng) = engine(ItspqConfig::default());
        let res = eng.query(&Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)));
        assert!(res.stats.reduced_graph_bytes > 0);
        assert!(res.stats.estimated_bytes() > res.stats.search_bytes);
    }

    #[test]
    fn exact_mode_agrees_with_syn_on_checkpoint_crossing() {
        // A query whose walk crosses the 16:00 checkpoint: start at 15:59
        // from p1; several [8:00,16:00) doors will close mid-walk.
        let ex = paper_example::build();
        let graph = ItGraph::new(ex.space.clone());
        let syn = crate::SynEngine::new(graph.clone(), ItspqConfig::default());
        let asyn_exact = AsynEngine::new(
            graph,
            ItspqConfig::default().with_asyn_mode(AsynMode::Exact),
        );
        for (h, m) in [(15, 55), (15, 59), (22, 58), (5, 58)] {
            let q = Query::new(ex.p1, ex.p2, TimeOfDay::hm(h, m));
            let a = syn.query(&q);
            let b = asyn_exact.query(&q);
            assert_eq!(
                a.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
                b.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
                "ITG/S and ITG/A(Exact) disagree at {h}:{m}"
            );
        }
    }

    #[test]
    fn exact_guard_skips_checks_inside_an_interval() {
        // At 12:00 the [9:00, 16:00) interval has hours to run, so every
        // expansion past the source's walks a reduced list unchecked.
        let (ex, eng) = engine(ItspqConfig::default().with_asyn_mode(AsynMode::Exact));
        let res = eng.query(&Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)));
        assert!(res.path.is_some());
        assert!(res.stats.tv_checks < res.stats.relaxations, "{}", res.stats);
    }

    #[test]
    fn exact_guard_refuses_expansions_that_straddle_a_checkpoint() {
        // 10 s before 16:00 only ~14 m fit into the current interval, so
        // expansions past the source's straddle the checkpoint: Exact checks
        // them and still answers as ITG/S does.
        let ex = paper_example::build();
        let graph = ItGraph::new(ex.space.clone());
        for cfg in [ItspqConfig::default(), ItspqConfig::full_relax()] {
            let syn = crate::SynEngine::new(graph.clone(), cfg);
            let exact = AsynEngine::new(graph.clone(), cfg.with_asyn_mode(AsynMode::Exact));
            let q = Query::new(ex.p1, ex.p2, TimeOfDay::hms(15, 59, 50));
            let res = exact.query(&q);
            let source_checks = ex.space.p2d_leaveable(ex.p1.partition).len();
            assert!(res.stats.tv_checks > source_checks, "{}", res.stats);
            assert_eq!(res.path, syn.query(&q).path);
        }
    }

    #[test]
    fn faithful_mode_reports_graph_updates() {
        let (ex, eng) = engine(ItspqConfig::default());
        // Starting 10 s before the 16:00 checkpoint: at 5 km/h only ~14 m fit
        // into the current interval, so relaxations beyond that refresh the
        // reduced graph.
        let res = eng.query(&Query::new(ex.p1, ex.p2, TimeOfDay::hms(15, 59, 50)));
        assert!(res.stats.graph_updates > 0);
    }
}
