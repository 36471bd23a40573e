//! Algorithm 1 — `ITSPQ_ITGraph`: the shared search framework.
//!
//! The framework is a Dijkstra-style expansion over doors using each
//! partition's distance matrix for intra-partition hops, parameterised by a
//! [`TvChecker`]: the synchronous check of Algorithm 2 (ITG/S) or the
//! asynchronous reduced-graph check of Algorithm 4 (ITG/A).
//!
//! Two deliberate deviations from the paper's pseudo-code, neither affecting
//! results (see `ARCHITECTURE.md` §"Deviations from the paper"):
//!
//! * doors are inserted into the priority queue lazily instead of enheaping
//!   every door with distance ∞ upfront (lines 2–5) — the "pop ∞ ⇒ no route"
//!   exit becomes "queue exhausted ⇒ no route";
//! * line 30's `if TV_Check(…) then continue` is read as *skip the door when
//!   the check fails*, the only reading under which Example 1 returns the
//!   paper's answer.

use indoor_space::{DoorId, IndoorPoint, IndoorSpace, PartitionId};
use indoor_time::{TimeOfDay, Timestamp};

use crate::heap::{MinHeap, Node};
use crate::{DoorHop, ExpandPolicy, ItGraph, ItspqConfig, Path, Query, SearchStats};

/// The pluggable temporal-variation strategy: a topology view plus `TV_Check`.
pub(crate) trait TvChecker {
    /// The doors through which partition `v` can currently be left.
    fn leaveable(&self, v: PartitionId) -> &[DoorId];

    /// `TV_Check(d, dist, t)`: whether door `d`, reached after walking `dist`
    /// metres from `ps`, is usable. ITG/A may refresh its reduced view here.
    fn check(&mut self, d: DoorId, dist: f64, stats: &mut SearchStats) -> bool;

    /// Final accounting hook (reduced-graph bytes for ITG/A).
    fn account(&self, stats: &mut SearchStats);
}

/// Predecessor of a relaxed door.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrevEntry {
    /// Partition crossed to reach the door.
    pub(crate) via: PartitionId,
    /// Previous door index, or `None` when coming directly from `ps`.
    pub(crate) from: Option<u32>,
}

/// One recorded door relaxation of the lead's sweep (Algorithm 1 lines
/// 29–34) that had a weight, in execution order.
///
/// The trace is the *lead* query's complete relaxation log. `crate::replay`
/// computes a group member's own label fixpoint from it and then certifies
/// that the member's own search would have attempted exactly the recorded
/// relaxation set; any uncertifiable divergence aborts the replay and the
/// member falls back to per-query execution. A record keeps only what a
/// member cannot recompute — which door was relaxed, from where, through
/// which partition. The weight is re-read from the venue
/// (`door_to_door(via, from, door)`, the very matrix entry the sweep read)
/// and the `TV_Check` verdict is taken from the door's ATIs at the member's
/// own arrival. `from == None` is a source-leg relaxation (`|ps, dj|`), the
/// only member-specific weight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RelaxEvent {
    pub(crate) door: u32,
    pub(crate) from: Option<u32>,
    pub(crate) via: PartitionId,
}

/// One settle of the lead's sweep: the door and the partition its final
/// label entered through (the neighbor its expansion excludes). The event
/// order is the lead's settle order, which drives the replay's frontier and
/// omission certificates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SettleEvent {
    pub(crate) door: u32,
    pub(crate) via: Option<PartitionId>,
}

/// One recorded target-leg relaxation (lines 20–24), in target `k`'s own
/// stream: the sweep computed `point_to_door(targets[k], door)` when `door`
/// settled. The geodesic weight is a pure function of the venue geometry and
/// the target point, so member `k`'s replay reuses it bit-for-bit instead of
/// recomputing the leg; a member's replay never touches another target's
/// stream. Doors settled *after* the sweep finalised target `k` carry no
/// event (the sweep skips finalised targets) — replay recomputes those few
/// legs on demand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TargetEvent {
    pub(crate) door: u32,
    pub(crate) weight: f64,
}

/// The lead's recorded decision log: the shared relaxation, missing-leg and
/// settle lists plus one positioned target stream per group member. All
/// buffers are reused across the groups of one batch via [`Trace::reset`].
#[derive(Debug, Default)]
pub(crate) struct Trace {
    pub(crate) relaxes: Vec<RelaxEvent>,
    /// Doors of the source partition the lead had no source→door geodesic
    /// to, so it attempted no relaxation. A member that *does* have one
    /// would relax an unrecorded edge — replay must verify the absence.
    pub(crate) missing_legs: Vec<u32>,
    pub(crate) settles: Vec<SettleEvent>,
    pub(crate) targets: Vec<Vec<TargetEvent>>,
}

impl Trace {
    /// Clears every stream (keeping capacity) and guarantees at least
    /// `members` target streams exist.
    pub(crate) fn reset(&mut self, members: usize) {
        self.relaxes.clear();
        self.missing_legs.clear();
        self.settles.clear();
        for t in &mut self.targets {
            t.clear();
        }
        if self.targets.len() < members {
            self.targets.resize_with(members, Vec::new);
        }
    }
}

/// Decision recorder for [`run_search_targets`]: an optional decision trace
/// (replay) and/or a running minimum of the margin between each checked
/// arrival and its next checkpoint (retime certificate). Both default to
/// off, making the observer free on the per-query path.
#[derive(Debug)]
pub(crate) struct SweepObserver {
    /// Record the decision trace.
    record: bool,
    /// Track `min_margin_secs` across every `TV_Check` arrival.
    track_margin: bool,
    /// The recorded decision log (empty unless `record`).
    pub(crate) trace: Trace,
    /// Smallest margin (seconds) from any checked arrival to its next
    /// checkpoint; `f64::INFINITY` when no check happened. A member whose
    /// departure lags the lead's by strictly less than this margin (minus a
    /// rounding slack) certifiably makes the identical `TV_Check` decisions.
    /// A degenerate (∞/NaN) arrival saturates its margin to `0.0`, so no
    /// member retimes against it.
    pub(crate) min_margin_secs: f64,
}

impl SweepObserver {
    /// An inert observer: records nothing, tracks nothing.
    pub(crate) fn off() -> Self {
        Self::new(false, false)
    }

    pub(crate) fn new(record: bool, track_margin: bool) -> Self {
        Self::with_trace(record, track_margin, Trace::default(), 0)
    }

    /// An observer writing into a caller-owned (typically reused) trace
    /// buffer, reset for `members` target streams. Reclaim the buffer with
    /// [`SweepObserver::take_trace`] after the sweep.
    pub(crate) fn with_trace(
        record: bool,
        track_margin: bool,
        mut trace: Trace,
        members: usize,
    ) -> Self {
        trace.reset(if record { members } else { 0 });
        SweepObserver {
            record,
            track_margin,
            trace,
            min_margin_secs: f64::INFINITY,
        }
    }

    /// Moves the recorded trace out (leaving an empty one) so a reused
    /// buffer can return to its scratch slot after the group is scattered.
    pub(crate) fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    #[inline]
    fn push_relax(&mut self, door: u32, from: Option<u32>, via: PartitionId) {
        if self.record {
            self.trace.relaxes.push(RelaxEvent { door, from, via });
        }
    }

    #[inline]
    fn push_missing_leg(&mut self, door: u32) {
        if self.record {
            self.trace.missing_legs.push(door);
        }
    }

    #[inline]
    fn push_settle(&mut self, door: u32, via: Option<PartitionId>) {
        if self.record {
            self.trace.settles.push(SettleEvent { door, via });
        }
    }

    #[inline]
    fn push_target(&mut self, k: u32, door: u32, weight: f64) {
        if self.record {
            self.trace.targets[k as usize].push(TargetEvent { door, weight });
        }
    }
}

struct SearchState {
    dist: Vec<f64>,
    prev: Vec<Option<PrevEntry>>,
    settled: Vec<bool>,
    visited_parts: Vec<bool>,
    enters_target: Vec<bool>,
    heap: MinHeap,
    scratch: Vec<DoorId>,
    target_dist: f64,
    target_prev: Option<u32>,
    /// Distinct doors whose tentative distance left ∞ — the populated part of
    /// the search state, which is what a map-based implementation (like the
    /// paper's Java one) would actually hold.
    touched_doors: usize,
}

impl SearchState {
    fn new(space: &IndoorSpace, target_partition: PartitionId) -> Self {
        let n = space.num_doors();
        let mut enters_target = vec![false; n];
        for &d in space.p2d_enterable(target_partition) {
            enters_target[d.index()] = true;
        }
        SearchState {
            dist: vec![f64::INFINITY; n],
            prev: vec![None; n],
            settled: vec![false; n],
            visited_parts: vec![false; space.num_partitions()],
            enters_target,
            heap: MinHeap::new(),
            scratch: Vec::new(),
            target_dist: f64::INFINITY,
            target_prev: None,
            touched_doors: 0,
        }
    }

    /// The paper's memory-cost metric counts the *populated* search state —
    /// per touched door a map entry of distance, predecessor and flags — plus
    /// the priority queue at its peak. A dense-array implementation would add
    /// a constant O(|doors|) that hides the day-curve of Figure 7.
    fn search_bytes(&self) -> usize {
        const PER_DOOR_ENTRY: usize = std::mem::size_of::<f64>()
            + std::mem::size_of::<Option<PrevEntry>>()
            + 2 * std::mem::size_of::<u64>(); // map-entry overhead (key + bucket)
        self.touched_doors * PER_DOOR_ENTRY
            + self.heap.peak() * std::mem::size_of::<crate::heap::Entry>()
            + self.scratch.capacity() * std::mem::size_of::<DoorId>()
    }
}

/// Runs Algorithm 1 and reconstructs the path (lines 11–17).
pub(crate) fn run_search<C: TvChecker>(
    graph: &ItGraph,
    query: &Query,
    config: &ItspqConfig,
    checker: &mut C,
) -> (Option<Path>, SearchStats) {
    let space = graph.space();
    let mut stats = SearchStats::default();
    let t0 = query.departure();
    let src_p = query.source.partition;
    let dst_p = query.target.partition;

    // Both endpoints in one partition: the straight segment is valid (no door
    // is crossed) and, partitions being decomposed into near-convex cells,
    // shortest.
    if src_p == dst_p {
        let length = query.source.position.distance(query.target.position);
        checker.account(&mut stats);
        let path = Path {
            source: query.source,
            target: query.target,
            hops: Vec::new(),
            length,
            departure: t0,
            arrival: t0 + config.velocity.travel_time(length),
        };
        return (Some(path), stats);
    }

    let mut st = SearchState::new(space, dst_p);
    let mut observer = SweepObserver::off();

    // Rule 2: private partitions may be traversed only if they contain ps/pt.
    let allowed = |v: PartitionId| -> bool {
        v == src_p || v == dst_p || space.partition(v).kind.traversable()
    };

    // Source expansion: Algorithm 1 with di = ps, v = P(ps).
    st.visited_parts[src_p.index()] = true;
    stats.partitions_expanded += 1;
    expand_partition(
        space,
        config,
        &query.source,
        checker,
        &mut st,
        &mut stats,
        src_p,
        None,
        0.0,
        &allowed,
        t0,
        &mut observer,
    );

    while let Some(entry) = st.heap.pop() {
        stats.heap_pops += 1;
        let di = match entry.node {
            Node::Target(_) => {
                if entry.dist > st.target_dist {
                    continue; // stale: the target improved after this push
                }
                // `reconstruct` is `None` only on a broken predecessor
                // invariant; degrade to "no such routes" rather than panic.
                let path = reconstruct(
                    &query.source,
                    &query.target,
                    config,
                    &st.dist,
                    &st.prev,
                    st.target_dist,
                    st.target_prev,
                    t0,
                );
                stats.search_bytes = st.search_bytes();
                checker.account(&mut stats);
                return (path, stats);
            }
            Node::Door(i) => i,
        };
        if st.settled[di as usize] {
            continue; // stale heap entry
        }
        st.settled[di as usize] = true;
        stats.doors_settled += 1;
        let door = DoorId(di);
        let d_di = st.dist[di as usize];

        // Lines 20–24: a door that can enter P(pt) relaxes pt directly …
        if st.enters_target[di as usize] {
            if let Some(pd) = space.point_to_door(&query.target, door) {
                let cand = d_di + pd;
                if cand < st.target_dist {
                    st.target_dist = cand;
                    st.target_prev = Some(di);
                    st.heap.push(cand, Node::Target(0));
                    stats.heap_pushes += 1;
                }
            }
            // … and, in the paper's reading, is not expanded any further.
            if config.expand == ExpandPolicy::PaperPruned {
                continue;
            }
        }

        // Lines 18–19 / full relaxation: choose partitions to expand.
        let came_from = st.prev[di as usize].map(|p| p.via);
        for vi in 0..space.d2p_enterable(door).len() {
            let v = space.d2p_enterable(door)[vi];
            if !allowed(v) {
                continue;
            }
            match config.expand {
                ExpandPolicy::PaperPruned => {
                    if st.visited_parts[v.index()] {
                        continue;
                    }
                    st.visited_parts[v.index()] = true;
                }
                ExpandPolicy::FullRelax => {
                    // Never expand back into the partition the door was
                    // reached through: distance-wise it cannot help (DM
                    // triangle inequality), and time-wise it would let paths
                    // *touch* a door to burn walking time until another door
                    // opens — waiting in disguise, which the paper's
                    // semantics exclude (footnote 2).
                    if Some(v) == came_from {
                        continue;
                    }
                }
            }
            stats.partitions_expanded += 1;
            expand_partition(
                space,
                config,
                &query.source,
                checker,
                &mut st,
                &mut stats,
                v,
                Some(di),
                d_di,
                &allowed,
                t0,
                &mut observer,
            );
        }
    }

    stats.search_bytes = st.search_bytes();
    checker.account(&mut stats);
    (None, stats) // line 10: "no such routes"
}

/// Lines 25–34: relax every (currently usable) leaveable door of `v`.
#[allow(clippy::too_many_arguments)]
fn expand_partition<C: TvChecker>(
    space: &IndoorSpace,
    config: &ItspqConfig,
    source: &IndoorPoint,
    checker: &mut C,
    st: &mut SearchState,
    stats: &mut SearchStats,
    v: PartitionId,
    from: Option<u32>,
    base_dist: f64,
    allowed: &dyn Fn(PartitionId) -> bool,
    t0: Timestamp,
    observer: &mut SweepObserver,
) {
    // Copy the view's door list: ITG/A's check() may swap the view mid-loop.
    st.scratch.clear();
    st.scratch.extend_from_slice(checker.leaveable(v));
    let mut k = 0;
    while k < st.scratch.len() {
        let dj = st.scratch[k];
        k += 1;
        if Some(dj.index() as u32) == from {
            continue;
        }
        if st.settled[dj.index()] {
            continue; // line 26: only unvisited doors
        }

        // Line 27–28: discard doors whose continuation is a forbidden private
        // partition (doors into P(ps)/P(pt) stay usable).
        if config.expand == ExpandPolicy::PaperPruned {
            let continues = space
                .d2p_enterable(dj)
                .iter()
                .any(|&u| u != v && allowed(u));
            if !continues {
                continue;
            }
        }

        // Line 29: dist_j = dist[di] + DM(v, di, dj)  (or |ps, dj| from ps).
        let weight = match from {
            Some(di) => space.door_to_door(v, DoorId(di), dj),
            None => space.point_to_door(source, dj),
        };
        let Some(weight) = weight else {
            // A missing *source leg* is member-specific state a replay must
            // check (a member with a leg here would relax a door the lead
            // never saw); missing door-to-door weights are venue geometry,
            // identical for every member.
            if from.is_none() {
                observer.push_missing_leg(dj.index() as u32);
            }
            continue;
        };
        let cand = base_dist + weight;
        stats.relaxations += 1;

        // Line 30: TV_Check(dj, dist_j, t).
        stats.tv_checks += 1;
        let open = checker.check(dj, cand, stats);
        if observer.track_margin {
            let arrival = t0 + config.velocity.travel_time(cand);
            let margin = space.checkpoints().margin_to_next(arrival);
            if margin < observer.min_margin_secs {
                observer.min_margin_secs = margin;
            }
        }
        observer.push_relax(dj.index() as u32, from, v);
        if !open {
            stats.tv_rejections += 1;
            continue;
        }

        // Lines 31–34.
        if cand < st.dist[dj.index()] {
            if st.dist[dj.index()].is_infinite() {
                st.touched_doors += 1;
            }
            st.dist[dj.index()] = cand;
            st.prev[dj.index()] = Some(PrevEntry { via: v, from });
            st.heap.push(cand, Node::Door(dj.index() as u32));
            stats.heap_pushes += 1;
            stats.improvements += 1;
        }
    }
}

/// Lines 11–17: walk the `prev` chain back from `pt` and emit hops in order.
///
/// Every relaxed door records a predecessor before entering the heap, so the
/// chain is complete whenever the target has been popped; `None` signals a
/// broken invariant and the caller answers "no such routes" instead of
/// unwinding. Shared verbatim by the single-target search and the
/// multi-target sweep of [`run_search_targets`], so grouped queries assemble
/// their paths through exactly the code their per-query twins use.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reconstruct(
    source: &IndoorPoint,
    target: &IndoorPoint,
    config: &ItspqConfig,
    dist: &[f64],
    prev: &[Option<PrevEntry>],
    target_dist: f64,
    target_prev: Option<u32>,
    t0: Timestamp,
) -> Option<Path> {
    let mut doors_rev: Vec<u32> = Vec::new();
    let mut cur = target_prev?;
    loop {
        doors_rev.push(cur);
        match prev[cur as usize]?.from {
            Some(p) => cur = p,
            None => break,
        }
    }
    doors_rev.reverse();

    let mut hops = Vec::with_capacity(doors_rev.len());
    for &di in &doors_rev {
        let p = prev[di as usize]?;
        let d = dist[di as usize];
        hops.push(DoorHop {
            door: DoorId(di),
            via_partition: p.via,
            distance: d,
            arrival: t0 + config.velocity.travel_time(d),
        });
    }

    Some(Path {
        source: *source,
        target: *target,
        hops,
        length: target_dist,
        departure: t0,
        arrival: t0 + config.velocity.travel_time(target_dist),
    })
}

/// The straight-segment answer for a target sharing the source's partition —
/// the exact short-circuit `run_search` takes before any expansion.
pub(crate) fn direct_path(
    source: &IndoorPoint,
    target: &IndoorPoint,
    config: &ItspqConfig,
    t0: Timestamp,
) -> Path {
    let length = source.position.distance(target.position);
    Path {
        source: *source,
        target: *target,
        hops: Vec::new(),
        length,
        departure: t0,
        arrival: t0 + config.velocity.travel_time(length),
    }
}

/// One shared Dijkstra frontier answering a whole group of targets: the
/// multi-target generalisation of Algorithm 1 that `VenueServer`'s shared
/// batch execution and [`crate::one_to_many`] run one group at a time.
///
/// Under [`ExpandPolicy::FullRelax`] the door relaxations of Algorithm 1 do
/// not depend on the target at all (the virtual target node is only ever
/// *relaxed from* settled doors, never expanded), so a single sweep can carry
/// any number of targets and each finalises — at its heap pop, exactly as in
/// its own search — with byte-identical distance, predecessor chain and
/// checker-state history to the per-query run. The sweep ends when every
/// target has popped or the frontier is exhausted (`None` = "no such
/// routes").
///
/// Preconditions, enforced by callers (the server's batch planner and
/// `one_to_many`) and debug-asserted here, because each would reintroduce a
/// target-dependence that breaks the sharing argument:
///
/// * `config.expand` is `FullRelax` — `PaperPruned` prunes doors that enter
///   the target's partition, differently per target;
/// * every target's partition is traversable or is the source's own —
///   Rule 2 exempts `P(pt)`, so a *private* target partition enlarges the
///   traversable set for that query alone.
///
/// Targets sharing the source's partition are answered with the straight
/// segment, as in the single-target short-circuit.
pub(crate) fn run_search_targets<C: TvChecker>(
    graph: &ItGraph,
    source: &IndoorPoint,
    time: TimeOfDay,
    targets: &[IndoorPoint],
    config: &ItspqConfig,
    checker: &mut C,
    observer: &mut SweepObserver,
) -> (Vec<Option<Path>>, SearchStats) {
    debug_assert!(
        config.expand == ExpandPolicy::FullRelax,
        "shared execution requires FullRelax (target-independent relaxations)"
    );
    let space = graph.space();
    let mut stats = SearchStats::default();
    let t0 = Timestamp::from_time_of_day(time);
    let src_p = source.partition;

    let mut paths: Vec<Option<Path>> = vec![None; targets.len()];
    let mut target_dist = vec![f64::INFINITY; targets.len()];
    let mut target_prev: Vec<Option<u32>> = vec![None; targets.len()];
    let mut done = vec![false; targets.len()];
    let mut remaining = 0usize;

    // Doors that can enter each pending target's partition, door-indexed.
    let mut enters: Vec<Vec<u32>> = vec![Vec::new(); space.num_doors()];
    for (k, target) in targets.iter().enumerate() {
        if target.partition == src_p {
            paths[k] = Some(direct_path(source, target, config, t0));
            done[k] = true;
            continue;
        }
        debug_assert!(
            space.partition(target.partition).kind.traversable(),
            "shared execution requires traversable target partitions"
        );
        remaining += 1;
        for &d in space.p2d_enterable(target.partition) {
            enters[d.index()].push(k as u32);
        }
    }
    if remaining == 0 {
        checker.account(&mut stats);
        return (paths, stats);
    }

    // The single-target state, reused so `expand_partition` is shared
    // verbatim; its per-target fields (`enters_target`, `target_dist`,
    // `target_prev`) stay untouched — this sweep keeps its own per-target
    // arrays instead.
    let mut st = SearchState::new(space, src_p);

    // Rule 2 under the preconditions: every partition a route may traverse is
    // traversable or the source's own (target partitions are traversable).
    let allowed = |v: PartitionId| -> bool { v == src_p || space.partition(v).kind.traversable() };

    st.visited_parts[src_p.index()] = true;
    stats.partitions_expanded += 1;
    expand_partition(
        space, config, source, checker, &mut st, &mut stats, src_p, None, 0.0, &allowed, t0,
        observer,
    );

    while let Some(entry) = st.heap.pop() {
        stats.heap_pops += 1;
        let di = match entry.node {
            Node::Target(k) => {
                let k = k as usize;
                if done[k] || entry.dist > target_dist[k] {
                    continue; // finalised already, or stale after an improvement
                }
                paths[k] = reconstruct(
                    source,
                    &targets[k],
                    config,
                    &st.dist,
                    &st.prev,
                    target_dist[k],
                    target_prev[k],
                    t0,
                );
                done[k] = true;
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
                continue;
            }
            Node::Door(i) => i,
        };
        if st.settled[di as usize] {
            continue; // stale heap entry
        }
        st.settled[di as usize] = true;
        stats.doors_settled += 1;
        let door = DoorId(di);
        let d_di = st.dist[di as usize];
        let came_from = st.prev[di as usize].map(|p| p.via);
        observer.push_settle(di, came_from);

        // Lines 20–24 per pending target: a settled door entering P(pt)
        // relaxes that target directly.
        for &k in &enters[di as usize] {
            let k = k as usize;
            if done[k] {
                continue;
            }
            if let Some(pd) = space.point_to_door(&targets[k], door) {
                let cand = d_di + pd;
                observer.push_target(k as u32, di, pd);
                if cand < target_dist[k] {
                    target_dist[k] = cand;
                    target_prev[k] = Some(di);
                    st.heap.push(cand, Node::Target(k as u32));
                    stats.heap_pushes += 1;
                }
            }
        }

        // Full relaxation: expand every enterable partition except the one
        // the door was reached through (see `run_search` for why).
        for vi in 0..space.d2p_enterable(door).len() {
            let v = space.d2p_enterable(door)[vi];
            if !allowed(v) || Some(v) == came_from {
                continue;
            }
            stats.partitions_expanded += 1;
            expand_partition(
                space,
                config,
                source,
                checker,
                &mut st,
                &mut stats,
                v,
                Some(di),
                d_di,
                &allowed,
                t0,
                observer,
            );
        }
    }

    stats.search_bytes = st.search_bytes() + targets.len() * (std::mem::size_of::<f64>() + 2 + 8);
    checker.account(&mut stats);
    (paths, stats)
}
