//! Algorithm 1 — `ITSPQ_ITGraph`: the shared search framework.
//!
//! The framework is a Dijkstra-style expansion over doors using each
//! partition's distance matrix for intra-partition hops, parameterised by a
//! [`TvChecker`]: the synchronous check of Algorithm 2 (ITG/S), the
//! asynchronous reduced-graph check of Algorithm 4 (ITG/A), or a baseline's.
//!
//! Its expansion loop, [`run_search_targets`], is a sweep from one source
//! toward any number of targets. A point query is the sweep with one
//! target, a shared batch group the sweep with many, a reachability map the
//! sweep with none, run until its frontier is empty, and a spur of Yen's
//! algorithm (`crate::ksp`) the one-target sweep from a [`Seed`] door with
//! some doors banned.
//!
//! A sweep with one target settles doors in Dijkstra's order first and may
//! then switch to landmark order (`crate::landmarks`): see
//! [`run_search_targets`].
//!
//! Three Dijkstra loops stay outside the sweep, because none is the sweep
//! with other arguments:
//!
//! * `baselines::door_distances` expands back into the partition a door was
//!   reached through. From a source in a stair lobby that is a touch that
//!   shortens labels: walk to the up door at the lobby's centre, then take
//!   its 10 m half-flight to the hallway door instead of the 40 m point leg.
//!   Its labels feed `generate_queries`, so a zero-target sweep in its place
//!   would change generated workloads;
//! * `waiting::earliest_arrival` labels doors with crossing times, not
//!   distances;
//! * the landmark table's builder (`crate::landmarks`) runs from a door over
//!   a static graph that admits every partition and every expansion, and
//!   rounds each sum down to an `f32`.
//!
//! A sweep's per-door labels live in a [`SearchState`] pooled per thread,
//! so a warm query costs what it explores rather than O(|doors|):
//!
//! * **take** — the sweep moves the thread's state out of its slot and
//!   resizes it to the venue. The slot is empty, and a fresh state is
//!   allocated, on a thread's first sweep, in a sweep nested inside another,
//!   after a panic dropped the state mid-sweep, and during thread-local
//!   teardown;
//! * **give back** — on exit the sweep undoes only its own writes, read off
//!   the state's touched lists, and returns the state to the slot.
//!
//! The state's invariant between sweeps is that every label is at its
//! default (`∞`, no predecessor, unsettled, unvisited); it holds because
//! every write to a label array is recorded in a touched list. A thread
//! keeps its state, sized to the largest venue it served, until it exits.
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

use std::cell::Cell;

use indoor_space::{DoorId, IndoorPoint, IndoorSpace, PartitionId};
use indoor_time::{TimeOfDay, Timestamp};

use crate::heap::{MinHeap, Node};
use crate::landmarks::Bound;
use crate::{
    known_partition, DoorHop, ExpandPolicy, ItGraph, ItspqConfig, Path, Query, SearchStats,
};

/// How many doors an eligible sweep settles in Dijkstra's order before it
/// switches to landmark order ([`run_search_targets`]). A short query ends
/// first and never reads the landmark table: a 100 m query on the 50-floor
/// mall settles a handful of doors.
pub(crate) const GOAL_AFTER: usize = 64;

/// The pluggable temporal-variation strategy: a topology view plus `TV_Check`.
///
/// `'a` is the lifetime of the venue and views the checker reads, so a
/// door list stays valid while `check` moves the checker to another view.
pub(crate) trait TvChecker<'a> {
    /// The doors through which partition `v` can currently be left, for an
    /// expansion from a door labelled `base` metres, and whether the list is
    /// *vouched*: each door on it is open, and each leaveable door left off
    /// it is closed, at every arrival this expansion can produce, so the
    /// sweep relaxes it without `TV_Check`. `base` is `None` where every
    /// relaxation must be checked; no list is vouched there.
    fn leaveable(&self, v: PartitionId, base: Option<f64>) -> (&'a [DoorId], bool);

    /// `TV_Check(d, dist, t)`: whether door `d`, reached after walking `dist`
    /// metres from `ps`, is usable. ITG/A may refresh its reduced view here.
    fn check(&mut self, d: DoorId, dist: f64, stats: &mut SearchStats) -> bool;

    /// Final accounting hook (reduced-graph bytes for ITG/A).
    fn account(&self, stats: &mut SearchStats);

    /// Whether `check`'s verdict on a relaxation depends only on the door
    /// and the arrival, never on the relaxations before it, so a sweep may
    /// relax in landmark order and reach Dijkstra's answers (ITG/S, ITG/A
    /// Exact, the baselines; not the Faithful cursor).
    fn order_free(&self) -> bool;
}

/// The order a sweep settles doors in: Dijkstra's ([`Dijkstra`]) or
/// landmark order (`crate::landmarks::Bound`).
pub(crate) trait Order {
    /// Whether the order differs from Dijkstra's, so that at equal labels a
    /// relaxation must keep the writer Dijkstra's order reaches first
    /// ([`writes_first`]) rather than the first to arrive.
    const GOAL: bool;

    /// The queue key of door `d` labelled `g`, or `None` if no walk from
    /// `d` can reach the target, in which case the door is never pushed.
    fn key(&self, g: f64, d: usize) -> Option<f64>;
}

/// Dijkstra's order: a door's key is its label.
pub(crate) struct Dijkstra;

impl Order for Dijkstra {
    const GOAL: bool = false;

    #[inline(always)]
    fn key(&self, g: f64, _d: usize) -> Option<f64> {
        Some(g)
    }
}

/// Whether a writer `(label, door)` comes before another in Dijkstra's
/// order, which pops doors by label and then by index: at an equal label,
/// the writer that order keeps. The source expansion, which has no door,
/// precedes every door and is never passed in.
#[inline]
fn writes_first(writer: (f64, u32), kept: (f64, u32)) -> bool {
    writer.0 < kept.0 || (writer.0 <= kept.0 && writer.1 < kept.1)
}

/// Predecessor of a relaxed door.
#[derive(Debug, Clone, Copy)]
struct PrevEntry {
    /// Partition crossed to reach the door.
    via: PartitionId,
    /// Previous door index, or `None` when coming directly from `ps`.
    from: Option<u32>,
}

/// Where a sweep starts instead of `ps`: a door the caller's walk has already
/// crossed (a spur of Yen's algorithm, `crate::ksp`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Seed {
    pub(crate) door: DoorId,
    /// Metres walked from `ps` to the door.
    pub(crate) dist: f64,
    /// The partition the door was crossed from.
    pub(crate) via: PartitionId,
}

/// What a caller asks of [`run_search_targets`] besides its answers: the
/// retime certificate's recorder, a running minimum of the margin between
/// each checked arrival and its next checkpoint (off by default, making the
/// observer free on the per-query path), and where an eligible sweep
/// switches to landmark order.
#[derive(Debug)]
pub(crate) struct SweepObserver {
    /// Track `min_margin_secs` across every `TV_Check` arrival.
    track_margin: bool,
    /// Smallest margin (seconds) from any checked arrival to its next
    /// checkpoint; `f64::INFINITY` when no check happened. A member whose
    /// departure lags the lead's by strictly less than this margin (minus a
    /// rounding slack) certifiably makes the identical `TV_Check` decisions.
    /// A degenerate (∞/NaN) arrival saturates its margin to `0.0`, so no
    /// member retimes against it.
    pub(crate) min_margin_secs: f64,
    /// Doors an eligible sweep settles in Dijkstra's order before it
    /// switches to landmark order; `None` never switches. [`GOAL_AFTER`]
    /// outside the exactness test.
    goal_after: Option<usize>,
}

impl SweepObserver {
    /// An inert observer: tracks nothing.
    pub(crate) fn off() -> Self {
        Self::new(false)
    }

    pub(crate) fn new(track_margin: bool) -> Self {
        SweepObserver {
            track_margin,
            min_margin_secs: f64::INFINITY,
            goal_after: Some(GOAL_AFTER),
        }
    }

    /// The observer with the switch to landmark order moved (`None`: never).
    #[cfg(test)]
    pub(crate) fn with_goal_after(mut self, goal_after: Option<usize>) -> Self {
        self.goal_after = goal_after;
        self
    }
}

thread_local! {
    /// This thread's pooled search state; `None` while a sweep holds it.
    static POOL: Cell<Option<SearchState>> = const { Cell::new(None) };
}

/// A sweep's label arrays, dense over the venue's doors and partitions, and
/// its priority queue, pooled per thread (see the module docs).
///
/// Between sweeps every label is at its default. A sweep may write a label
/// only together with a touched-list entry: `dist`, `prev` and `settled`
/// through `touched`, `visited_parts` through `visited`. Giving the state
/// back resets exactly those entries, so the cost of a reset follows the
/// search, not the venue.
#[derive(Default)]
struct SearchState {
    dist: Vec<f64>,
    prev: Vec<Option<PrevEntry>>,
    settled: Vec<bool>,
    visited_parts: Vec<bool>,
    heap: MinHeap,
    /// Distinct doors with a written label: every door whose tentative
    /// distance left ∞, plus a sweep's seed and banned doors — the populated
    /// part of the search state, which is what a map-based implementation
    /// (like the paper's Java one) would actually hold.
    touched: Vec<u32>,
    /// Partitions marked in `visited_parts`.
    visited: Vec<u32>,
    /// The capacity a per-sweep `Vec<DoorId>` copy of each expanded door
    /// list would reach, counted by [`SearchState::search_bytes`].
    scratch_cap: usize,
}

impl SearchState {
    /// Takes this thread's pooled state, or a fresh one when the slot is
    /// empty, sized for `space`.
    fn take(space: &IndoorSpace) -> Self {
        let mut st = POOL.try_with(Cell::take).ok().flatten().unwrap_or_default();
        // Every label is at its default, so resizing keeps the invariant.
        st.dist.resize(space.num_doors(), f64::INFINITY);
        st.prev.resize(space.num_doors(), None);
        st.settled.resize(space.num_doors(), false);
        st.visited_parts.resize(space.num_partitions(), false);
        st
    }

    /// Undoes the sweep's writes and returns the state to this thread's slot
    /// (it is dropped instead during thread-local teardown).
    fn give_back(mut self) {
        for &d in &self.touched {
            self.dist[d as usize] = f64::INFINITY;
            self.prev[d as usize] = None;
            self.settled[d as usize] = false;
        }
        for &v in &self.visited {
            self.visited_parts[v as usize] = false;
        }
        self.touched.clear();
        self.visited.clear();
        self.heap.clear();
        self.scratch_cap = 0;
        debug_assert!(
            self.dist.iter().all(|d| *d == f64::INFINITY)
                && self.prev.iter().all(Option::is_none)
                && !self.settled.contains(&true)
                && !self.visited_parts.contains(&true),
            "a sweep wrote a label without recording it in a touched list"
        );
        let _ = POOL.try_with(|slot| slot.set(Some(self)));
    }

    fn visit(&mut self, v: PartitionId) {
        self.visited_parts[v.index()] = true;
        self.visited.push(v.index() as u32);
    }

    /// Counts a door list the sweep iterates: a fresh `Vec<DoorId>` cleared
    /// and refilled with it would grow to `max(2 · cap, len, 4)`.
    fn note_scratch(&mut self, len: usize) {
        if len > self.scratch_cap {
            self.scratch_cap = len.max(2 * self.scratch_cap).max(4);
        }
    }

    /// The paper's memory-cost metric counts the *populated* search state —
    /// per touched door a map entry of distance, predecessor and flags — plus
    /// the priority queue at its peak and the door-list buffer. A dense-array
    /// implementation would add a constant O(|doors|) that hides the
    /// day-curve of Figure 7.
    fn search_bytes(&self) -> usize {
        const PER_DOOR_ENTRY: usize = std::mem::size_of::<f64>()
            + std::mem::size_of::<Option<PrevEntry>>()
            + 2 * std::mem::size_of::<u64>(); // map-entry overhead (key + bucket)
        self.touched.len() * PER_DOOR_ENTRY
            + self.heap.peak() * std::mem::size_of::<crate::heap::Entry>()
            + self.scratch_cap * std::mem::size_of::<DoorId>()
    }
}

/// A target's label: its tentative distance and the door it was last relaxed
/// from, final once `done` (its heap pop).
#[derive(Debug, Clone, Copy)]
struct TargetLabel {
    dist: f64,
    prev: Option<u32>,
    done: bool,
}

/// What a sweep hands back: one answer per target (input order) and the
/// search's counters.
pub(crate) struct Sweep {
    pub(crate) paths: Vec<Option<Path>>,
    pub(crate) stats: SearchStats,
    /// The final door labels (`∞` = not reached), copied out of the pooled
    /// state only by a sweep without targets, which runs until its frontier
    /// is empty; empty for every other sweep.
    pub(crate) door_dist: Vec<f64>,
}

/// Answers one query as the one-target sweep of [`run_search_targets`] (the
/// baselines and `paths_to_many`'s private-target fallback call it; the
/// engines go through their own `query_targets`).
pub(crate) fn run_search<'a, C: TvChecker<'a>>(
    graph: &ItGraph,
    query: &Query,
    config: &ItspqConfig,
    checker: &mut C,
) -> (Option<Path>, SearchStats) {
    let mut sweep = run_search_targets(
        graph,
        &query.source,
        query.time,
        std::slice::from_ref(&query.target),
        config,
        checker,
        &mut SweepObserver::off(),
        None,
        &[],
    );
    (sweep.paths.pop().flatten(), sweep.stats)
}

/// The row of door `di` in partition `v`'s distance matrix, read column by
/// column along an expansion's door list.
///
/// Both lists ascend (`DistanceMatrix::build` sorts every matrix's doors),
/// so each door's column is found by walking a cursor forward over the
/// matrix's door list. An expansion then costs one binary search for the
/// row and one pass over the door list, where `DistanceMatrix::distance`
/// costs two binary searches per door. Where the walk misses (an expansion
/// list out of order, a door the matrix lacks) the binary search answers.
pub(crate) struct RowWalk<'s> {
    /// The matrix's door list, which the row's columns follow.
    doors: &'s [DoorId],
    row: &'s [f64],
    /// The walk's cursor into `doors`.
    col: usize,
}

impl<'s> RowWalk<'s> {
    /// The walk along `di`'s row of `v`'s matrix, or `None` if the matrix
    /// has no row for `di`.
    pub(crate) fn new(graph: &'s ItGraph, v: PartitionId, di: DoorId) -> Option<Self> {
        let dm = graph.space().distance_matrix(v);
        Some(RowWalk {
            doors: dm.doors(),
            row: dm.row(di)?,
            col: 0,
        })
    }

    /// `DM(v, di, dj)`: exactly `DistanceMatrix::distance(di, dj)`, bit for
    /// bit, `None` included.
    pub(crate) fn leg(&mut self, dj: DoorId) -> Option<f64> {
        while self.doors.get(self.col).is_some_and(|&d| d < dj) {
            self.col += 1;
        }
        let j = match self.doors.get(self.col) {
            Some(&d) if d == dj => self.col,
            _ => self.doors.binary_search(&dj).ok()?,
        };
        self.row.get(j).copied()
    }
}

/// The debug cross-check of a vouched expansion of `v` from door `from`
/// labelled `base` metres: by `Syn_Check` (the door's ATIs at the leg's
/// arrival), each leaveable door with a leg from `from` is on `doors`
/// exactly when it is open, and `doors` keeps the order of `v`'s full list.
/// The source expansion is never vouched for. It reads ATIs only, so it
/// leaves the checker and every counter as they were.
fn vouch_holds(
    space: &IndoorSpace,
    config: &ItspqConfig,
    t0: Timestamp,
    v: PartitionId,
    from: Option<u32>,
    base: f64,
    doors: &[DoorId],
) -> bool {
    let Some(di) = from.map(DoorId) else {
        return false;
    };
    let mut listed = doors.iter().peekable();
    space.p2d_leaveable(v).iter().all(|&dj| {
        let on_list = listed.next_if_eq(&&dj).is_some();
        space.door_to_door(v, di, dj).is_none_or(|w| {
            let arrival = t0 + config.velocity.travel_time(base + w);
            space.door(dj).atis.is_open_at(arrival) == on_list
        })
    }) && listed.next().is_none()
}

/// Lines 11–17: walk the `prev` chain back from `pt` and emit hops in order.
///
/// Every relaxed door records a predecessor before entering the heap, so the
/// chain is complete whenever the target has been popped; `None` signals a
/// broken invariant and the caller answers "no such routes" instead of
/// unwinding.
fn reconstruct(
    source: &IndoorPoint,
    target: &IndoorPoint,
    config: &ItspqConfig,
    st: &SearchState,
    label: &TargetLabel,
    t0: Timestamp,
) -> Option<Path> {
    let mut doors_rev: Vec<u32> = Vec::new();
    let mut cur = label.prev?;
    loop {
        doors_rev.push(cur);
        match st.prev[cur as usize]?.from {
            Some(p) => cur = p,
            None => break,
        }
    }
    doors_rev.reverse();

    let mut hops = Vec::with_capacity(doors_rev.len());
    for &di in &doors_rev {
        let p = st.prev[di as usize]?;
        let d = st.dist[di as usize];
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
        length: label.dist,
        departure: t0,
        arrival: t0 + config.velocity.travel_time(label.dist),
    })
}

/// The straight-segment answer for a target sharing the source's partition:
/// no door is crossed, so the sweep answers it before any expansion.
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

/// Algorithm 1 as one sweep from `source` at `time` toward any number of
/// targets (see the module docs for the loops that stay outside it):
///
/// * a point query is a sweep with one target ([`run_search`], the engines'
///   `query`);
/// * a shared group is a sweep with many (`VenueServer`'s shared batches,
///   [`crate::one_to_many::paths_to_many`]);
/// * a reachability map is a sweep with none: it runs until the frontier is
///   empty and reads the door labels ([`crate::one_to_many::reachability`]);
/// * a spur of Yen's algorithm is a one-target sweep from a `seed`, with
///   `banned` doors ([`crate::ksp`]).
///
/// A `seed` replaces the source expansion: its door is labelled with the
/// seed's distance and settled without relaxing any target, then expanded
/// as a settled door is under `FullRelax` (which a seed requires), so never
/// back into the partition it was crossed from. Its hop heads the returned
/// chain. A `banned` door is marked settled (and recorded in the touched
/// list) before the sweep starts, so no relaxation reaches it.
///
/// Each target is a virtual node, relaxed from every settled door that can
/// enter its partition (lines 20–24) and finalised at its heap pop
/// (lines 11–17). The sweep ends when every target has popped or the
/// frontier is exhausted (`None` = "no such routes"). A target in the
/// source's partition gets the straight segment ([`direct_path`]).
///
/// Two rules of Algorithm 1 depend on the target, so only a one-target sweep
/// applies them:
///
/// * [`ExpandPolicy::PaperPruned`] does not expand a door that enters the
///   target's partition, and expands each partition once (`visited_parts`);
/// * Rule 2 exempts `P(pt)` as well as `P(ps)`, so a private or outdoor
///   target partition is the sweep's one exempt partition.
///
/// Without them — `FullRelax`, no exempt partition — door relaxations do not
/// depend on the targets at all (a target node is only ever *relaxed from*
/// settled doors, never expanded). So every target of a shared sweep
/// finalises with the distance, predecessor chain and checker-state history
/// of its own point query: the point query *is* the one-target sweep. Hence
/// a sweep with any other number of targets requires `FullRelax` and
/// traversable-or-source target partitions; callers (the server's planner,
/// `one_to_many`) enforce both, and this function debug-asserts them.
///
/// A sweep with one target, no seed and no banned door, under `FullRelax`
/// and with an order-free checker ([`TvChecker::order_free`]), runs in two
/// phases. It settles its first [`GOAL_AFTER`] doors in Dijkstra's order;
/// if its target is still pending then, it re-keys its queue in place to
/// `g + h`, with `h` the venue's landmark bound toward the target, and
/// settles the rest in that order (`crate::landmarks`). It settles fewer
/// doors and returns the answer Dijkstra's order returns
/// (`ARCHITECTURE.md` §"Landmark order for long one-target sweeps"); its
/// counters show the work it did. Every other sweep keeps Dijkstra's order.
#[expect(
    clippy::too_many_arguments,
    reason = "the one sweep behind every entry point; each argument is a caller's choice"
)]
pub(crate) fn run_search_targets<'a, C: TvChecker<'a>>(
    graph: &ItGraph,
    source: &IndoorPoint,
    time: TimeOfDay,
    targets: &[IndoorPoint],
    config: &ItspqConfig,
    checker: &mut C,
    observer: &mut SweepObserver,
    seed: Option<Seed>,
    banned: &[DoorId],
) -> Sweep {
    let space = graph.space();
    let mut stats = SearchStats::default();
    let t0 = Timestamp::from_time_of_day(time);
    let src_p = source.partition;

    // Rule 2: private partitions may be traversed only if they contain ps/pt.
    let exempt = match targets {
        [target] => Some(target.partition),
        _ => None,
    };
    debug_assert!(
        exempt.is_some()
            || (config.expand == ExpandPolicy::FullRelax
                && targets.iter().all(|t| {
                    t.partition == src_p || space.partition(t.partition).kind.traversable()
                })),
        "a shared sweep requires FullRelax and traversable target partitions"
    );
    debug_assert!(
        seed.is_none() || config.expand == ExpandPolicy::FullRelax,
        "a seeded sweep requires FullRelax"
    );

    let mut paths: Vec<Option<Path>> = vec![None; targets.len()];
    let labels = vec![
        TargetLabel {
            dist: f64::INFINITY,
            prev: None,
            done: false,
        };
        targets.len()
    ];
    // Pending targets sorted by partition: a settled door finds the targets
    // it enters through its own `d2p_enterable` list. An endpoint in a
    // partition the venue lacks leaves its target at "no such routes".
    let known_source = known_partition(space, src_p);
    let mut by_partition: Vec<(PartitionId, u32)> = Vec::new();
    for (k, target) in targets.iter().enumerate() {
        if !known_source || !known_partition(space, target.partition) {
            continue;
        }
        if target.partition == src_p {
            paths[k] = Some(direct_path(source, target, config, t0));
        } else {
            by_partition.push((target.partition, k as u32));
        }
    }
    by_partition.sort_unstable();
    let pending = by_partition.len();
    if !known_source || (pending == 0 && !targets.is_empty()) {
        checker.account(&mut stats);
        return Sweep {
            paths,
            stats,
            door_dist: Vec::new(),
        };
    }

    // The target a sweep may switch to landmark order for, and when.
    let goal = match targets {
        [target]
            if seed.is_none()
                && banned.is_empty()
                && config.expand == ExpandPolicy::FullRelax
                && checker.order_free() =>
        {
            observer.goal_after.map(|after| (target, after))
        }
        _ => None,
    };

    let mut sweep = Sweeper {
        graph,
        config,
        source,
        targets,
        t0,
        exempt,
        checker,
        observer,
        st: SearchState::take(space),
        stats,
        labels,
        paths,
        by_partition,
        pending,
    };
    // Banned doors and the seed door count as settled, so no relaxation
    // reaches them.
    let st = &mut sweep.st;
    for d in banned.iter().chain(seed.iter().map(|s| &s.door)) {
        if !st.settled[d.index()] {
            st.settled[d.index()] = true;
            st.touched.push(d.index() as u32);
        }
    }
    match seed {
        // Source expansion: Algorithm 1 with di = ps, v = P(ps).
        None => {
            sweep.st.visit(src_p);
            sweep.stats.partitions_expanded += 1;
            sweep.expand(&Dijkstra, src_p, None, 0.0);
        }
        // The seed door gets its label, relaxes no target, and is expanded
        // as a settled door is under FullRelax: never back into the
        // partition it was crossed from.
        Some(seed) => {
            let e = seed.door.index();
            sweep.st.dist[e] = seed.dist;
            sweep.st.prev[e] = Some(PrevEntry {
                via: seed.via,
                from: None,
            });
            for &v in space.d2p_enterable(seed.door) {
                if v != seed.via && sweep.allowed(v) {
                    sweep.stats.partitions_expanded += 1;
                    sweep.expand(&Dijkstra, v, Some(e as u32), seed.dist);
                }
            }
        }
    }

    sweep.settle(&Dijkstra, goal.map_or(usize::MAX, |(_, after)| after));
    if let Some((target, _)) = goal {
        if sweep.pending > 0 && !sweep.st.heap.is_empty() {
            let bound = graph.landmarks().bound(space, target);
            sweep.rekey(&bound);
            sweep.settle(&bound, usize::MAX);
        }
    }
    sweep.finish()
}

/// One sweep's loop state: its arguments, its pooled labels and its
/// target labels, so that each phase of [`run_search_targets`] runs the same
/// loop in its own order.
struct Sweeper<'s, C> {
    graph: &'s ItGraph,
    config: &'s ItspqConfig,
    source: &'s IndoorPoint,
    targets: &'s [IndoorPoint],
    t0: Timestamp,
    /// The partition Rule 2 exempts besides `P(ps)`: a one-target sweep's
    /// `P(pt)`.
    exempt: Option<PartitionId>,
    checker: &'s mut C,
    observer: &'s mut SweepObserver,
    st: SearchState,
    stats: SearchStats,
    labels: Vec<TargetLabel>,
    paths: Vec<Option<Path>>,
    /// Pending targets by partition (see [`run_search_targets`]).
    by_partition: Vec<(PartitionId, u32)>,
    pending: usize,
}

impl<'a, C: TvChecker<'a>> Sweeper<'_, C> {
    /// Rule 2: whether the sweep may enter partition `v`.
    #[inline(always)]
    fn allowed(&self, v: PartitionId) -> bool {
        allowed(self.graph.space(), self.source.partition, self.exempt, v)
    }

    /// Pops and settles doors in `order` until the target set is done, the
    /// frontier is empty, or `limit` doors have settled.
    fn settle<O: Order>(&mut self, order: &O, limit: usize) {
        let space = self.graph.space();
        while self.stats.doors_settled < limit {
            let Some(entry) = self.st.heap.pop() else {
                break;
            };
            self.stats.heap_pops += 1;
            let di = match entry.node {
                Node::Target(k) => {
                    let label = &mut self.labels[k as usize];
                    if label.done || entry.dist > label.dist {
                        continue; // finalised already, or stale after an improvement
                    }
                    label.done = true;
                    // `reconstruct` is `None` only on a broken predecessor
                    // invariant; degrade to "no such routes" rather than panic.
                    self.paths[k as usize] = reconstruct(
                        self.source,
                        &self.targets[k as usize],
                        self.config,
                        &self.st,
                        label,
                        self.t0,
                    );
                    self.pending -= 1;
                    if self.pending == 0 {
                        break;
                    }
                    continue;
                }
                Node::Door(i) => i,
            };
            if self.st.settled[di as usize] {
                continue; // stale heap entry
            }
            self.st.settled[di as usize] = true;
            self.stats.doors_settled += 1;
            let door = DoorId(di);
            let d_di = self.st.dist[di as usize];
            let came_from = self.st.prev[di as usize].map(|p| p.via);

            // Lines 20–24: a door that can enter a pending target's partition
            // relaxes that target directly …
            let mut into_target = false;
            for &v in space.d2p_enterable(door) {
                let first = self.by_partition.partition_point(|&(p, _)| p < v);
                for &(_, k) in self.by_partition[first..]
                    .iter()
                    .take_while(|&&(p, _)| p == v)
                {
                    into_target = true;
                    let label = &mut self.labels[k as usize];
                    if label.done {
                        continue;
                    }
                    if let Some(pd) = space.point_to_door(&self.targets[k as usize], door) {
                        let cand = d_di + pd;
                        if cand < label.dist {
                            label.dist = cand;
                            label.prev = Some(di);
                            self.st.heap.push(cand, Node::Target(k));
                            self.stats.heap_pushes += 1;
                        } else if O::GOAL
                            && cand <= label.dist
                            && label.prev.is_some_and(|q| {
                                writes_first((d_di, di), (self.st.dist[q as usize], q))
                            })
                        {
                            label.prev = Some(di);
                        }
                    }
                }
            }
            // … and, in the paper's reading, is not expanded any further.
            if into_target && self.config.expand == ExpandPolicy::PaperPruned {
                continue;
            }

            // Lines 18–19 / full relaxation: choose partitions to expand.
            for &v in space.d2p_enterable(door) {
                if !self.allowed(v) {
                    continue;
                }
                match self.config.expand {
                    ExpandPolicy::PaperPruned => {
                        if self.st.visited_parts[v.index()] {
                            continue;
                        }
                        self.st.visit(v);
                    }
                    ExpandPolicy::FullRelax => {
                        // Never expand back into the partition the door was
                        // reached through: it would let paths *touch* a door
                        // to burn walking time until another door opens —
                        // waiting in disguise, which the paper's semantics
                        // exclude (footnote 2). Distance-wise this loses
                        // nothing where the triangle inequality holds, which
                        // it does inside one distance matrix but not between
                        // a point leg and an explicit distance such as a
                        // stair's half-flight. The target side keeps its
                        // touch: a door reached through `P(pt)` still relaxes
                        // `pt` (ARCHITECTURE.md §"Deviations from the paper").
                        if Some(v) == came_from {
                            continue;
                        }
                    }
                }
                self.stats.partitions_expanded += 1;
                self.expand(order, v, Some(di), d_di);
            }
        }
    }

    /// Lines 25–34: relax every (currently usable) leaveable door of `v`
    /// from `from` (`None`: the source) labelled `base_dist`. The doors of
    /// a vouched list (see [`TvChecker::leaveable`]) skip line 30.
    ///
    /// Inlined at each call site (source, seed, settled door): it runs once
    /// per expanded partition, where a call measurably slows long sweeps.
    #[inline(always)]
    fn expand<O: Order>(&mut self, order: &O, v: PartitionId, from: Option<u32>, base_dist: f64) {
        let graph = self.graph;
        let space = graph.space();
        let (src_p, exempt) = (self.source.partition, self.exempt);
        let Sweeper {
            config,
            source,
            t0,
            checker,
            observer,
            st,
            stats,
            ..
        } = self;
        let (config, t0) = (*config, *t0);
        // No list is vouched for the source expansion, whose point legs are
        // no distance-matrix entries, nor for an observer that tracks margins
        // (retime needs every checked arrival).
        let base = (from.is_some() && !observer.track_margin).then_some(base_dist);
        // The list outlives the checker's views, so ITG/A's check() may move
        // to another view mid-loop without changing the doors iterated here.
        let (doors, vouched) = checker.leaveable(v, base);
        debug_assert!(
            !vouched || vouch_holds(space, config, t0, v, from, base_dist, doors),
            "a vouched door list of {v:?} disagrees with Syn_Check"
        );
        st.note_scratch(doors.len());
        // Line 29's matrix lookups read the expanding door's row.
        let mut walk = from.and_then(|di| RowWalk::new(graph, v, DoorId(di)));
        let mut leg = |dj: DoorId| match from {
            Some(_) => walk.as_mut().and_then(|walk| walk.leg(dj)),
            None => space.point_to_door(source, dj),
        };
        for &dj in doors {
            if Some(dj.index() as u32) == from {
                continue;
            }
            if st.settled[dj.index()] {
                // Line 26: only unvisited doors. No relaxation may lower a
                // settled label (a banned door has none): in landmark order
                // that is what the bound's consistency guarantees.
                debug_assert!(
                    st.dist[dj.index()].is_infinite()
                        || leg(dj).is_none_or(|w| {
                            let cand = base_dist + w;
                            cand.is_nan() || cand >= st.dist[dj.index()]
                        }),
                    "a relaxation from {from:?} would lower the settled label of {dj:?}"
                );
                continue;
            }

            // Line 27–28: discard doors whose continuation is a forbidden
            // private partition (doors into P(ps)/P(pt) stay usable).
            if config.expand == ExpandPolicy::PaperPruned {
                let continues = space
                    .d2p_enterable(dj)
                    .iter()
                    .any(|&u| u != v && allowed(space, src_p, exempt, u));
                if !continues {
                    continue;
                }
            }

            // Line 29: dist_j = dist[di] + DM(v, di, dj)  (or |ps, dj| from ps).
            let Some(weight) = leg(dj) else { continue };
            let cand = base_dist + weight;
            stats.relaxations += 1;

            // Line 30: TV_Check(dj, dist_j, t), which a vouched list has passed.
            if !vouched {
                stats.tv_checks += 1;
                let open = checker.check(dj, cand, stats);
                if observer.track_margin {
                    let arrival = t0 + config.velocity.travel_time(cand);
                    let margin = space.checkpoints().margin_to_next(arrival);
                    if margin < observer.min_margin_secs {
                        observer.min_margin_secs = margin;
                    }
                }
                if !open {
                    stats.tv_rejections += 1;
                    continue;
                }
            }

            // Lines 31–34.
            let old = st.dist[dj.index()];
            if cand < old {
                let Some(key) = order.key(cand, dj.index()) else {
                    continue; // no walk from dj reaches the target
                };
                if old.is_infinite() {
                    st.touched.push(dj.index() as u32);
                }
                st.dist[dj.index()] = cand;
                st.prev[dj.index()] = Some(PrevEntry { via: v, from });
                st.heap.push(key, Node::Door(dj.index() as u32));
                stats.heap_pushes += 1;
                stats.improvements += 1;
            } else if O::GOAL && cand <= old {
                // An equal label: keep the writer Dijkstra's order keeps.
                // The door is queued already, under the same key.
                let kept = st.prev[dj.index()].and_then(|p| p.from);
                if let (Some(p), Some(q)) = (from, kept) {
                    if writes_first((base_dist, p), (st.dist[q as usize], q)) {
                        st.prev[dj.index()] = Some(PrevEntry { via: v, from });
                    }
                }
            }
        }
    }

    /// Re-keys the queue to `bound`'s order in place, dropping the stale
    /// entries and the doors no walk from which reaches the target.
    fn rekey(&mut self, bound: &Bound<'_>) {
        let Sweeper { st, labels, .. } = self;
        let SearchState {
            heap,
            dist,
            settled,
            ..
        } = st;
        heap.rekey(|e| match e.node {
            Node::Door(i) => {
                let i = i as usize;
                if settled[i] || e.dist > dist[i] {
                    None
                } else {
                    bound.key(dist[i], i)
                }
            }
            Node::Target(k) => {
                let label = &labels[k as usize];
                (!label.done && e.dist <= label.dist).then_some(e.dist)
            }
        });
    }

    /// Accounts the sweep and gives its state back to the pool.
    fn finish(self) -> Sweep {
        let Sweeper {
            targets,
            checker,
            st,
            mut stats,
            paths,
            ..
        } = self;
        stats.peak_heap = st.heap.peak();
        stats.search_bytes = st.search_bytes();
        checker.account(&mut stats);
        let door_dist = if targets.is_empty() {
            st.dist.clone()
        } else {
            Vec::new()
        };
        st.give_back();
        Sweep {
            paths,
            stats,
            door_dist,
        }
    }
}

/// Rule 2: a sweep from `P(ps) = src_p` may enter `v` if it is `P(ps)`, the
/// `exempt` `P(pt)`, or traversable.
#[inline(always)]
fn allowed(
    space: &IndoorSpace,
    src_p: PartitionId,
    exempt: Option<PartitionId>,
    v: PartitionId,
) -> bool {
    v == src_p || Some(v) == exempt || space.partition(v).kind.traversable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;
    use indoor_synthetic::{build_mall, HoursConfig, MallConfig, ShopHours};

    /// Reads every row of every matrix of the venue with one walk per door
    /// list, as an expansion does: along each partition's leaveable list
    /// sorted, reversed and shuffled, and sorted with a door no matrix of
    /// the venue lists. Every leg must be `DistanceMatrix::distance`'s.
    fn every_row_walk_matches_distance(graph: &ItGraph) {
        let space = graph.space();
        let foreign = DoorId::from_index(space.num_doors());
        let mut state = 7_u64;
        for v in 0..space.num_partitions() {
            let v = PartitionId::from_index(v);
            let dm = space.distance_matrix(v);
            let mut sorted = space.p2d_leaveable(v).to_vec();
            sorted.sort_unstable();
            let reversed: Vec<DoorId> = sorted.iter().rev().copied().collect();
            let mut shuffled = sorted.clone();
            for i in (1..shuffled.len()).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                shuffled.swap(i, (state >> 33) as usize % (i + 1));
            }
            let mut lacking = sorted.clone();
            lacking.insert(sorted.len() / 2, foreign);
            lacking.push(foreign);
            for &from in dm.doors() {
                for list in [&sorted, &reversed, &shuffled, &lacking] {
                    let mut walk = RowWalk::new(graph, v, from);
                    for &dj in list.iter() {
                        assert_eq!(
                            walk.as_mut().and_then(|w| w.leg(dj)).map(f64::to_bits),
                            dm.distance(from, dj).map(f64::to_bits),
                            "{v}: {from} -> {dj} along {list:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_walk_reads_the_paper_example_matrices() {
        let graph = ItGraph::new(paper_example::build().space);
        every_row_walk_matches_distance(&graph);
    }

    #[test]
    fn row_walk_reads_a_generated_mall_matrices() {
        let hours = ShopHours::sample(&HoursConfig::default());
        let mall = build_mall(&MallConfig::paper_default().with_floors(2), &hours);
        let graph = ItGraph::new(mall);
        every_row_walk_matches_distance(&graph);
    }
}
