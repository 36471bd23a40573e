//! Landmark lower bounds that order long one-target sweeps.
//!
//! A one-target `FullRelax` sweep in Dijkstra's order settles every door
//! closer to the source than the target, most of the venue for a long
//! query. Landmarks (the ALT bounds of goal-directed search) let it settle
//! the doors in order of `g + h` instead, where `g` is the door's label and
//! `h` a lower bound on the rest of the walk, so the sweep spends its work
//! toward the target. The table is the smallest of the precomputed
//! distance indexes: it answers no query, it only orders the existing
//! sweep, and every answer stays what Dijkstra's order gives
//! (`ARCHITECTURE.md` §"Landmark order for long one-target sweeps").
//!
//! The table holds, per door, [`LANDMARKS`] `f32` distances from landmark
//! doors picked farthest-point on door positions. They are measured on the
//! *table graph*, a static graph that contains the graph of every sweep:
//!
//! * every partition is admitted, private and outdoor ones included (Rule 2
//!   may admit any of them as a query's `P(pt)` or `P(ps)`);
//! * a door expands every partition it enters, back into the one it was
//!   reached through included;
//! * no door is ever closed;
//! * each leg is read as the sweep reads it, through its row walk.
//!
//! Every sum is rounded toward `-inf`, so `fwd(w) ≤ fwd(u) + leg` holds
//! exactly for every leg of the table graph, hence of every sweep.
//!
//! [`ItGraph::landmarks`] builds the table once per graph on first use:
//! `VenueServer::warm` under `FullRelax`, else the first sweep that reaches
//! its goal phase. Each landmark's Dijkstra is one [`fan_out`] task, so the
//! calling thread and up to the host's other cores build the columns.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::num::NonZeroUsize;

use indoor_space::{fan_out, DoorId, IndoorPoint, IndoorSpace, PartitionId};

use crate::framework::{Order, RowWalk};
use crate::ord::cmp_dist;
use crate::ItGraph;

/// Landmarks per table. Traced `mall-uniform` queries (servebench, seed 1)
/// settle 329, 279, 243, 237 and 235 doors with 4, 6, 8, 12 and 16
/// landmarks, against 755 in Dijkstra's order; past 8 each push costs more
/// than the doors it saves, and 8 had the lowest p50 of the five.
pub const LANDMARKS: usize = 8;

/// Every bound is multiplied by this, `1 − 2⁻²⁴`, so that rounding in the
/// sweep's `f64` keys cannot reorder a door and its successor (see
/// `ARCHITECTURE.md` for the smallest leg it covers).
const DEFLATE: f64 = 1.0 - 1.0 / (1u64 << 24) as f64;

/// Per door, its rounded-down table-graph distances from [`LANDMARKS`]
/// landmark doors; see the module docs.
#[derive(Clone)]
pub struct Landmarks {
    /// Door-major: `fwd[d * LANDMARKS + l]` is door `d`'s distance from
    /// landmark `l`, `+inf` where the table graph has no walk. Empty for a
    /// venue without doors, whose bounds are all 0.
    fwd: Box<[f32]>,
}

impl fmt::Debug for Landmarks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Landmarks")
            .field("heap_bytes", &self.heap_bytes())
            .finish_non_exhaustive()
    }
}

impl Landmarks {
    /// Builds the table of `graph`, one landmark Dijkstra per [`fan_out`]
    /// task, on up to the host's available parallelism.
    pub(crate) fn build(graph: &ItGraph) -> Self {
        let space = graph.space();
        let n = space.num_doors();
        if n == 0 {
            return Landmarks {
                fwd: Box::default(),
            };
        }
        let doors = pick(space);
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let columns = fan_out(LANDMARKS, workers, |l| column(graph, doors[l]));
        let mut fwd = vec![f32::INFINITY; n * LANDMARKS].into_boxed_slice();
        for (l, col) in columns.into_iter().enumerate() {
            for (row, f) in fwd.chunks_exact_mut(LANDMARKS).zip(col) {
                row[l] = f;
            }
        }
        Landmarks { fwd }
    }

    /// Heap bytes of the table: 0 for a venue without one, whose sweeps
    /// keep Dijkstra's order.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<[f32]>(&self.fwd)
    }

    /// The bound toward `target`; `h ≡ 0`, Dijkstra's order, on a venue
    /// without a table.
    ///
    /// Its offset for landmark `l` is the smallest `fwd_l(e) + |e, pt|`,
    /// rounded down, over the doors `e` a sweep can relax `pt` from: those
    /// of `P(pt)` that enter it. So `h(e) ≤ |e, pt|` at each of them.
    pub(crate) fn bound(&self, space: &IndoorSpace, target: &IndoorPoint) -> Bound<'_> {
        let p: PartitionId = target.partition;
        let mut offset = [f64::INFINITY; LANDMARKS];
        for &e in space.p2d(p) {
            if !space.d2p_enterable(e).contains(&p) {
                continue;
            }
            // `point_to_door`'s leg, without its membership scan.
            let leg = target.position.distance(space.door(e).position);
            for (o, &f) in offset.iter_mut().zip(self.row(e.index())) {
                let sum = f64::from(sum_down(f64::from(f), leg));
                if sum < *o {
                    *o = sum;
                }
            }
        }
        Bound {
            table: self,
            offset,
        }
    }

    /// Door `d`'s distances, one per landmark (none without a table).
    #[inline]
    fn row(&self, d: usize) -> &[f32] {
        self.fwd
            .get(d * LANDMARKS..(d + 1) * LANDMARKS)
            .unwrap_or_default()
    }
}

/// A lower bound on the walk from any door to one target: `h(u)`, the
/// largest `offset_l − fwd_l(u)` over the landmarks, deflated.
pub(crate) struct Bound<'t> {
    table: &'t Landmarks,
    offset: [f64; LANDMARKS],
}

impl Bound<'_> {
    /// `h(d)`: at least 0, `+inf` when no walk of the table graph leads
    /// from `d` to the target. A landmark that reaches neither `d` nor the
    /// target (`inf − inf`) or not `d` (`−inf`) bounds nothing; `f64::max`
    /// drops the NaN.
    #[inline]
    fn h(&self, d: usize) -> f64 {
        let mut h = 0.0_f64;
        for (&o, &f) in self.offset.iter().zip(self.table.row(d)) {
            h = h.max(o - f64::from(f));
        }
        h * DEFLATE
    }
}

impl Order for Bound<'_> {
    const GOAL: bool = true;

    #[inline]
    fn key(&self, g: f64, d: usize) -> Option<f64> {
        let h = self.h(d);
        (h < f64::INFINITY).then_some(g + h)
    }
}

/// The largest `f32` at most the real sum `a + b`: the `f64` sum, stepped
/// down one `f32` where rounding it to nearest overshot. NaN stays NaN.
fn sum_down(a: f64, b: f64) -> f32 {
    let s = a + b;
    // Knuth's TwoSum: `s` rounds the real sum up exactly when `err < 0`.
    let bv = s - a;
    let err = (a - (s - bv)) + (b - bv);
    let x = s as f32;
    if f64::from(x) > s || (f64::from(x) >= s && err < 0.0) {
        x.next_down()
    } else {
        x
    }
}

/// [`LANDMARKS`] doors picked farthest-point on their positions, a floor
/// [`STOREY`] above the one below: first the door farthest from the doors'
/// mean position, then each time the door farthest from its nearest pick.
/// Ties go to the lower index, and a venue with fewer distinct positions
/// than picks repeats some.
fn pick(space: &IndoorSpace) -> Vec<DoorId> {
    let doors = space.doors();
    let at = |d: usize| {
        let r = &doors[d];
        [r.position.x, r.position.y, f64::from(r.floor.0) * STOREY]
    };
    let gap = |a: [f64; 3], b: [f64; 3]| (0..3).map(|i| (a[i] - b[i]) * (a[i] - b[i])).sum::<f64>();
    let n = doors.len() as f64;
    let mean = (0..doors.len()).map(at).fold([0.0; 3], |m, p| {
        [m[0] + p[0] / n, m[1] + p[1] / n, m[2] + p[2] / n]
    });
    let mut nearest: Vec<f64> = (0..doors.len()).map(|d| gap(at(d), mean)).collect();
    (0..LANDMARKS)
        .map(|_| {
            // `max_by` keeps the last of equals: over descending indices,
            // the lowest.
            let far = (0..doors.len())
                .rev()
                .max_by(|&a, &b| cmp_dist(nearest[a], nearest[b]))
                .unwrap_or(0);
            for (d, near) in nearest.iter_mut().enumerate() {
                *near = near.min(gap(at(d), at(far)));
            }
            DoorId::from_index(far)
        })
        .collect()
}

/// Metres between floors when picking landmarks, a storey's height: doors
/// stacked in plan are told apart, so ties in plan go to far floors.
const STOREY: f64 = 5.0;

/// Landmark `from`'s column: every door's distance on the table graph,
/// each sum rounded down (see the module docs). The third Dijkstra loop
/// outside the sweep, beside `baselines::door_distances` and
/// `waiting::earliest_arrival`.
fn column(graph: &ItGraph, from: DoorId) -> Vec<f32> {
    let space = graph.space();
    let mut fwd = vec![f32::INFINITY; space.num_doors()];
    // A label is a non-negative `f32`, whose bits ascend with its value, so
    // a key is the label's bits above the door's index.
    let key = |f: f32, d: usize| Reverse(u64::from(f.to_bits()) << 32 | d as u64);
    let mut heap = BinaryHeap::new();
    fwd[from.index()] = 0.0;
    heap.push(key(0.0, from.index()));
    while let Some(Reverse(k)) = heap.pop() {
        let u = k as u32 as usize;
        if (k >> 32) as u32 != fwd[u].to_bits() {
            continue; // stale: a shorter label was pushed since
        }
        let base = f64::from(fwd[u]);
        // Sums round down but never below `base`, so no leg can lower a
        // label already popped: no door needs a settled flag.
        for &v in space.d2p_enterable(DoorId::from_index(u)) {
            let Some(mut walk) = RowWalk::new(graph, v, DoorId::from_index(u)) else {
                continue;
            };
            for &w in space.p2d_leaveable(v) {
                let Some(leg) = walk.leg(w) else { continue };
                // An `f64` sum above the label is a real sum above it.
                if base + leg > f64::from(fwd[w.index()]) {
                    continue;
                }
                let cand = sum_down(base, leg);
                if cand < fwd[w.index()] {
                    fwd[w.index()] = cand;
                    heap.push(key(cand, w.index()));
                }
            }
        }
    }
    fwd
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use indoor_space::paper_example;
    use indoor_synthetic::{build_mall, HoursConfig, MallConfig, ShopHours};
    use indoor_time::TimeOfDay;

    use super::*;
    use crate::baselines::{SnapshotChecker, StaticChecker};
    use crate::framework::{run_search_targets, SweepObserver, TvChecker, GOAL_AFTER};
    use crate::{AsynEngine, AsynMode, ItspqConfig, Query, SynEngine};

    /// SplitMix64, so every run draws the same queries.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A point of a random partition with doors: a random mix of its door
    /// positions, or one of them exactly, which makes a zero-length leg.
    fn point(space: &IndoorSpace, rng: &mut SplitMix) -> IndoorPoint {
        loop {
            let v = PartitionId::from_index(rng.below(space.num_partitions()));
            let doors = space.p2d(v);
            if doors.is_empty() {
                continue;
            }
            if rng.below(8) == 0 {
                let d = doors[rng.below(doors.len())];
                return IndoorPoint::new(v, space.door(d).position);
            }
            let (mut x, mut y, mut total) = (0.0, 0.0, 0.0);
            for &d in doors {
                let w = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 + 0.01;
                let p = space.door(d).position;
                (x, y, total) = (x + w * p.x, y + w * p.y, total + w);
            }
            return IndoorPoint::new(v, indoor_geom::Point::new(x / total, y / total));
        }
    }

    /// Departures on both sides of every checkpoint, and some at random.
    fn departures(space: &IndoorSpace, rng: &mut SplitMix) -> Vec<TimeOfDay> {
        let mut out = Vec::new();
        for &c in space.checkpoints().times() {
            for offset in [-900.0, -60.0, -1.0, 0.0, 1.0] {
                if let Ok(t) = TimeOfDay::from_seconds(c.seconds() + offset) {
                    out.push(t);
                }
            }
        }
        for _ in 0..8 {
            out.push(TimeOfDay::from_seconds(rng.below(86_400) as f64).unwrap());
        }
        out
    }

    /// One sweep's answer, bit for bit (`Debug` prints every distance in
    /// full), and the doors it settled.
    fn answer(sweep: (Option<crate::Path>, crate::SearchStats)) -> (String, usize) {
        (format!("{:?}", sweep.0), sweep.1.doors_settled)
    }

    /// `q`'s one-target sweep under `checker`.
    fn sweep<'a>(
        graph: &ItGraph,
        q: &Query,
        mut checker: impl TvChecker<'a>,
        observer: &mut SweepObserver,
    ) -> (String, usize) {
        let mut sweep = run_search_targets(
            graph,
            &q.source,
            q.time,
            std::slice::from_ref(&q.target),
            &ItspqConfig::full_relax(),
            &mut checker,
            observer,
            None,
            &[],
        );
        answer((sweep.paths.pop().flatten(), sweep.stats))
    }

    /// The one-target sweeps of ITG/S, ITG/A-Exact, static and snapshot for
    /// `q`, each switching to landmark order after `goal_after` settled
    /// doors.
    fn sweeps(
        graph: &ItGraph,
        syn: &SynEngine,
        exact: &AsynEngine,
        q: &Query,
        goal_after: Option<usize>,
    ) -> [(String, usize); 4] {
        let target = std::slice::from_ref(&q.target);
        let observer = || SweepObserver::off().with_goal_after(goal_after);
        let engine = |(mut paths, stats): (Vec<Option<crate::Path>>, _)| {
            answer((paths.pop().flatten(), stats))
        };
        let space = graph.space();
        [
            engine(syn.query_targets(&q.source, q.time, target, &mut observer())),
            engine(exact.query_targets(&q.source, q.time, target, &mut observer())),
            sweep(graph, q, StaticChecker { space }, &mut observer()),
            sweep(
                graph,
                q,
                SnapshotChecker { space, t: q.time },
                &mut observer(),
            ),
        ]
    }

    /// Runs `queries` random queries at every departure of
    /// [`departures`] with the switch at settle 0, at [`GOAL_AFTER`] and
    /// never: every method's answer must be the same bits in all three.
    /// Returns how many sweeps settled fewer doors at settle 0 and at
    /// `GOAL_AFTER` than in Dijkstra's order.
    fn same_answers_in_every_order(graph: ItGraph, seed: u64, queries: usize) -> (usize, usize) {
        let graph = Arc::new(graph);
        let space = graph.space();
        let syn = SynEngine::new(Arc::clone(&graph), ItspqConfig::full_relax());
        let exact = AsynEngine::new(
            Arc::clone(&graph),
            ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact),
        );
        let mut rng = SplitMix(seed);
        let times = departures(space, &mut rng);
        let (mut fewer_at_0, mut fewer_at_n) = (0, 0);
        for i in 0..queries {
            let (source, target) = (point(space, &mut rng), point(space, &mut rng));
            let q = Query::new(source, target, times[i % times.len()]);
            let dijkstra = sweeps(&graph, &syn, &exact, &q, None);
            let at_0 = sweeps(&graph, &syn, &exact, &q, Some(0));
            let at_n = sweeps(&graph, &syn, &exact, &q, Some(GOAL_AFTER));
            for (method, ((d, a0), an)) in ["ITG/S", "ITG/A-Exact", "static", "snapshot"]
                .iter()
                .zip(dijkstra.iter().zip(&at_0).zip(&at_n))
            {
                assert_eq!(a0.0, d.0, "{method}, switch at 0: {q:?}");
                assert_eq!(an.0, d.0, "{method}, switch at {GOAL_AFTER}: {q:?}");
                assert!(a0.1 <= d.1 && an.1 <= d.1, "{method} settled more: {q:?}");
                fewer_at_0 += usize::from(a0.1 < d.1);
                fewer_at_n += usize::from(an.1 < d.1);
            }
        }
        (fewer_at_0, fewer_at_n)
    }

    #[test]
    fn landmark_order_keeps_every_answer_on_the_paper_example() {
        let (fewer_at_0, _) =
            same_answers_in_every_order(ItGraph::new(paper_example::build().space), 1, 600);
        assert!(fewer_at_0 > 200, "{fewer_at_0}");
    }

    #[test]
    fn landmark_order_keeps_every_answer_on_a_two_floor_comb_mall() {
        let hours = ShopHours::sample(&HoursConfig::default());
        let config = MallConfig::paper_default()
            .with_floors(2)
            .with_comb_corridors();
        let (fewer_at_0, fewer_at_n) =
            same_answers_in_every_order(ItGraph::new(build_mall(&config, &hours)), 2, 160);
        assert!(
            fewer_at_0 > 300 && fewer_at_n > 150,
            "{fewer_at_0} {fewer_at_n}"
        );
    }

    /// Every leg of the table graph, as the sweep reads it, keeps
    /// `fwd(w) ≤ fwd(u) + leg` exactly: `fwd(w)` is at most the largest
    /// `f32` below the real sum.
    fn table_is_consistent(graph: &ItGraph) {
        let space = graph.space();
        let table = graph.landmarks();
        assert_eq!(table.heap_bytes(), space.num_doors() * LANDMARKS * 4);
        for u in 0..space.num_doors() {
            let from = DoorId::from_index(u);
            for &v in space.d2p_enterable(from) {
                let Some(mut walk) = RowWalk::new(graph, v, from) else {
                    continue;
                };
                for &w in space.p2d_leaveable(v) {
                    let Some(leg) = walk.leg(w) else { continue };
                    for l in 0..LANDMARKS {
                        let (fu, fw) = (table.row(u)[l], table.row(w.index())[l]);
                        assert!(fw <= sum_down(f64::from(fu), leg), "{from} -> {w} in {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn table_sums_never_exceed_a_leg() {
        table_is_consistent(&ItGraph::new(paper_example::build().space));
        let hours = ShopHours::sample(&HoursConfig::default());
        table_is_consistent(&ItGraph::new(build_mall(
            &MallConfig::paper_default().with_floors(2),
            &hours,
        )));
    }

    #[test]
    fn sum_down_is_the_largest_f32_not_above_the_real_sum() {
        let mut rng = SplitMix(4);
        for _ in 0..100_000 {
            let a = f64::from((rng.next() % 4_000_000) as f32 / 1024.0);
            let b = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 2000.0;
            let x = sum_down(a, b);
            // TwoSum: the real sum is exactly s + err, and x is close enough
            // to s that x - s is exact.
            let s = a + b;
            let bv = s - a;
            let err = (a - (s - bv)) + (b - bv);
            assert!(f64::from(x) - s <= err, "{a} + {b}: {x} above");
            assert!(
                f64::from(x.next_up()) - s > err,
                "{a} + {b}: {x} not the largest"
            );
        }
        assert_eq!(sum_down(f64::INFINITY, 1.0), f32::INFINITY);
        assert!(sum_down(f64::NAN, 1.0).is_nan());
        assert_eq!(sum_down(f64::from(f32::MAX), f64::from(f32::MAX)), f32::MAX);
    }
}
