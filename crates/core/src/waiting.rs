//! Extension: earliest-arrival routing with waiting at closed doors.
//!
//! The paper's footnote 2 explicitly excludes waiting ("someone reaches a door
//! and waits there until the door opens"). This module implements that future
//! variant: the traveller may pause in front of a closed door until its next
//! opening, bounded by a [`WaitPolicy`]. With waiting allowed, arrival
//! functions become FIFO and a Dijkstra on arrival *time* (rather than
//! distance) is exact.

use indoor_space::{DoorId, IndoorPoint, PartitionId};
use indoor_time::{DurationSecs, Timestamp};

use crate::heap::{MinHeap, Node};
use crate::{known_partition, ItGraph, ItspqConfig, Query};

/// How long the traveller tolerates waiting at a single door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WaitPolicy {
    /// No waiting at all — the paper's original semantics.
    None,
    /// Wait up to the given duration at each door.
    UpTo(DurationSecs),
    /// Wait as long as it takes (doors that open eventually are usable).
    Unlimited,
}

impl WaitPolicy {
    fn admits(self, wait: DurationSecs) -> bool {
        match self {
            // Durations are non-negative, so "<= zero" is exactly "no wait"
            // without a float equality.
            WaitPolicy::None => wait <= DurationSecs::ZERO,
            WaitPolicy::UpTo(max) => wait <= max,
            WaitPolicy::Unlimited => true,
        }
    }
}

/// One door crossing of a timed path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedHop {
    /// The door crossed.
    pub door: DoorId,
    /// Partition walked through to reach the door.
    pub via_partition: PartitionId,
    /// Walking distance of the leg into this door (metres).
    pub leg_distance: f64,
    /// Instant of arrival in front of the door.
    pub reached: Timestamp,
    /// Waiting time spent before the door opened.
    pub waited: DurationSecs,
    /// Instant the door is actually crossed.
    pub crossed: Timestamp,
}

/// An earliest-arrival path with waiting.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedPath {
    /// The start point.
    pub source: IndoorPoint,
    /// The target point.
    pub target: IndoorPoint,
    /// Door crossings in travel order.
    pub hops: Vec<TimedHop>,
    /// Total walking distance (metres) — not necessarily minimal.
    pub walking_distance: f64,
    /// Total time spent waiting.
    pub total_wait: DurationSecs,
    /// Departure instant.
    pub departure: Timestamp,
    /// Arrival instant at the target.
    pub arrival: Timestamp,
}

/// Computes the earliest-arrival path from `query.source` to `query.target`
/// departing at `query.time`, waiting at closed doors as permitted by
/// `policy`. Returns `None` if the target is unreachable within one day of
/// waiting horizon.
#[must_use]
pub fn earliest_arrival(
    graph: &ItGraph,
    query: &Query,
    config: &ItspqConfig,
    policy: WaitPolicy,
) -> Option<TimedPath> {
    let space = graph.space();
    let t0 = query.departure();
    let src = query.source;
    let dst = query.target;

    if !known_partition(space, src.partition) || !known_partition(space, dst.partition) {
        return None;
    }
    if src.partition == dst.partition {
        let length = src.position.distance(dst.position);
        return Some(TimedPath {
            source: src,
            target: dst,
            hops: Vec::new(),
            walking_distance: length,
            total_wait: DurationSecs::ZERO,
            departure: t0,
            arrival: t0 + config.velocity.travel_time(length),
        });
    }

    let n = space.num_doors();
    // Earliest instant each door can be *crossed*.
    let mut best: Vec<f64> = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    #[derive(Clone, Copy)]
    struct PrevHop {
        from: Option<u32>,
        via: PartitionId,
        leg: f64,
        reached: Timestamp,
        waited: DurationSecs,
        crossed: Timestamp,
    }
    let mut prev: Vec<Option<PrevHop>> = vec![None; n];
    let mut heap = MinHeap::new();

    let allowed = |v: PartitionId| -> bool {
        v == src.partition || v == dst.partition || space.partition(v).kind.traversable()
    };
    // Horizon: at most one full day beyond departure.
    let horizon = t0.seconds() + indoor_time::SECONDS_PER_DAY;

    let try_relax = |dj: DoorId,
                     from: Option<u32>,
                     via: PartitionId,
                     leg: f64,
                     depart_instant: Timestamp,
                     best: &mut Vec<f64>,
                     prev: &mut Vec<Option<PrevHop>>,
                     heap: &mut MinHeap| {
        let reached = depart_instant + config.velocity.travel_time(leg);
        let Some(crossed) = space.door(dj).atis.next_open_at(reached) else {
            return;
        };
        let waited = crossed - reached;
        if !policy.admits(waited) || crossed.seconds() > horizon {
            return;
        }
        if crossed.seconds() < best[dj.index()] {
            best[dj.index()] = crossed.seconds();
            prev[dj.index()] = Some(PrevHop {
                from,
                via,
                leg,
                reached,
                waited,
                crossed,
            });
            heap.push(crossed.seconds(), Node::Door(dj.index() as u32));
        }
    };

    for &dj in space.p2d_leaveable(src.partition) {
        if let Some(leg) = space.point_to_door(&src, dj) {
            try_relax(
                dj,
                None,
                src.partition,
                leg,
                t0,
                &mut best,
                &mut prev,
                &mut heap,
            );
        }
    }

    let mut target_arrival = f64::INFINITY;
    let mut target_prev: Option<u32> = None;

    while let Some(entry) = heap.pop() {
        let Node::Door(di) = entry.node else { continue };
        if settled[di as usize] {
            continue;
        }
        settled[di as usize] = true;
        let door = DoorId(di);
        // Labels are finite by relaxation; skip (not panic) on a broken one.
        let Ok(crossed) = Timestamp::from_seconds(best[di as usize]) else {
            continue;
        };

        // Terminal: the door bounds the target partition.
        if space.d2p_enterable(door).contains(&dst.partition) {
            if let Some(leg) = space.point_to_door(&dst, door) {
                let arr = crossed + config.velocity.travel_time(leg);
                if arr.seconds() < target_arrival {
                    target_arrival = arr.seconds();
                    target_prev = Some(di);
                }
            }
        }
        if target_arrival <= best[di as usize] {
            break; // every remaining door is crossed after the target arrival
        }

        for &v in space.d2p_enterable(door) {
            if !allowed(v) {
                continue;
            }
            for &dj in space.p2d_leaveable(v) {
                if dj.index() as u32 == di || settled[dj.index()] {
                    continue;
                }
                if let Some(leg) = space.door_to_door(v, door, dj) {
                    try_relax(
                        dj,
                        Some(di),
                        v,
                        leg,
                        crossed,
                        &mut best,
                        &mut prev,
                        &mut heap,
                    );
                }
            }
        }
    }

    let last = target_prev?;
    // Reconstruct. Every settled door recorded a predecessor entry before it
    // entered the heap, so the chain is complete; `?` degrades a broken
    // invariant to "no path" instead of panicking.
    let mut rev: Vec<(u32, PrevHop)> = Vec::new();
    let mut cur = last;
    loop {
        let p = prev[cur as usize]?;
        rev.push((cur, p));
        match p.from {
            Some(q) => cur = q,
            None => break,
        }
    }
    rev.reverse();
    let mut hops = Vec::with_capacity(rev.len());
    let mut walking = 0.0;
    let mut total_wait = DurationSecs::ZERO;
    for &(di, p) in &rev {
        walking += p.leg;
        total_wait = total_wait + p.waited;
        hops.push(TimedHop {
            door: DoorId(di),
            via_partition: p.via,
            leg_distance: p.leg,
            reached: p.reached,
            waited: p.waited,
            crossed: p.crossed,
        });
    }
    // The terminal door bounds the target partition, so this leg exists.
    let final_leg = space.point_to_door(&dst, DoorId(last))?;
    walking += final_leg;
    Some(TimedPath {
        source: src,
        target: dst,
        hops,
        walking_distance: walking,
        total_wait,
        departure: t0,
        arrival: Timestamp::from_seconds(target_arrival).ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;
    use indoor_time::TimeOfDay;

    fn setup() -> (paper_example::PaperExample, ItGraph, ItspqConfig) {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        (ex, g, ItspqConfig::default())
    }

    #[test]
    fn no_wait_matches_engine_when_route_exists() {
        let (ex, g, cfg) = setup();
        let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0));
        let timed = earliest_arrival(&g, &q, &cfg, WaitPolicy::None).unwrap();
        assert_eq!(timed.hops.len(), 1);
        assert_eq!(timed.hops[0].door, ex.d(18));
        assert_eq!(timed.total_wait, DurationSecs::ZERO);
        assert!((timed.walking_distance - 12.0).abs() < 1e-9);
    }

    #[test]
    fn waiting_unlocks_the_2330_query() {
        let (ex, g, cfg) = setup();
        // At 23:30 every door out of v13 is closed (d18 until 0:00 next day
        // per its daily schedule, d15 until 8:00, d20 until 5:00).
        let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30));
        assert!(earliest_arrival(&g, &q, &cfg, WaitPolicy::None).is_none());
        let timed = earliest_arrival(&g, &q, &cfg, WaitPolicy::Unlimited).unwrap();
        // d18 reopens at midnight (ATI [0:00, 23:00) wraps daily): the best
        // plan waits ~29 min at d18 and crosses right after midnight.
        assert_eq!(timed.hops[0].door, ex.d(18));
        assert!(timed.total_wait.seconds() > 0.0);
        assert_eq!(timed.arrival.day_offset(), 1);
    }

    #[test]
    fn bounded_wait_rejects_long_waits() {
        let (ex, g, cfg) = setup();
        let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30));
        // The needed wait is ~29.5 minutes; 5 minutes is not enough.
        let five_min = WaitPolicy::UpTo(DurationSecs::from_minutes(5.0));
        assert!(earliest_arrival(&g, &q, &cfg, five_min).is_none());
        let forty_min = WaitPolicy::UpTo(DurationSecs::from_minutes(40.0));
        assert!(earliest_arrival(&g, &q, &cfg, forty_min).is_some());
    }

    #[test]
    fn waiting_never_worsens_arrival() {
        let (ex, g, cfg) = setup();
        for (h, m) in [(9, 0), (12, 0), (15, 59), (22, 30)] {
            let q = Query::new(ex.p1, ex.p2, TimeOfDay::hm(h, m));
            let none = earliest_arrival(&g, &q, &cfg, WaitPolicy::None);
            let unlimited = earliest_arrival(&g, &q, &cfg, WaitPolicy::Unlimited);
            if let (Some(a), Some(b)) = (none, unlimited) {
                assert!(
                    b.arrival <= a.arrival,
                    "waiting worsened arrival at {h}:{m}"
                );
            }
        }
    }

    #[test]
    fn same_partition_is_direct() {
        let (ex, g, cfg) = setup();
        let b = IndoorPoint::new(ex.p3.partition, indoor_geom::Point::new(3.0, 4.0));
        let q = Query::new(ex.p3, b, TimeOfDay::hm(23, 30));
        let timed = earliest_arrival(&g, &q, &cfg, WaitPolicy::None).unwrap();
        assert!(timed.hops.is_empty());
        assert!((timed.walking_distance - 5.0).abs() < 1e-12);
    }

    #[test]
    fn hop_bookkeeping_is_consistent() {
        let (ex, g, cfg) = setup();
        let q = Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0));
        let timed = earliest_arrival(&g, &q, &cfg, WaitPolicy::Unlimited).unwrap();
        for hop in &timed.hops {
            assert!(hop.crossed >= hop.reached);
            assert!((hop.crossed - hop.reached).seconds() - hop.waited.seconds() < 1e-6);
            // The door is open at the crossing instant.
            assert!(ex.space.door(hop.door).atis.is_open_at(hop.crossed));
        }
        assert!(timed.arrival > timed.departure);
    }
}
