//! Reduced IT-Graphs per checkpoint interval (Algorithm 3, `Graph_Update`).

use indoor_space::{DoorId, IndoorSpace, PartitionId};
use indoor_time::TimeOfDay;

/// The time-dependent view `G'_IT` of the IT-Graph for one checkpoint
/// interval: only doors open throughout the interval remain in the `P2D`
/// mappings.
///
/// Built by [`ReducedGraph::build`], the Rust form of Algorithm 3: start from
/// the original topology `G⁰_IT`, find the previous checkpoint `cp` for the
/// requested time, and delete every door closed at `cp` from the partitions'
/// door sets.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedGraph {
    /// The checkpoint this view is valid from.
    cp: TimeOfDay,
    /// The next checkpoint (end of validity), or `None` until midnight.
    next_cp: Option<TimeOfDay>,
    /// Index of the checkpoint interval within the venue's checkpoint set.
    interval_index: usize,
    /// Whether each door (by dense index) is open during the interval.
    open: Vec<bool>,
    /// `P2D⊳` restricted to open doors: every partition's list, in the
    /// venue's order, laid end to end in partition order.
    leaveable: Vec<DoorId>,
    /// Partition `v`'s list is `leaveable[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// Number of open doors.
    open_count: usize,
}

impl ReducedGraph {
    /// `Graph_Update(t, T)`: builds the reduced view for the checkpoint
    /// interval containing clock time `t`.
    #[must_use]
    pub fn build(space: &IndoorSpace, t: TimeOfDay) -> Self {
        let cps = space.checkpoints();
        let cp = cps.previous(t);
        let next_cp = cps.next(t);
        let interval_index = cps.interval_index(t);

        // Door states are constant on [cp, next_cp), so evaluating at cp is
        // exact for the whole interval.
        let mut open = Vec::with_capacity(space.num_doors());
        let mut open_count = 0;
        for door in space.doors() {
            let is_open = door.atis.is_open(cp);
            open.push(is_open);
            open_count += usize::from(is_open);
        }

        let mut leaveable = Vec::new();
        let mut offsets = Vec::with_capacity(space.num_partitions() + 1);
        offsets.push(0);
        for pi in 0..space.num_partitions() {
            let doors = space.p2d_leaveable(PartitionId::from_index(pi));
            leaveable.extend(doors.iter().copied().filter(|d| open[d.index()]));
            // Past `u32::MAX` listed doors (over 2^31 doors, each leaving
            // two partitions) later lists would read short or empty rather
            // than panic.
            offsets.push(u32::try_from(leaveable.len()).unwrap_or(u32::MAX));
        }
        leaveable.shrink_to_fit();

        ReducedGraph {
            cp,
            next_cp,
            interval_index,
            open,
            leaveable,
            offsets,
            open_count,
        }
    }

    /// The checkpoint this view is valid from.
    #[must_use]
    pub fn checkpoint(&self) -> TimeOfDay {
        self.cp
    }

    /// The end of this view's validity (the next checkpoint), if any before
    /// midnight.
    #[must_use]
    pub fn next_checkpoint(&self) -> Option<TimeOfDay> {
        self.next_cp
    }

    /// Index of the checkpoint interval this view covers.
    #[must_use]
    pub fn interval_index(&self) -> usize {
        self.interval_index
    }

    /// Whether a door is open during this interval.
    #[must_use]
    pub fn is_open(&self, d: DoorId) -> bool {
        self.open[d.index()]
    }

    /// Number of doors open during this interval.
    #[must_use]
    pub fn open_door_count(&self) -> usize {
        self.open_count
    }

    /// `P2Dcp⊳(v)`: the leaveable doors of `v` that are open in this interval.
    #[must_use]
    pub fn leaveable(&self, v: PartitionId) -> &[DoorId] {
        let (start, end) = (self.offsets[v.index()], self.offsets[v.index() + 1]);
        self.leaveable
            .get(start as usize..end as usize)
            .unwrap_or(&[])
    }

    /// Heap bytes of this view (for the memory-cost metric): its open
    /// flags, door lists and offsets.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.open.capacity()
            + self.leaveable.capacity() * std::mem::size_of::<DoorId>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;

    #[test]
    fn noon_view_keeps_all_but_none_closed() {
        let ex = paper_example::build();
        let view = ReducedGraph::build(&ex.space, TimeOfDay::hm(12, 0));
        // At noon every Table I door is open.
        assert_eq!(view.open_door_count(), 21);
        assert_eq!(view.checkpoint(), TimeOfDay::hm(9, 0));
        assert_eq!(view.next_checkpoint(), Some(TimeOfDay::hm(16, 0)));
    }

    #[test]
    fn early_morning_view_prunes_closed_doors() {
        let ex = paper_example::build();
        // At 5:30, open doors are those covering 5:30: d1, d11, d12, d13, d20
        // ([5:00,...)), d9 ([0:00,6:00)), d14/d17 (always), d18 ([0:00,23:00)).
        let view = ReducedGraph::build(&ex.space, TimeOfDay::hm(5, 30));
        assert_eq!(view.checkpoint(), TimeOfDay::hm(5, 0));
        assert_eq!(view.next_checkpoint(), Some(TimeOfDay::hm(6, 0)));
        let open: Vec<u32> = (1..=21).filter(|&n| view.is_open(ex.d(n))).collect();
        assert_eq!(open, vec![1, 9, 11, 12, 13, 14, 17, 18, 20]);
        assert_eq!(view.open_door_count(), 9);
    }

    #[test]
    fn leaveable_lists_are_filtered() {
        let ex = paper_example::build();
        let view = ReducedGraph::build(&ex.space, TimeOfDay::hm(5, 30));
        // v3's doors are d1,d2,d3,d5,d6; only d1 is open at 5:30.
        assert_eq!(view.leaveable(ex.v(3)), &[ex.d(1)]);
        // v16: d3 (closed), d17 (open), d21 (closed).
        assert_eq!(view.leaveable(ex.v(16)), &[ex.d(17)]);
    }

    #[test]
    fn state_is_constant_at_interval_start_edge() {
        let ex = paper_example::build();
        // Exactly at the 16:00 checkpoint the [8:00,16:00) doors are closed.
        let view = ReducedGraph::build(&ex.space, TimeOfDay::hm(16, 0));
        assert!(!view.is_open(ex.d(2)));
        assert!(!view.is_open(ex.d(15)));
        assert!(view.is_open(ex.d(16))); // [8:00,17:00) still open
        assert_eq!(view.checkpoint(), TimeOfDay::hm(16, 0));
    }

    #[test]
    fn interval_indices_partition_the_day() {
        let ex = paper_example::build();
        let early = ReducedGraph::build(&ex.space, TimeOfDay::hm(0, 30));
        let noon = ReducedGraph::build(&ex.space, TimeOfDay::hm(12, 0));
        assert_eq!(early.interval_index(), 0);
        assert!(noon.interval_index() > early.interval_index());
    }

    #[test]
    fn flat_lists_keep_the_venue_order_of_open_doors() {
        let ex = paper_example::build();
        for t in [
            TimeOfDay::hm(5, 30),
            TimeOfDay::hm(12, 0),
            TimeOfDay::hm(23, 30),
        ] {
            let view = ReducedGraph::build(&ex.space, t);
            let mut listed = 0;
            for pi in 0..ex.space.num_partitions() {
                let v = PartitionId::from_index(pi);
                let open: Vec<DoorId> = ex
                    .space
                    .p2d_leaveable(v)
                    .iter()
                    .copied()
                    .filter(|&d| view.is_open(d))
                    .collect();
                assert_eq!(view.leaveable(v), open.as_slice(), "{v} at {t}");
                listed += open.len();
            }
            // One byte per door, one id per listed door, one offset per
            // partition plus one.
            let offsets = ex.space.num_partitions() + 1;
            assert_eq!(view.heap_bytes(), 21 + 4 * listed + 4 * offsets);
        }
    }

    #[test]
    fn heap_bytes_positive() {
        let ex = paper_example::build();
        let view = ReducedGraph::build(&ex.space, TimeOfDay::hm(12, 0));
        assert!(view.heap_bytes() > 0);
    }
}
