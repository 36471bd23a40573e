//! Checkpoint sets: the distinct open/close instants of a venue.
//!
//! The paper calls the time points at which any door opens or closes
//! *checkpoints*; the indoor topology is constant between two consecutive
//! checkpoints. `CheckpointSet` provides the `Find_Previous_Checkpoint` and
//! `Find_Next_Checkpoint` primitives of Algorithms 3 and 4.

use std::fmt;

use crate::{AtiList, TimeOfDay, Timestamp};

/// The sorted set `T` of distinct checkpoints of a venue.
///
/// Midnight (0:00) is always a member so that every instant of the day has a
/// previous checkpoint, matching the paper's piecewise-constant topology view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSet {
    /// Sorted, de-duplicated checkpoints. Invariant: non-empty, first is 0:00,
    /// all < 24:00.
    times: Vec<TimeOfDay>,
}

impl CheckpointSet {
    /// Builds the checkpoint set from explicit time points. Duplicates are
    /// removed, 24:00 boundaries are dropped (they alias 0:00) and midnight is
    /// inserted if missing.
    #[must_use]
    pub fn from_times(mut times: Vec<TimeOfDay>) -> Self {
        times.retain(|t| *t < TimeOfDay::END_OF_DAY);
        times.push(TimeOfDay::MIDNIGHT);
        times.sort();
        times.dedup();
        // `from_atis` gathers every boundary of every door; a few distinct
        // instants remain, so the rest of the buffer goes back.
        times.shrink_to_fit();
        CheckpointSet { times }
    }

    /// Collects every interval boundary of the given ATI lists into a
    /// checkpoint set (the paper's construction of `T` from door ATIs).
    pub fn from_atis<'a>(atis: impl IntoIterator<Item = &'a AtiList>) -> Self {
        let times = atis
            .into_iter()
            .flat_map(|a| a.boundaries())
            .collect::<Vec<_>>();
        Self::from_times(times)
    }

    /// The checkpoints in ascending order (first is always 0:00).
    #[must_use]
    pub fn times(&self) -> &[TimeOfDay] {
        &self.times
    }

    /// Number of checkpoints, counting the implicit midnight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Heap bytes of the checkpoint list, its capacity included.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.times.capacity() * std::mem::size_of::<TimeOfDay>()
    }

    /// A checkpoint set never is empty (midnight is implicit), so this always
    /// returns `false`; provided for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the interval (between consecutive checkpoints) containing `t`.
    #[must_use]
    pub fn interval_index(&self, t: TimeOfDay) -> usize {
        // partition_point returns the count of checkpoints <= t; midnight
        // guarantees at least one.
        self.times.partition_point(|cp| *cp <= t).saturating_sub(1)
    }

    /// `Find_Previous_Checkpoint(t, T)`: the latest checkpoint at or before
    /// clock time `t` (always defined thanks to the implicit midnight).
    #[must_use]
    pub fn previous(&self, t: TimeOfDay) -> TimeOfDay {
        self.times[self.interval_index(t)]
    }

    /// `Find_Next_Checkpoint(cp, T)`: the earliest checkpoint strictly after
    /// `t`, or `None` if `t` falls in the last interval of the day.
    #[must_use]
    pub fn next(&self, t: TimeOfDay) -> Option<TimeOfDay> {
        let idx = self.times.partition_point(|cp| *cp <= t);
        self.times.get(idx).copied()
    }

    /// The timeline instant of the next checkpoint strictly after timestamp
    /// `ts`, looking past midnight into following days. Always defined because
    /// midnight recurs daily.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "day_base and checkpoint offsets are finite and non-negative by construction of TimeOfDay"
    )]
    pub fn next_instant(&self, ts: Timestamp) -> Timestamp {
        let day_base = f64::from(ts.day_offset()) * crate::SECONDS_PER_DAY;
        match self.next(ts.time_of_day()) {
            Some(cp) => Timestamp::from_seconds(day_base + cp.seconds()),
            // Wrap to the first checkpoint (midnight) of the next day.
            None => Timestamp::from_seconds(day_base + crate::SECONDS_PER_DAY),
        }
        .expect("checkpoint instants are finite and non-negative")
    }

    /// The half-open interval `[previous(t), next(t))` of constant topology
    /// containing `t`; the end is `None` in the last interval of the day.
    #[must_use]
    pub fn interval_of(&self, t: TimeOfDay) -> (TimeOfDay, Option<TimeOfDay>) {
        (self.previous(t), self.next(t))
    }

    /// The margin (in seconds) from `ts` to the next checkpoint instant on
    /// the timeline: how far an arrival can slip later without leaving its
    /// constant-topology interval. Always strictly positive (`next_instant`
    /// is strictly after `ts`).
    #[must_use]
    pub fn margin_to_next(&self, ts: Timestamp) -> f64 {
        (self.next_instant(ts) - ts).seconds()
    }
}

impl fmt::Display for CheckpointSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.times.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtiList;

    fn sample() -> CheckpointSet {
        CheckpointSet::from_times(vec![
            TimeOfDay::hm(8, 0),
            TimeOfDay::hm(16, 0),
            TimeOfDay::hm(9, 0),
            TimeOfDay::hm(8, 0), // duplicate
        ])
    }

    #[test]
    fn construction_dedups_and_inserts_midnight() {
        let cps = sample();
        assert_eq!(
            cps.times(),
            &[
                TimeOfDay::MIDNIGHT,
                TimeOfDay::hm(8, 0),
                TimeOfDay::hm(9, 0),
                TimeOfDay::hm(16, 0)
            ]
        );
        assert_eq!(cps.len(), 4);
        assert!(!cps.is_empty());
    }

    #[test]
    fn from_atis_collects_boundaries() {
        let a = AtiList::hm(&[((8, 0), (16, 0))]);
        let b = AtiList::hm(&[((0, 0), (6, 0)), ((6, 30), (23, 0))]);
        let cps = CheckpointSet::from_atis([&a, &b]);
        assert_eq!(
            cps.times(),
            &[
                TimeOfDay::MIDNIGHT,
                TimeOfDay::hm(6, 0),
                TimeOfDay::hm(6, 30),
                TimeOfDay::hm(8, 0),
                TimeOfDay::hm(16, 0),
                TimeOfDay::hm(23, 0),
            ]
        );
    }

    #[test]
    fn always_open_contributes_only_midnight() {
        let cps = CheckpointSet::from_atis([&AtiList::always_open()]);
        assert_eq!(cps.times(), &[TimeOfDay::MIDNIGHT]);
    }

    #[test]
    fn previous_and_next() {
        let cps = sample();
        assert_eq!(cps.previous(TimeOfDay::hm(7, 59)), TimeOfDay::MIDNIGHT);
        assert_eq!(cps.previous(TimeOfDay::hm(8, 0)), TimeOfDay::hm(8, 0));
        assert_eq!(cps.previous(TimeOfDay::hm(12, 0)), TimeOfDay::hm(9, 0));
        assert_eq!(cps.next(TimeOfDay::hm(8, 0)), Some(TimeOfDay::hm(9, 0)));
        assert_eq!(cps.next(TimeOfDay::hm(12, 0)), Some(TimeOfDay::hm(16, 0)));
        assert_eq!(cps.next(TimeOfDay::hm(16, 0)), None);
        assert_eq!(cps.next(TimeOfDay::hm(23, 0)), None);
    }

    #[test]
    fn interval_index_partitions_day() {
        let cps = sample();
        assert_eq!(cps.interval_index(TimeOfDay::MIDNIGHT), 0);
        assert_eq!(cps.interval_index(TimeOfDay::hm(8, 30)), 1);
        assert_eq!(cps.interval_index(TimeOfDay::hm(9, 0)), 2);
        assert_eq!(cps.interval_index(TimeOfDay::hm(23, 59)), 3);
    }

    #[test]
    fn next_instant_wraps_to_next_day() {
        let cps = sample();
        let late = Timestamp::from_time_of_day(TimeOfDay::hm(20, 0));
        assert_eq!(cps.next_instant(late).seconds(), crate::SECONDS_PER_DAY);
        let morning = Timestamp::from_time_of_day(TimeOfDay::hm(3, 0));
        assert_eq!(cps.next_instant(morning).seconds(), 8.0 * 3600.0);
        // Next day: 1d + 3:00 -> 1d + 8:00.
        let next_day = Timestamp::from_seconds(crate::SECONDS_PER_DAY + 3.0 * 3600.0).unwrap();
        assert_eq!(
            cps.next_instant(next_day).seconds(),
            crate::SECONDS_PER_DAY + 8.0 * 3600.0
        );
    }

    #[test]
    fn margin_to_next_is_positive_and_exact() {
        let cps = sample();
        let at = Timestamp::from_time_of_day(TimeOfDay::hm(8, 30));
        assert!((cps.margin_to_next(at) - 1800.0).abs() < 1e-9);
        // Exactly on a checkpoint: the margin spans the whole next interval.
        let on = Timestamp::from_time_of_day(TimeOfDay::hm(9, 0));
        assert!((cps.margin_to_next(on) - 7.0 * 3600.0).abs() < 1e-9);
        // Last interval of the day wraps to next-day midnight.
        let late = Timestamp::from_time_of_day(TimeOfDay::hm(20, 0));
        assert!((cps.margin_to_next(late) - 4.0 * 3600.0).abs() < 1e-9);
        assert!(cps.margin_to_next(late) > 0.0);
    }

    #[test]
    fn interval_of() {
        let cps = sample();
        assert_eq!(
            cps.interval_of(TimeOfDay::hm(10, 0)),
            (TimeOfDay::hm(9, 0), Some(TimeOfDay::hm(16, 0)))
        );
        assert_eq!(
            cps.interval_of(TimeOfDay::hm(17, 0)),
            (TimeOfDay::hm(16, 0), None)
        );
    }

    #[test]
    fn display() {
        assert_eq!(
            CheckpointSet::from_times(vec![TimeOfDay::hm(8, 0)]).to_string(),
            "{0:00, 8:00}"
        );
    }
}
