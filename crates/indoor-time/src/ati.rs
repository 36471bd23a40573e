//! Active Time Intervals (ATIs) of a door.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Interval, TimeError, TimeOfDay, Timestamp};

/// An `((open_h, open_m), (close_h, close_m))` literal used by [`AtiList::hm`].
pub type HmPair = ((u32, u32), (u32, u32));

/// A door's Active Time Intervals: the set of day times at which the door is
/// open.
///
/// Stored as a normalised sequence of [`Interval`]s — sorted by start, pairwise
/// disjoint and non-adjacent (adjacent/overlapping inputs are merged during
/// construction), matching the paper's ATI arrays such as
/// `⟨[0:00, 6:00), [6:30, 23:00)⟩` for door d9.
///
/// An empty list means the door is never open.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "Vec<Interval>", into = "Vec<Interval>")]
pub struct AtiList {
    intervals: Vec<Interval>,
}

impl AtiList {
    /// A door that is always open: `⟨[0:00, 24:00)⟩`.
    #[must_use]
    pub fn always_open() -> Self {
        AtiList {
            intervals: vec![Interval::FULL_DAY],
        }
    }

    /// A door that is never open.
    #[must_use]
    pub fn never_open() -> Self {
        AtiList {
            intervals: Vec::new(),
        }
    }

    /// Heap bytes of the interval list, its capacity included.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.intervals.capacity() * std::mem::size_of::<Interval>()
    }

    /// Builds a normalised ATI list from arbitrary intervals: the input is
    /// sorted and overlapping or adjacent intervals are merged.
    ///
    /// # Errors
    /// Currently infallible for valid [`Interval`] values; the `Result` is kept
    /// so that deserialisation of raw interval pairs can report errors.
    pub fn from_intervals(mut intervals: Vec<Interval>) -> Result<Self, TimeError> {
        intervals.sort();
        let mut merged: Vec<Interval> = Vec::with_capacity(intervals.len());
        for iv in intervals {
            match merged.pop() {
                Some(last) => match last.merge(iv) {
                    Some(m) => merged.push(m),
                    None => {
                        merged.push(last);
                        merged.push(iv);
                    }
                },
                None => merged.push(iv),
            }
        }
        Ok(AtiList { intervals: merged })
    }

    /// Builds an ATI list from `(open, close)` hour/minute pairs; panics on
    /// invalid literals. Mirrors the paper's Table I notation, e.g.
    /// `AtiList::hm(&[((0, 0), (6, 0)), ((6, 30), (23, 0))])` for d9.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented literal constructor; from_intervals is infallible for valid Interval values"
    )]
    pub fn hm(pairs: &[HmPair]) -> Self {
        let intervals = pairs.iter().map(|&(s, e)| Interval::hm(s, e)).collect();
        Self::from_intervals(intervals).expect("literal ATI list")
    }

    /// The normalised intervals, sorted by start time.
    #[must_use]
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Whether the door is open at clock time `t`.
    #[must_use]
    pub fn is_open(&self, t: TimeOfDay) -> bool {
        // Binary search on start times: candidate is the last interval whose
        // start is <= t.
        match self.intervals.partition_point(|iv| iv.start() <= t) {
            0 => false,
            idx => self.intervals[idx - 1].contains(t),
        }
    }

    /// Whether the door is open at timeline instant `ts` (reduced to its clock
    /// time; a walk crossing midnight consults the same daily schedule).
    #[must_use]
    pub fn is_open_at(&self, ts: Timestamp) -> bool {
        self.is_open(ts.time_of_day())
    }

    /// Whether this list is exactly `[0:00, 24:00)`.
    #[must_use]
    pub fn is_always_open(&self) -> bool {
        self.intervals == [Interval::FULL_DAY]
    }

    /// Whether this list has no open time at all.
    #[must_use]
    pub fn is_never_open(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Whether this door has temporal variation (it is neither always open nor
    /// permanently closed).
    #[must_use]
    pub fn has_variation(&self) -> bool {
        !self.is_always_open() && !self.is_never_open()
    }

    /// Total number of open seconds per day.
    #[must_use]
    pub fn open_seconds(&self) -> f64 {
        self.intervals.iter().map(|iv| iv.duration_seconds()).sum()
    }

    /// The next instant strictly after `t` at which the open/closed state
    /// changes, or `None` if the state never changes again within the day.
    #[must_use]
    pub fn next_change_after(&self, t: TimeOfDay) -> Option<TimeOfDay> {
        self.boundaries().find(|&b| b > t)
    }

    /// All state-change instants (interval starts and ends) in ascending order.
    pub fn boundaries(&self) -> impl Iterator<Item = TimeOfDay> + '_ {
        self.intervals.iter().flat_map(|iv| [iv.start(), iv.end()])
    }

    /// The earliest timeline instant at or after `ts` at which the door is
    /// open — `ts` itself if already open, otherwise the next interval start
    /// (looking into the following day if needed). `None` for a door that is
    /// never open.
    #[must_use]
    pub fn next_open_at(&self, ts: Timestamp) -> Option<Timestamp> {
        if self.intervals.is_empty() {
            return None;
        }
        if self.is_open_at(ts) {
            return Some(ts);
        }
        let clock = ts.time_of_day();
        let day_base = f64::from(ts.day_offset()) * crate::SECONDS_PER_DAY;
        let next_start = self
            .intervals
            .iter()
            .map(|iv| iv.start())
            .find(|&s| s > clock);
        let instant = match next_start {
            Some(s) => day_base + s.seconds(),
            // Wrap to the first opening of the next day.
            None => day_base + crate::SECONDS_PER_DAY + self.intervals[0].start().seconds(),
        };
        // Finite day base plus an in-day offset is always a valid timestamp;
        // `.ok()` turns a broken invariant into "never opens" instead of a
        // panic.
        Timestamp::from_seconds(instant).ok()
    }
}

impl TryFrom<Vec<Interval>> for AtiList {
    type Error = TimeError;

    fn try_from(v: Vec<Interval>) -> Result<Self, TimeError> {
        AtiList::from_intervals(v)
    }
}

impl From<AtiList> for Vec<Interval> {
    fn from(a: AtiList) -> Vec<Interval> {
        a.intervals
    }
}

impl fmt::Display for AtiList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_merges_and_sorts() {
        let atis = AtiList::hm(&[((12, 0), (16, 0)), ((8, 0), (12, 0)), ((18, 0), (19, 0))]);
        assert_eq!(
            atis.intervals(),
            &[
                Interval::hm((8, 0), (16, 0)),
                Interval::hm((18, 0), (19, 0))
            ]
        );
    }

    #[test]
    fn normalisation_merges_overlaps() {
        let atis = AtiList::hm(&[((8, 0), (14, 0)), ((10, 0), (16, 0)), ((15, 0), (15, 30))]);
        assert_eq!(atis.intervals(), &[Interval::hm((8, 0), (16, 0))]);
    }

    #[test]
    fn membership_paper_d9() {
        // d9: ⟨[0:00, 6:00), [6:30, 23:00)⟩
        let d9 = AtiList::hm(&[((0, 0), (6, 0)), ((6, 30), (23, 0))]);
        assert!(d9.is_open(TimeOfDay::hm(5, 59)));
        assert!(!d9.is_open(TimeOfDay::hm(6, 0)));
        assert!(!d9.is_open(TimeOfDay::hm(6, 15)));
        assert!(d9.is_open(TimeOfDay::hm(6, 30)));
        assert!(d9.is_open(TimeOfDay::hm(22, 59)));
        assert!(!d9.is_open(TimeOfDay::hm(23, 0)));
        assert!(d9.has_variation());
    }

    #[test]
    fn always_and_never() {
        assert!(AtiList::always_open().is_open(TimeOfDay::hm(0, 0)));
        assert!(AtiList::always_open().is_open(TimeOfDay::hms(23, 59, 59)));
        assert!(!AtiList::always_open().has_variation());
        assert!(!AtiList::never_open().is_open(TimeOfDay::hm(12, 0)));
        assert!(AtiList::never_open().is_never_open());
    }

    #[test]
    fn timestamp_membership_wraps() {
        let atis = AtiList::hm(&[((0, 0), (6, 0))]);
        // 24:30 on the timeline is 0:30 next day -> open per daily schedule.
        let late = Timestamp::from_seconds(24.5 * 3600.0).unwrap();
        assert!(atis.is_open_at(late));
    }

    #[test]
    fn next_change() {
        let atis = AtiList::hm(&[((8, 0), (16, 0)), ((18, 0), (20, 0))]);
        assert_eq!(
            atis.next_change_after(TimeOfDay::hm(7, 0)),
            Some(TimeOfDay::hm(8, 0))
        );
        assert_eq!(
            atis.next_change_after(TimeOfDay::hm(8, 0)),
            Some(TimeOfDay::hm(16, 0))
        );
        assert_eq!(
            atis.next_change_after(TimeOfDay::hm(17, 0)),
            Some(TimeOfDay::hm(18, 0))
        );
        assert_eq!(atis.next_change_after(TimeOfDay::hm(20, 0)), None);
        assert_eq!(
            AtiList::never_open().next_change_after(TimeOfDay::MIDNIGHT),
            None
        );
    }

    #[test]
    fn open_seconds() {
        let atis = AtiList::hm(&[((8, 0), (9, 0)), ((10, 0), (10, 30))]);
        assert_eq!(atis.open_seconds(), 3600.0 + 1800.0);
        assert_eq!(AtiList::always_open().open_seconds(), 86_400.0);
    }

    #[test]
    fn next_open_at_handles_all_cases() {
        let atis = AtiList::hm(&[((8, 0), (16, 0)), ((18, 0), (20, 0))]);
        let at = |h: u32, m: u32| Timestamp::from_time_of_day(TimeOfDay::hm(h, m));
        // Already open: unchanged.
        assert_eq!(atis.next_open_at(at(9, 0)), Some(at(9, 0)));
        // Before first opening.
        assert_eq!(atis.next_open_at(at(7, 0)), Some(at(8, 0)));
        // Between intervals.
        assert_eq!(atis.next_open_at(at(16, 30)), Some(at(18, 0)));
        // After the last interval: wraps to 8:00 next day.
        let next = atis.next_open_at(at(21, 0)).unwrap();
        assert_eq!(next.day_offset(), 1);
        assert_eq!(next.time_of_day(), TimeOfDay::hm(8, 0));
        // Never-open doors have no opening.
        assert_eq!(AtiList::never_open().next_open_at(at(9, 0)), None);
        // Always-open doors open immediately.
        assert_eq!(
            AtiList::always_open().next_open_at(at(23, 59)),
            Some(at(23, 59))
        );
    }

    #[test]
    fn serde_round_trip_normalises() {
        let json = "[{\"start\":43200.0,\"end\":57600.0},{\"start\":28800.0,\"end\":43200.0}]";
        let atis: AtiList = serde_json::from_str(json).unwrap();
        assert_eq!(atis.intervals(), &[Interval::hm((8, 0), (16, 0))]);
        let back = serde_json::to_string(&atis).unwrap();
        let again: AtiList = serde_json::from_str(&back).unwrap();
        assert_eq!(atis, again);
    }

    #[test]
    fn serde_refuses_a_list_with_an_inverted_interval() {
        let json = "[{\"start\":28800.0,\"end\":43200.0},{\"start\":72000.0,\"end\":28800.0}]";
        assert!(serde_json::from_str::<AtiList>(json).is_err());
    }

    #[test]
    fn display() {
        let d13 = AtiList::hm(&[((5, 0), (17, 0)), ((18, 0), (23, 0))]);
        assert_eq!(d13.to_string(), "⟨[5:00, 17:00), [18:00, 23:00)⟩");
    }
}
