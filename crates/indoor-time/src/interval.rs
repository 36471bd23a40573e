//! Half-open time intervals `[start, end)`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{TimeError, TimeOfDay};

/// A half-open interval `[start, end)` within one day.
///
/// This is the unit the paper uses for a door's active time: `[8:00, 16:00)`
/// means the door opens at 8:00 and closes at 16:00. `end` must lie strictly
/// after `start`; the paper's always-open interval is `[0:00, 24:00)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Interval {
    start: TimeOfDay,
    end: TimeOfDay,
}

impl Interval {
    /// The full day, `[0:00, 24:00)`.
    pub const FULL_DAY: Interval = Interval {
        start: TimeOfDay::MIDNIGHT,
        end: TimeOfDay::END_OF_DAY,
    };

    /// Creates `[start, end)`.
    ///
    /// # Errors
    /// Returns [`TimeError::EmptyInterval`] unless `start < end`.
    pub fn new(start: TimeOfDay, end: TimeOfDay) -> Result<Self, TimeError> {
        if start >= end {
            return Err(TimeError::EmptyInterval {
                start: start.seconds(),
                end: end.seconds(),
            });
        }
        Ok(Interval { start, end })
    }

    /// Convenience constructor from `(hour, minute)` pairs; panics on invalid
    /// input. Intended for literals such as `Interval::hm((8, 0), (16, 0))`.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panicking literal constructor for Table I-style fixtures"
    )]
    pub fn hm(start: (u32, u32), end: (u32, u32)) -> Self {
        Interval::new(TimeOfDay::hm(start.0, start.1), TimeOfDay::hm(end.0, end.1))
            .expect("interval literal must be non-empty")
    }

    /// Interval start (inclusive).
    #[must_use]
    pub fn start(self) -> TimeOfDay {
        self.start
    }

    /// Interval end (exclusive).
    #[must_use]
    pub fn end(self) -> TimeOfDay {
        self.end
    }

    /// Length of the interval in seconds.
    #[must_use]
    pub fn duration_seconds(self) -> f64 {
        self.end.seconds() - self.start.seconds()
    }

    /// Whether `t` lies inside `[start, end)`.
    #[must_use]
    pub fn contains(self, t: TimeOfDay) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether the two intervals share at least one instant.
    #[must_use]
    pub fn overlaps(self, other: Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether the two intervals overlap or touch (can be merged into one).
    #[must_use]
    pub fn mergeable(self, other: Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The union of two mergeable intervals; `None` if they are disjoint and
    /// non-adjacent.
    #[must_use]
    pub fn merge(self, other: Interval) -> Option<Interval> {
        if !self.mergeable(other) {
            return None;
        }
        Some(Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        })
    }

    /// The intersection of two intervals; `None` if they do not overlap.
    #[must_use]
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        if !self.overlaps(other) {
            return None;
        }
        Some(Interval {
            start: self.start.max(other.start),
            end: self.end.min(other.end),
        })
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty() {
        let t = TimeOfDay::hm(9, 0);
        assert!(Interval::new(t, t).is_err());
        assert!(Interval::new(TimeOfDay::hm(10, 0), t).is_err());
    }

    #[test]
    fn membership_is_half_open() {
        let i = Interval::hm((8, 0), (16, 0));
        assert!(i.contains(TimeOfDay::hm(8, 0)));
        assert!(i.contains(TimeOfDay::hm(15, 59)));
        assert!(!i.contains(TimeOfDay::hm(16, 0)));
        assert!(!i.contains(TimeOfDay::hm(7, 59)));
    }

    #[test]
    fn full_day_contains_everything_but_24() {
        assert!(Interval::FULL_DAY.contains(TimeOfDay::MIDNIGHT));
        assert!(Interval::FULL_DAY.contains(TimeOfDay::hms(23, 59, 59)));
        assert!(!Interval::FULL_DAY.contains(TimeOfDay::END_OF_DAY));
    }

    #[test]
    fn overlap_and_merge() {
        let a = Interval::hm((8, 0), (12, 0));
        let b = Interval::hm((11, 0), (16, 0));
        let c = Interval::hm((12, 0), (13, 0));
        let d = Interval::hm((14, 0), (15, 0));

        assert!(a.overlaps(b));
        assert!(!a.overlaps(c)); // touching is not overlapping
        assert!(a.mergeable(c)); // but touching merges
        assert_eq!(a.merge(b), Some(Interval::hm((8, 0), (16, 0))));
        assert_eq!(a.merge(c), Some(Interval::hm((8, 0), (13, 0))));
        assert_eq!(a.merge(d), None);
        assert_eq!(a.intersect(b), Some(Interval::hm((11, 0), (12, 0))));
        assert_eq!(a.intersect(c), None);
    }

    #[test]
    fn duration() {
        assert_eq!(Interval::hm((8, 0), (9, 30)).duration_seconds(), 5400.0);
        assert_eq!(Interval::FULL_DAY.duration_seconds(), 86_400.0);
    }

    #[test]
    fn display() {
        assert_eq!(Interval::hm((8, 0), (16, 0)).to_string(), "[8:00, 16:00)");
    }

    #[test]
    fn serde_round_trip() {
        let i = Interval::hm((6, 30), (23, 0));
        let json = serde_json::to_string(&i).unwrap();
        let back: Interval = serde_json::from_str(&json).unwrap();
        assert_eq!(i, back);
    }
}
