//! Clock times and timeline timestamps.

use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

use crate::{DurationSecs, TimeError};

/// Number of seconds in one day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// A clock time within a single day, stored as seconds since midnight.
///
/// The value is always within `[0, 86 400]`; the upper bound (24:00) is
/// permitted so that the paper's fully-open interval `[0:00, 24:00)` can be
/// expressed as a regular [`crate::Interval`]. Serialised as its seconds;
/// deserialising checks them through [`TimeOfDay::from_seconds`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "f64", into = "f64")]
pub struct TimeOfDay(f64);

impl TryFrom<f64> for TimeOfDay {
    type Error = TimeError;

    fn try_from(secs: f64) -> Result<Self, TimeError> {
        TimeOfDay::from_seconds(secs)
    }
}

impl From<TimeOfDay> for f64 {
    fn from(t: TimeOfDay) -> f64 {
        t.0
    }
}

impl TimeOfDay {
    /// Midnight (0:00).
    pub const MIDNIGHT: TimeOfDay = TimeOfDay(0.0);
    /// End of day (24:00). Valid only as an interval *end*.
    pub const END_OF_DAY: TimeOfDay = TimeOfDay(SECONDS_PER_DAY);

    /// Creates a time from seconds since midnight.
    ///
    /// # Errors
    /// Returns [`TimeError::OutOfRange`] if `secs` is not finite or lies
    /// outside `[0, 86 400]`.
    pub fn from_seconds(secs: f64) -> Result<Self, TimeError> {
        if !secs.is_finite() || !(0.0..=SECONDS_PER_DAY).contains(&secs) {
            return Err(TimeError::OutOfRange(secs));
        }
        Ok(TimeOfDay(secs))
    }

    /// Creates a time from hours and minutes. Panics on out-of-range input;
    /// intended for literals such as `TimeOfDay::hm(9, 30)`.
    #[must_use]
    pub fn hm(hours: u32, minutes: u32) -> Self {
        Self::hms(hours, minutes, 0)
    }

    /// Creates a time from hours, minutes and seconds. Panics on out-of-range
    /// input; intended for literals.
    #[must_use]
    pub fn hms(hours: u32, minutes: u32, seconds: u32) -> Self {
        assert!(hours <= 24, "hours out of range: {hours}");
        assert!(minutes < 60, "minutes out of range: {minutes}");
        assert!(seconds < 60, "seconds out of range: {seconds}");
        let total = f64::from(hours) * 3600.0 + f64::from(minutes) * 60.0 + f64::from(seconds);
        assert!(
            total <= SECONDS_PER_DAY,
            "time past end of day: {hours}:{minutes}:{seconds}"
        );
        TimeOfDay(total)
    }

    /// Seconds since midnight.
    #[must_use]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Hour component (0–24).
    #[must_use]
    pub fn hour(self) -> u32 {
        (self.0 / 3600.0) as u32
    }

    /// Minute component (0–59).
    #[must_use]
    pub fn minute(self) -> u32 {
        ((self.0 % 3600.0) / 60.0) as u32
    }
}

impl Eq for TimeOfDay {}

impl PartialOrd for TimeOfDay {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeOfDay {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Values are finite by construction; total_cmp keeps the order total
        // even if arithmetic ever smuggles a NaN through.
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for TimeOfDay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.0.round() as u64;
        let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
        if s == 0 {
            write!(f, "{h}:{m:02}")
        } else {
            write!(f, "{h}:{m:02}:{s:02}")
        }
    }
}

/// A point on a continuous timeline measured in seconds from midnight of the
/// query day.
///
/// Unlike [`TimeOfDay`], a `Timestamp` may exceed 24 h: a path that starts at
/// 23:50 keeps accumulating walking time past midnight. Interval membership
/// reduces timestamps modulo one day (see [`crate::AtiList::is_open_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Timestamp(f64);

impl Timestamp {
    /// Creates a timestamp from raw seconds.
    ///
    /// # Errors
    /// Returns [`TimeError::OutOfRange`] if `secs` is not finite or negative.
    pub fn from_seconds(secs: f64) -> Result<Self, TimeError> {
        if !secs.is_finite() || secs < 0.0 {
            return Err(TimeError::OutOfRange(secs));
        }
        Ok(Timestamp(secs))
    }

    /// Places a clock time on the timeline of the query day.
    #[must_use]
    pub fn from_time_of_day(t: TimeOfDay) -> Self {
        Timestamp(t.seconds())
    }

    /// Seconds since midnight of the query day.
    #[must_use]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The clock time this timestamp corresponds to (reduced modulo one day).
    #[must_use]
    pub fn time_of_day(self) -> TimeOfDay {
        TimeOfDay(self.0.rem_euclid(SECONDS_PER_DAY))
    }

    /// How many whole days past the query day this timestamp lies.
    #[must_use]
    pub fn day_offset(self) -> u32 {
        (self.0 / SECONDS_PER_DAY) as u32
    }
}

impl Eq for Timestamp {}

impl PartialOrd for Timestamp {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Timestamp {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<TimeOfDay> for Timestamp {
    fn from(t: TimeOfDay) -> Self {
        Timestamp::from_time_of_day(t)
    }
}

impl Add<DurationSecs> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: DurationSecs) -> Timestamp {
        Timestamp(self.0 + rhs.seconds())
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = DurationSecs;

    fn sub(self, rhs: Timestamp) -> DurationSecs {
        // Finite minus finite clamped at zero: saturating is exact here and
        // total if either operand is ever degenerate.
        DurationSecs::saturating(self.0 - rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day_offset();
        if day == 0 {
            write!(f, "{}", self.time_of_day())
        } else {
            write!(f, "{}+{}d", self.time_of_day(), day)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_of_day_constructors() {
        assert_eq!(TimeOfDay::hm(0, 0), TimeOfDay::MIDNIGHT);
        assert_eq!(TimeOfDay::hm(24, 0), TimeOfDay::END_OF_DAY);
        assert_eq!(TimeOfDay::hm(8, 30).seconds(), 8.0 * 3600.0 + 30.0 * 60.0);
        assert_eq!(TimeOfDay::hms(8, 30, 15).seconds(), 8.5 * 3600.0 + 15.0);
    }

    #[test]
    fn time_of_day_rejects_out_of_range() {
        assert!(TimeOfDay::from_seconds(-1.0).is_err());
        assert!(TimeOfDay::from_seconds(SECONDS_PER_DAY + 0.1).is_err());
        assert!(TimeOfDay::from_seconds(f64::NAN).is_err());
        assert!(TimeOfDay::from_seconds(0.0).is_ok());
        assert!(TimeOfDay::from_seconds(SECONDS_PER_DAY).is_ok());
    }

    #[test]
    #[should_panic(expected = "minutes out of range")]
    fn hm_panics_on_bad_minutes() {
        let _ = TimeOfDay::hm(5, 60);
    }

    #[test]
    #[should_panic(expected = "time past end of day")]
    fn hm_panics_past_end_of_day() {
        let _ = TimeOfDay::hms(24, 0, 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TimeOfDay::hm(9, 5).to_string(), "9:05");
        assert_eq!(TimeOfDay::hms(23, 59, 59).to_string(), "23:59:59");
        assert_eq!(TimeOfDay::MIDNIGHT.to_string(), "0:00");
    }

    #[test]
    fn components() {
        let t = TimeOfDay::hms(13, 45, 20);
        assert_eq!(t.hour(), 13);
        assert_eq!(t.minute(), 45);
    }

    #[test]
    fn timestamp_wraps_past_midnight() {
        let ts = Timestamp::from_seconds(SECONDS_PER_DAY + 90.0).unwrap();
        assert_eq!(ts.day_offset(), 1);
        assert_eq!(ts.time_of_day(), TimeOfDay::hms(0, 1, 30));
        assert_eq!(ts.to_string(), "0:01:30+1d");
    }

    #[test]
    fn timestamp_arithmetic() {
        let t0 = Timestamp::from_time_of_day(TimeOfDay::hm(12, 0));
        let t1 = t0 + DurationSecs::new(120.0).unwrap();
        assert_eq!(t1.time_of_day(), TimeOfDay::hm(12, 2));
        assert_eq!((t1 - t0).seconds(), 120.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            TimeOfDay::hm(9, 0),
            TimeOfDay::hm(8, 0),
            TimeOfDay::hm(10, 0),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                TimeOfDay::hm(8, 0),
                TimeOfDay::hm(9, 0),
                TimeOfDay::hm(10, 0)
            ]
        );
    }

    #[test]
    fn serde_round_trip() {
        let t = TimeOfDay::hm(16, 30);
        let json = serde_json::to_string(&t).unwrap();
        let back: TimeOfDay = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn serde_refuses_times_outside_the_day() {
        for json in ["-1.0", "1e9", "86400.5"] {
            let err = serde_json::from_str::<TimeOfDay>(json).unwrap_err();
            assert!(err.to_string().contains("out of range"), "{json}: {err}");
        }
        let end: TimeOfDay = serde_json::from_str("86400.0").unwrap();
        assert_eq!(end, TimeOfDay::END_OF_DAY);
    }
}
