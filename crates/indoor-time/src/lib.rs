//! Temporal model for indoor venues with temporal variations.
//!
//! This crate is the time substrate of the ITSPQ reproduction (Liu et al.,
//! ICDE 2020). It provides:
//!
//! * [`TimeOfDay`] — a clock time within one day, with second resolution kept
//!   as `f64` seconds so that arrival times computed from metric distances and
//!   walking speed stay exact enough for interval membership tests;
//! * [`Timestamp`] — a point on a continuous timeline (seconds since the start
//!   of day 0) that may run past midnight while a path is being walked;
//! * [`DurationSecs`] — a non-negative span of time;
//! * [`Interval`] — a half-open `[open, close)` interval of the day, the unit
//!   the paper uses to express door opening hours;
//! * [`AtiList`] — a door's *Active Time Intervals* (normalised, sorted,
//!   disjoint), with membership and next-change queries;
//! * [`CheckpointSet`] — the set `T` of all open/close times in a venue, with
//!   the `Find_Previous_Checkpoint` / `Find_Next_Checkpoint` operations used by
//!   the paper's Algorithm 3 and 4;
//! * [`Velocity`] and [`WALKING_SPEED`] — the paper's 5 km/h walking-speed
//!   model used to convert distances into arrival times.
//!
//! # Example
//!
//! ```
//! use indoor_time::{AtiList, Interval, TimeOfDay, Timestamp, WALKING_SPEED};
//!
//! // Door d2 of the paper's Table I: open 8:00-16:00.
//! let atis = AtiList::from_intervals(vec![
//!     Interval::new(TimeOfDay::hm(8, 0), TimeOfDay::hm(16, 0)).unwrap(),
//! ]).unwrap();
//!
//! let depart = Timestamp::from_time_of_day(TimeOfDay::hm(9, 0));
//! let arrival = depart + WALKING_SPEED.travel_time(125.0); // 125 m away
//! assert!(atis.is_open_at(arrival));
//! ```

#![forbid(unsafe_code)]
// Library discipline, checked by `cargo clippy` (ARCHITECTURE.md § "Static
// analysis & invariants"): no panics, no float equality, no hash-order
// iteration, and every exception an `#[expect]` with its reason. Test builds
// are exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp,
        clippy::iter_over_hash_type,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

mod ati;
mod checkpoints;
mod duration;
mod error;
mod interval;
mod time;
mod velocity;

pub use ati::{AtiList, HmPair};
pub use checkpoints::CheckpointSet;
pub use duration::DurationSecs;
pub use error::TimeError;
pub use interval::Interval;
pub use time::{TimeOfDay, Timestamp, SECONDS_PER_DAY};
pub use velocity::{Velocity, WALKING_SPEED};
