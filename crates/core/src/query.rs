//! Queries, paths, results and the typed query error.

use std::fmt;

use indoor_space::{DoorId, IndoorPoint, IndoorSpace, PartitionId};
use indoor_time::{DurationSecs, TimeOfDay, Timestamp};
use serde::{Deserialize, Serialize};

use crate::SearchStats;

/// Why a query could not be *evaluated* (as opposed to evaluating to "no
/// such routes", which is a successful [`QueryOutcome::NoRoute`]).
///
/// Engines validate inputs up front so that malformed queries surface as
/// values instead of panicking a search — essential for the server, where a
/// panic would poison a worker thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryError {
    /// A source or target coordinate is NaN or infinite.
    NonFinitePosition {
        /// Which endpoint: `"source"` or `"target"`.
        endpoint: &'static str,
        /// The offending x coordinate.
        x: f64,
        /// The offending y coordinate.
        y: f64,
    },
    /// A source or target names a partition the venue does not have.
    UnknownPartition {
        /// Which endpoint: `"source"` or `"target"`.
        endpoint: &'static str,
        /// The out-of-range partition index.
        index: usize,
        /// Number of partitions in the venue.
        num_partitions: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NonFinitePosition { endpoint, x, y } => {
                write!(f, "{endpoint} position ({x}, {y}) is not finite")
            }
            QueryError::UnknownPartition {
                endpoint,
                index,
                num_partitions,
            } => write!(
                f,
                "{endpoint} partition index {index} out of range (venue has {num_partitions})"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// An `ITSPQ(ps, pt, t)` query: source point, target point, departure time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// The start point `ps`.
    pub source: IndoorPoint,
    /// The target point `pt`.
    pub target: IndoorPoint,
    /// The departure clock time `t`.
    pub time: TimeOfDay,
}

impl Query {
    /// Creates a query.
    #[must_use]
    pub fn new(source: IndoorPoint, target: IndoorPoint, time: TimeOfDay) -> Self {
        Query {
            source,
            target,
            time,
        }
    }

    /// The departure instant on the timeline.
    #[must_use]
    pub fn departure(&self) -> Timestamp {
        Timestamp::from_time_of_day(self.time)
    }

    /// Checks that the query is evaluable against `space`: both endpoints
    /// have finite coordinates and name existing partitions.
    ///
    /// # Errors
    /// [`QueryError::NonFinitePosition`] or [`QueryError::UnknownPartition`]
    /// on the first malformed endpoint (source checked before target).
    pub fn validate(&self, space: &IndoorSpace) -> Result<(), QueryError> {
        let n = space.num_partitions();
        for (endpoint, p) in [("source", &self.source), ("target", &self.target)] {
            let (x, y) = (p.position.x, p.position.y);
            if !x.is_finite() || !y.is_finite() {
                return Err(QueryError::NonFinitePosition { endpoint, x, y });
            }
            if p.partition.index() >= n {
                return Err(QueryError::UnknownPartition {
                    endpoint,
                    index: p.partition.index(),
                    num_partitions: n,
                });
            }
        }
        Ok(())
    }
}

/// One door crossing of a path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DoorHop {
    /// The door crossed.
    pub door: DoorId,
    /// The partition walked through to reach this door.
    pub via_partition: PartitionId,
    /// Cumulative walking distance from `ps` when reaching the door (metres).
    pub distance: f64,
    /// Arrival instant at the door (`t + distance / velocity`).
    pub arrival: Timestamp,
}

/// A valid indoor path `(ps, d_1, …, d_k, pt)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Path {
    /// The start point.
    pub source: IndoorPoint,
    /// The target point.
    pub target: IndoorPoint,
    /// Door crossings in travel order (empty when `ps` and `pt` share a
    /// partition).
    pub hops: Vec<DoorHop>,
    /// Total walking distance in metres.
    pub length: f64,
    /// Departure instant.
    pub departure: Timestamp,
    /// Arrival instant at `pt`.
    pub arrival: Timestamp,
}

impl Path {
    /// The doors crossed, in order.
    pub fn doors(&self) -> impl Iterator<Item = DoorId> + '_ {
        self.hops.iter().map(|h| h.door)
    }

    /// Travel duration.
    #[must_use]
    pub fn duration(&self) -> DurationSecs {
        self.arrival - self.departure
    }

    /// Renders the path in the paper's notation, e.g. `(p_s, d18, p_t)`.
    #[must_use]
    pub fn format_with(&self, space: &IndoorSpace) -> String {
        let mut s = String::from("(ps");
        for hop in &self.hops {
            s.push_str(", ");
            s.push_str(&space.door(hop.door).name);
        }
        s.push_str(", pt)");
        s
    }
}

/// Why a query produced no path (the paper's "no such routes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryOutcome {
    /// A valid shortest path was found.
    Found,
    /// Every candidate was exhausted without reaching `pt`.
    NoRoute,
}

/// The result of one ITSPQ query: the path (if any) plus search statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The valid shortest path, or `None` for "no such routes".
    pub path: Option<Path>,
    /// Counters and memory accounting for this search.
    pub stats: SearchStats,
}

impl QueryResult {
    /// The outcome tag.
    #[must_use]
    pub fn outcome(&self) -> QueryOutcome {
        if self.path.is_some() {
            QueryOutcome::Found
        } else {
            QueryOutcome::NoRoute
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_geom::Point;

    fn path_fixture() -> Path {
        let src = IndoorPoint::new(PartitionId(13), Point::new(0.0, 0.0));
        let dst = IndoorPoint::new(PartitionId(14), Point::new(10.0, 0.0));
        let dep = Timestamp::from_time_of_day(TimeOfDay::hm(9, 0));
        Path {
            source: src,
            target: dst,
            hops: vec![DoorHop {
                door: DoorId(17),
                via_partition: PartitionId(13),
                distance: 1.0,
                arrival: dep + DurationSecs::new(0.72).unwrap(),
            }],
            length: 12.0,
            departure: dep,
            arrival: dep + DurationSecs::new(8.64).unwrap(),
        }
    }

    #[test]
    fn query_departure_is_clock_time() {
        let q = Query::new(
            IndoorPoint::new(PartitionId(0), Point::ORIGIN),
            IndoorPoint::new(PartitionId(1), Point::ORIGIN),
            TimeOfDay::hm(12, 0),
        );
        assert_eq!(q.departure().seconds(), 12.0 * 3600.0);
    }

    #[test]
    fn path_accessors() {
        let p = path_fixture();
        assert_eq!(p.doors().collect::<Vec<_>>(), vec![DoorId(17)]);
        assert!((p.duration().seconds() - 8.64).abs() < 1e-9);
    }

    #[test]
    fn outcome_tags() {
        let found = QueryResult {
            path: Some(path_fixture()),
            stats: SearchStats::default(),
        };
        assert_eq!(found.outcome(), QueryOutcome::Found);
        let missing = QueryResult {
            path: None,
            stats: SearchStats::default(),
        };
        assert_eq!(missing.outcome(), QueryOutcome::NoRoute);
    }

    #[test]
    fn serde_round_trip() {
        let p = path_fixture();
        let json = serde_json::to_string(&p).unwrap();
        let back: Path = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
