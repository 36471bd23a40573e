//! Error type for venue construction and validation.

use std::fmt;

use crate::{DoorId, PartitionId};

/// Errors raised while building or validating an [`crate::IndoorSpace`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// A referenced partition id does not exist.
    UnknownPartition(PartitionId),
    /// A referenced door id does not exist.
    UnknownDoor(DoorId),
    /// A door was given more than two sides.
    TooManySides(DoorId),
    /// A one-way door was given a single side: it must lead from one
    /// partition into another.
    OneWayBoundary(DoorId),
    /// A door was never connected to any partition.
    DanglingDoor(DoorId),
    /// A door was connected twice to the same partition pair.
    DuplicateConnection(DoorId),
    /// A door connection references the same partition on both sides.
    SelfLoop(DoorId, PartitionId),
    /// A computed or supplied distance is negative or non-finite.
    InvalidDistance {
        /// First door of the offending pair.
        a: DoorId,
        /// Second door of the offending pair.
        b: DoorId,
        /// Offending value.
        value: f64,
    },
    /// An explicit distance override paired a door with itself. The diagonal
    /// of every distance matrix is fixed at zero, so such an override would be
    /// silently ignored by construction — reject it loudly instead.
    SelfDistance {
        /// The partition whose matrix the override targeted.
        partition: PartitionId,
        /// The door paired with itself.
        door: DoorId,
    },
    /// A second explicit distance was given for one unordered door pair of
    /// one partition. Keeping either value silently would make the venue
    /// depend on the order of its overrides.
    DuplicateDistance {
        /// The partition whose matrix both overrides targeted.
        partition: PartitionId,
        /// The lower door of the pair.
        a: DoorId,
        /// The higher door of the pair.
        b: DoorId,
    },
    /// An explicit distance references a door that is not on the partition.
    ForeignDoor {
        /// The partition whose matrix was being built.
        partition: PartitionId,
        /// The door that does not belong to it.
        door: DoorId,
    },
    /// The venue has no partitions at all.
    EmptyVenue,
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::UnknownPartition(p) => write!(f, "unknown partition {p}"),
            SpaceError::UnknownDoor(d) => write!(f, "unknown door {d}"),
            SpaceError::TooManySides(d) => {
                write!(f, "door {d} connects more than two partitions")
            }
            SpaceError::OneWayBoundary(d) => {
                write!(f, "one-way door {d} has a single side")
            }
            SpaceError::DanglingDoor(d) => {
                write!(f, "door {d} is not connected to any partition")
            }
            SpaceError::DuplicateConnection(d) => {
                write!(f, "door {d} was connected more than once")
            }
            SpaceError::SelfLoop(d, p) => {
                write!(f, "door {d} connects partition {p} to itself")
            }
            SpaceError::InvalidDistance { a, b, value } => {
                write!(f, "invalid distance {value} between {a} and {b}")
            }
            SpaceError::SelfDistance { partition, door } => {
                write!(
                    f,
                    "distance override pairs door {door} with itself in partition {partition} \
                     (the matrix diagonal is fixed at zero)"
                )
            }
            SpaceError::DuplicateDistance { partition, a, b } => {
                write!(
                    f,
                    "distance between {a} and {b} in partition {partition} is given twice"
                )
            }
            SpaceError::ForeignDoor { partition, door } => {
                write!(f, "door {door} does not belong to partition {partition}")
            }
            SpaceError::EmptyVenue => write!(f, "venue has no partitions"),
        }
    }
}

impl std::error::Error for SpaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(SpaceError::UnknownDoor(DoorId(4))
            .to_string()
            .contains("d4"));
        assert!(SpaceError::SelfLoop(DoorId(1), PartitionId(2))
            .to_string()
            .contains("itself"));
        assert!(SpaceError::ForeignDoor {
            partition: PartitionId(3),
            door: DoorId(9)
        }
        .to_string()
        .contains("belong"));
        assert!(SpaceError::SelfDistance {
            partition: PartitionId(1),
            door: DoorId(2)
        }
        .to_string()
        .contains("itself"));
        assert_eq!(
            SpaceError::DuplicateDistance {
                partition: PartitionId(1),
                a: DoorId(2),
                b: DoorId(5)
            }
            .to_string(),
            "distance between d2 and d5 in partition v1 is given twice"
        );
    }
}
