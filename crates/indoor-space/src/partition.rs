//! Partition records.

use indoor_geom::Polygon;
use serde::{Deserialize, Serialize};

use crate::{FloorId, PartitionId};

/// The paper's partition types (`p-type`), extended with an explicit outdoor
/// kind for the `v0` vertex of the IT-Graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionKind {
    /// `PBP` — a public partition; paths may traverse it freely.
    Public,
    /// `PRP` — a private partition; traversal is forbidden unless it contains
    /// the source or target point.
    Private,
    /// The outdoor space (`v0` in the paper's Figure 2). Routing never passes
    /// through it; it exists so entrance doors have a second side.
    Outdoor,
}

impl PartitionKind {
    /// The paper's abbreviation.
    #[must_use]
    pub fn abbrev(self) -> &'static str {
        match self {
            PartitionKind::Public => "PBP",
            PartitionKind::Private => "PRP",
            PartitionKind::Outdoor => "OUT",
        }
    }

    /// Whether a path may pass *through* this partition (rule 2 of the ITSPQ
    /// definition allows only public partitions as intermediates).
    #[must_use]
    pub fn traversable(self) -> bool {
        matches!(self, PartitionKind::Public)
    }
}

/// A partition of the venue: the `(IDv, p-type, DM)` vertex label of the
/// IT-Graph plus its footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionRecord {
    /// Dense identifier.
    pub id: PartitionId,
    /// Human-readable name (e.g. `"v16"` or `"hall 2/3"`).
    pub name: String,
    /// `p-type`: public, private or outdoor.
    pub kind: PartitionKind,
    /// Floor hosting the partition.
    pub floor: FloorId,
    /// Optional polygon footprint in the floor's local frame.
    pub polygon: Option<Polygon>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbreviations_and_traversability() {
        assert_eq!(PartitionKind::Public.abbrev(), "PBP");
        assert_eq!(PartitionKind::Private.abbrev(), "PRP");
        assert_eq!(PartitionKind::Outdoor.abbrev(), "OUT");
        assert!(PartitionKind::Public.traversable());
        assert!(!PartitionKind::Private.traversable());
        assert!(!PartitionKind::Outdoor.traversable());
    }
}
