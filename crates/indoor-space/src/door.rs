//! Door records.

use indoor_geom::Point;
use indoor_time::AtiList;
use serde::{Deserialize, Serialize};

use crate::{DoorId, FloorId};

/// The paper's door types: public (`PBD`) or private (`PRD`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DoorKind {
    /// `PBD` — a public door.
    Public,
    /// `PRD` — a private door (e.g. a staff door or a shop's back door).
    Private,
}

impl DoorKind {
    /// The paper's abbreviation (`PBD` / `PRD`).
    #[must_use]
    pub fn abbrev(self) -> &'static str {
        match self {
            DoorKind::Public => "PBD",
            DoorKind::Private => "PRD",
        }
    }
}

/// A door of the venue: the `(IDd, d-type, ATIs)` edge label of the IT-Graph
/// plus its geometric position.
#[derive(Debug, Clone, PartialEq)]
pub struct DoorRecord {
    /// Dense identifier.
    pub id: DoorId,
    /// Human-readable name (e.g. `"d7"` or `"shop 12 front"`).
    pub name: String,
    /// `d-type`: public or private.
    pub kind: DoorKind,
    /// The door's Active Time Intervals.
    pub atis: AtiList,
    /// Door position in the local frame of its floor.
    pub position: Point,
    /// Floor hosting the door (stair doors carry the lower floor).
    pub floor: FloorId,
}

impl DoorRecord {
    /// Whether the door's ATIs are neither always-open nor never-open.
    #[must_use]
    pub fn has_temporal_variation(&self) -> bool {
        self.atis.has_variation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_time::AtiList;

    #[test]
    fn abbreviations() {
        assert_eq!(DoorKind::Public.abbrev(), "PBD");
        assert_eq!(DoorKind::Private.abbrev(), "PRD");
    }

    #[test]
    fn temporal_variation_flag() {
        let mk = |atis: AtiList| DoorRecord {
            id: DoorId(0),
            name: "d0".into(),
            kind: DoorKind::Public,
            atis,
            position: Point::ORIGIN,
            floor: FloorId(0),
        };
        assert!(!mk(AtiList::always_open()).has_temporal_variation());
        assert!(!mk(AtiList::never_open()).has_temporal_variation());
        assert!(mk(AtiList::hm(&[((8, 0), (16, 0))])).has_temporal_variation());
    }
}
