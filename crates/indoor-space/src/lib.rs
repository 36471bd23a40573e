//! Indoor space model for temporal-variation aware routing.
//!
//! This crate models an indoor venue the way the ITSPQ paper (Liu et al.,
//! ICDE 2020) does:
//!
//! * **Partitions** ([`PartitionRecord`]) — rooms, hallway cells, staircases;
//!   each is public (`PBP`), private (`PRP`) or outdoor, and may carry a floor
//!   and a polygon footprint;
//! * **Doors** ([`DoorRecord`]) — public (`PBD`) or private (`PRD`), each with
//!   a position and the door's [`indoor_time::AtiList`] (its open intervals);
//! * **Topology** — door directionality and the accessibility mappings of
//!   Lu et al. (ICDE 2012) used throughout the paper:
//!   [`IndoorSpace::p2d`] (`P2D`), [`IndoorSpace::d2p`] (`D2P`),
//!   [`IndoorSpace::p2d_enterable`] (`P2D⊲`), [`IndoorSpace::p2d_leaveable`]
//!   (`P2D⊳`), [`IndoorSpace::d2p_enterable`] (`D2P⊲`) and
//!   [`IndoorSpace::d2p_leaveable`] (`D2P⊳`);
//! * **Distance matrices** ([`DistanceMatrix`]) — intra-partition door-to-door
//!   distances, derived from geometry or supplied explicitly;
//! * **[`VenueBuilder`]** — the validated construction path for venues;
//! * **[`audit`]** — structural health checks (unreachable partitions,
//!   never-open doors, triangle violations) for venue operators;
//! * **[`plan_text`]** — a human-writable text format for floor plans with a
//!   line-numbered parser and serialiser;
//! * **[`paper_example::build`]** — the running example of the paper
//!   (Figure 1 floor plan + Table I ATIs + query points p1–p4);
//! * **[`fan_out`]** — the one work loop behind every parallel step of the
//!   workspace: venue builds, landmark tables and server batches.
//!
//! The [`IndoorSpace`] produced here is the input to `itspq-core`'s IT-Graph.

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

pub mod audit;
mod builder;
mod distance_matrix;
mod door;
mod error;
mod fan_out;
mod ids;
pub mod paper_example;
mod partition;
pub mod plan_text;
mod point;
mod stats;
mod venue;

pub use builder::{Connection, DistanceModel, VenueBuilder};
pub use distance_matrix::DistanceMatrix;
pub use door::{DoorKind, DoorRecord};
pub use error::SpaceError;
pub use fan_out::fan_out;
pub use ids::{DoorId, FloorId, PartitionId};
pub use partition::{PartitionKind, PartitionRecord};
pub use point::IndoorPoint;
pub use stats::SpaceStats;
pub use venue::IndoorSpace;
