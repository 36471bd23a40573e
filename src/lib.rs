//! # itspq-repro
//!
//! Umbrella crate of the ITSPQ reproduction — *Shortest Path Queries for
//! Indoor Venues with Temporal Variations* (Liu et al., ICDE 2020).
//!
//! It re-exports the workspace crates so that examples and downstream users
//! can depend on a single crate:
//!
//! * [`time`] — times of day, ATIs, checkpoints, walking speed;
//! * [`geom`] — 2-D geometry and rectilinear decomposition;
//! * [`space`] — the indoor-space model (partitions, doors, topology,
//!   distance matrices) and the paper's running example;
//! * [`core`] — the IT-Graph and the ITSPQ query engines (ITG/S, ITG/A),
//!   baselines, extensions and the concurrent
//!   [`VenueServer`](itspq_core::VenueServer) front-end;
//! * [`synthetic`] — the paper's synthetic workload (mall floorplans, ATI
//!   generation, query instances).
//!
//! See `examples/quickstart.rs` for a guided tour.
//!
//! # Example
//!
//! The paper's Example 1 through the umbrella prelude: at 9:00 the 12 m
//! route through d18 wins (the 10 m shortcut crosses the private v15), and
//! at 23:30 no valid route remains.
//!
//! ```
//! use itspq_repro::prelude::*;
//! use itspq_repro::space::paper_example;
//!
//! let ex = paper_example::build();
//! let engine = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
//!
//! let morning = engine.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)));
//! assert!((morning.path.expect("feasible at 9:00").length - 12.0).abs() < 1e-9);
//!
//! let night = engine.query(&Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)));
//! assert!(night.path.is_none());
//! ```

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

pub use indoor_geom as geom;
pub use indoor_space as space;
pub use indoor_synthetic as synthetic;
pub use indoor_time as time;
pub use itspq_core as core;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use indoor_space::{
        DoorId, DoorKind, IndoorPoint, IndoorSpace, PartitionId, PartitionKind, VenueBuilder,
    };
    pub use indoor_time::{
        AtiList, CheckpointSet, DurationSecs, Interval, TimeOfDay, Timestamp, Velocity,
        WALKING_SPEED,
    };
    pub use itspq_core::{
        AsynEngine, AsynMode, BatchStats, DoorHop, ExpandPolicy, ItGraph, ItspqConfig, Path, Query,
        QueryError, QueryOutcome, SearchStats, ServeMethod, ServerConfig, SynEngine, VenueServer,
    };
}
