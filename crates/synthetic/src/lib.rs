//! Synthetic workload generator reproducing the evaluation setup of the ITSPQ
//! paper (§III *Experimental Studies*).
//!
//! Three pieces, mirroring the paper's "Settings" subsection:
//!
//! * [`MallConfig`] / [`build_mall`] — **Indoor Space**: a multi-floor
//!   shopping mall whose floors measure 1368 m × 1368 m and decompose into
//!   exactly **141 partitions and 224 doors per floor** (hallway grid cells,
//!   shops, private service corridors, stair lobbies), with four 20 m
//!   staircases between adjacent floors. The default five floors give 705
//!   partitions and 1120 doors, as reported in the paper.
//! * [`HoursConfig`] / [`ShopHours`] — **Temporal Variations**: a pool of
//!   realistic mall opening/closing times standing in for the paper's crawl
//!   of five Hong Kong malls; checkpoint sets `T` of size 4/8/12/16 are drawn
//!   from the pool and every temporally-varying door receives up to three
//!   ATIs assembled from `T`.
//! * [`QueryGenConfig`] / [`generate_queries`] — **Query Instances**: random
//!   `(ps, pt)` pairs whose temporal-oblivious indoor distance approximates
//!   the control parameter `δs2t`.
//!
//! Everything is deterministic per seed.

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

mod floorplan;
mod hours;
mod query_gen;

pub use floorplan::{build_mall, mall_builder, CorridorShape, MallConfig};
pub use hours::{HoursConfig, Sampling, ShopHours};
pub use query_gen::{
    generate_queries, GeneratedQuery, QueryGenConfig, SourceDistribution, TimeDistribution,
};
