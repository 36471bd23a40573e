//! 2-D geometry substrate for indoor venues.
//!
//! This crate provides the geometric primitives the indoor-space model is
//! built on:
//!
//! * [`Point`] and [`Vector`] — planar points/vectors with the usual algebra;
//! * [`Segment`] — line segments with distance and midpoint helpers;
//! * [`Rect`] — axis-aligned rectangles (the shape of regular partitions);
//! * [`Polygon`] — simple polygons with area/centroid/containment tests;
//! * [`decompose_rectilinear`] — decomposition of rectilinear polygons into
//!   axis-aligned rectangles. The ICDE 2020 ITSPQ paper relies on the
//!   decomposition of irregular hallways into "smaller, regular partitions"
//!   (Xie et al., ICDE 2013); this routine is the substitute used when a venue
//!   is built from irregular footprints;
//! * [`geodesic_distance`] — exact interior shortest-path distance in a
//!   simple polygon (visibility graph + Dijkstra), used for the distance
//!   matrices of partitions kept non-convex;
//! * [`GeodesicSolver`] — the amortised form of [`geodesic_distance`]: builds
//!   a polygon's visibility graph once and answers one-to-many queries, which
//!   is what venue construction uses to fill whole distance matrices.
//!
//! All coordinates are metres in a per-floor local frame.

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

mod decompose;
mod error;
mod geodesic;
mod point;
mod polygon;
mod rect;
mod segment;

pub use decompose::decompose_rectilinear;
pub use error::GeomError;
pub use geodesic::{geodesic_distance, segment_inside, GeodesicSolver};
pub use point::{Point, Vector};
pub use polygon::Polygon;
pub use rect::Rect;
pub use segment::Segment;

/// Floating-point tolerance used by geometric predicates (metres).
pub const EPS: f64 = 1e-9;
