//! # itspq-core — IT-Graph and ITSPQ query processing
//!
//! Reproduction of the core contribution of *Shortest Path Queries for Indoor
//! Venues with Temporal Variations* (Liu et al., ICDE 2020):
//!
//! * [`ItGraph`] — the **indoor temporal-variation graph** `G_IT(V, E, L_V,
//!   L_E)`: partitions as vertices (labelled with partition type and distance
//!   matrix), door crossings as directed edges (labelled with door type and
//!   ATIs);
//! * [`SynEngine`] — method **ITG/S**: Algorithm 1 with the synchronous check
//!   of Algorithm 2 (`tarr ∈ ATIs`);
//! * [`AsynEngine`] — method **ITG/A**: Algorithm 1 over the reduced
//!   time-dependent graph of Algorithm 3, refreshed asynchronously at
//!   checkpoints per Algorithm 4;
//! * [`baselines`] — a temporal-oblivious static Dijkstra, a
//!   frozen-at-query-time snapshot Dijkstra and an exhaustive oracle for small
//!   instances;
//! * [`validate_path`] — an independent checker of the two ITSPQ rules
//!   (doors open at arrival; no private partitions except the endpoints');
//! * [`waiting`] — the paper's footnoted non-goal as an extension: earliest
//!   arrival when waiting at closed doors is allowed;
//! * [`ksp`] — `k` shortest valid paths (Yen's algorithm), for the
//!   alternative-route lists indoor LBS front-ends expect;
//! * [`landmarks`] — per-venue landmark distances whose lower bounds order
//!   long one-target sweeps toward their target, with unchanged answers;
//! * [`profile`] — departure-time profiles ("when should I leave?"),
//!   checkpoint-aligned and refined to a chosen resolution;
//! * [`one_to_many`] — single-source valid-distance maps over all doors and
//!   partitions (evacuation/coverage analysis);
//! * [`ord`] — NaN-safe total-order comparisons every distance in this crate
//!   is ranked by (no `partial_cmp(..).unwrap()` anywhere in the search);
//! * [`server`] — [`VenueServer`], the concurrent batched query front-end:
//!   one `Arc`-shared venue, a worker pool, and the ITG/A reduced-graph
//!   cache amortised across threads.
//!
//! ## Ownership model
//!
//! The IT-Graph is immutable after construction and shared by reference
//! count: build it once with [`ItGraph::shared`] and hand the `Arc<ItGraph>`
//! to every engine and server (engine constructors also accept a plain
//! [`ItGraph`] and wrap it on the fly). Algorithms borrow `&ItGraph`. See
//! `ARCHITECTURE.md` at the repository root for the full data-flow and
//! contention story.
//!
//! ## Faithfulness switches
//!
//! The four-page paper leaves a few semantics implicit; they are exposed as
//! configuration instead of being silently resolved (see `ARCHITECTURE.md`
//! §"Deviations from the paper"):
//! [`ExpandPolicy`] selects the paper's visited-partition pruning or a full
//! Dijkstra relaxation, and [`AsynMode`] selects the paper's drop-on-refresh
//! behaviour or an exact re-check.
//!
//! ## Example
//!
//! ```
//! use indoor_space::paper_example;
//! use indoor_time::TimeOfDay;
//! use itspq_core::{ItGraph, ItspqConfig, Query, SynEngine};
//!
//! let ex = paper_example::build();
//! let graph = ItGraph::new(ex.space.clone());
//! let engine = SynEngine::new(graph, ItspqConfig::default());
//!
//! // Example 1 of the paper: at 9:00 the (p3, d15, d16, p4) shortcut is
//! // rejected (v15 is private) and the 12 m path through d18 wins.
//! let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0));
//! let result = engine.query(&q);
//! let path = result.path.expect("a path exists at 9:00");
//! assert!((path.length - 12.0).abs() < 1e-9);
//!
//! // At 23:30 d18 is closed and no valid route remains.
//! let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30));
//! assert!(engine.query(&q).path.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

pub mod baselines;
mod config;
pub mod engine_asyn;
pub mod engine_syn;
mod framework;
pub mod graph;
mod heap;
pub mod ksp;
pub mod landmarks;
pub mod one_to_many;
pub mod ord;
pub mod profile;
mod query;
mod reduced;
pub mod server;
mod stats;
mod validate;
pub mod waiting;

pub use config::{AsynMode, ExpandPolicy, ItspqConfig};
pub use engine_asyn::AsynEngine;
pub use engine_syn::SynEngine;
pub use graph::ItGraph;
pub use ksp::k_shortest_paths;
pub use ord::{cmp_dist, cmp_opt_len, min_dist, OrdF64};
pub(crate) use query::known_partition;
pub use query::{DoorHop, Path, Query, QueryError, QueryOutcome, QueryResult};
pub use reduced::ReducedGraph;
pub use server::{BatchPlan, BatchStrategy, ServeMethod, ServerConfig, VenueServer};
pub use stats::{BatchStats, SearchStats};
pub use validate::{validate_path, PathViolation};
