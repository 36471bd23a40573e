//! The indoor temporal-variation graph (IT-Graph) and its shared-ownership
//! model.
//!
//! [`ItGraph`] is the paper's `G_IT(V, E, L_V, L_E)`: partitions as vertices
//! (labelled with partition type and distance matrix), door crossings as
//! directed edges (labelled with door type and ATIs). It is **immutable after
//! construction** — every engine, baseline and extension only ever reads it —
//! which is what makes one venue safely servable to any number of concurrent
//! queries.
//!
//! The ownership rules (see `ARCHITECTURE.md`):
//!
//! * build the venue once and wrap it with [`ItGraph::shared`] (or let the
//!   std `From<ItGraph> for Arc<ItGraph>` conversion do it at an engine
//!   constructor);
//! * owners — [`crate::SynEngine`], [`crate::AsynEngine`],
//!   [`crate::server::VenueServer`] — hold `Arc<ItGraph>`, so handing a graph
//!   to an engine bumps a reference count instead of copying distance
//!   matrices;
//! * algorithms borrow `&ItGraph`; an `Arc<ItGraph>` coerces to `&ItGraph`
//!   at every such call site.
//!
//! # Example
//!
//! The paper's Example 1 venue as an IT-Graph, shared by the two engines
//! without cloning the venue:
//!
//! ```
//! use indoor_space::paper_example;
//! use indoor_time::TimeOfDay;
//! use itspq_core::{AsynEngine, ItGraph, ItspqConfig, Query, SynEngine};
//!
//! let ex = paper_example::build();
//! let graph = ItGraph::shared(ex.space.clone()); // Arc<ItGraph>
//! assert_eq!(graph.vertex_count(), 18);
//! assert_eq!(graph.door_count(), 21);
//!
//! // Both engines reference the same graph allocation.
//! let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
//! let asyn = AsynEngine::new(graph.clone(), ItspqConfig::default());
//! assert!(std::sync::Arc::ptr_eq(&syn.graph_arc(), &asyn.graph_arc()));
//!
//! // And both answer Example 1: the 12 m route through d18 at 9:00.
//! let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0));
//! let (s, a) = (syn.query(&q), asyn.query(&q));
//! assert!((s.path.unwrap().length - 12.0).abs() < 1e-9);
//! assert!((a.path.unwrap().length - 12.0).abs() < 1e-9);
//! ```

use std::sync::{Arc, OnceLock};

use indoor_space::{DoorId, DoorKind, IndoorSpace, PartitionId, PartitionKind};
use indoor_time::AtiList;

use crate::landmarks::Landmarks;

/// The paper's IT-Graph `G_IT(V, E, L_V, L_E)`.
///
/// Vertices are the venue's partitions, labelled `(IDv, p-type, DM)`; directed
/// edges are door crossings `(v_i, v_j, d_k)`, labelled `(IDd, d-type, ATIs)`.
/// The structure wraps a shared [`IndoorSpace`] (which already materialises
/// the labels and the `P2D`/`D2P` accessibility mappings) and exposes them in
/// the paper's vocabulary, plus the derived edge list.
///
/// Cloning an `ItGraph` is cheap (it shares the venue via [`Arc`]), which is
/// how the ITG/S and ITG/A engines hold the same graph.
#[derive(Debug, Clone)]
pub struct ItGraph {
    space: Arc<IndoorSpace>,
    /// The landmark table that orders long one-target sweeps, built once
    /// on first use ([`ItGraph::landmarks`]).
    landmarks: OnceLock<Landmarks>,
}

/// One directed edge `(from, to, door)` of the IT-Graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItEdge {
    /// Vertex the edge leaves.
    pub from: PartitionId,
    /// Vertex the edge enters.
    pub to: PartitionId,
    /// The door crossed.
    pub door: DoorId,
}

impl ItGraph {
    /// Builds the IT-Graph over a venue.
    #[must_use]
    pub fn new(space: IndoorSpace) -> Self {
        Self::from_arc(Arc::new(space))
    }

    /// Builds the IT-Graph over a venue and wraps it for sharing: the handle
    /// every engine and [`crate::server::VenueServer`] of the venue should be
    /// constructed from.
    #[must_use]
    pub fn shared(space: IndoorSpace) -> Arc<Self> {
        Arc::new(Self::new(space))
    }

    /// Builds the IT-Graph over an already shared venue.
    #[must_use]
    pub fn from_arc(space: Arc<IndoorSpace>) -> Self {
        ItGraph {
            space,
            landmarks: OnceLock::new(),
        }
    }

    /// The underlying venue.
    #[must_use]
    pub fn space(&self) -> &IndoorSpace {
        &self.space
    }

    /// The landmark table of the venue (`crate::landmarks`), built in
    /// parallel on the first call; a call racing it waits for that build.
    /// `VenueServer::warm` makes the first call under `FullRelax`, else the
    /// first sweep that leaves Dijkstra's order does.
    #[must_use]
    pub fn landmarks(&self) -> &Landmarks {
        self.landmarks.get_or_init(|| Landmarks::build(self))
    }

    /// A shareable handle to the venue.
    #[must_use]
    pub fn space_arc(&self) -> Arc<IndoorSpace> {
        Arc::clone(&self.space)
    }

    /// `|V|`: number of vertices (partitions).
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.space.num_partitions()
    }

    /// Number of doors (distinct edge labels); `πD(E)` in the paper.
    #[must_use]
    pub fn door_count(&self) -> usize {
        self.space.num_doors()
    }

    /// `|E|`: number of directed door-crossing edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges().count()
    }

    /// All directed edges `(v_i, v_j, d_k)`: one per (leaveable partition,
    /// enterable partition) pair of each door.
    pub fn edges(&self) -> impl Iterator<Item = ItEdge> + '_ {
        (0..self.space.num_doors()).flat_map(move |i| {
            let door = DoorId::from_index(i);
            self.space
                .d2p_leaveable(door)
                .iter()
                .flat_map(move |&from| {
                    self.space
                        .d2p_enterable(door)
                        .iter()
                        .filter(move |&&to| to != from)
                        .map(move |&to| ItEdge { from, to, door })
                })
        })
    }

    /// The vertex label `(IDv, p-type, DM)` of a partition, paper-style.
    #[must_use]
    pub fn vertex_label(&self, v: PartitionId) -> (PartitionId, PartitionKind, usize) {
        let rec = self.space.partition(v);
        (rec.id, rec.kind, self.space.distance_matrix(v).len())
    }

    /// The edge label `(IDd, d-type, ATIs)` of a door, paper-style.
    #[must_use]
    pub fn edge_label(&self, d: DoorId) -> (DoorId, DoorKind, &AtiList) {
        let rec = self.space.door(d);
        (rec.id, rec.kind, &rec.atis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;

    #[test]
    fn counts_on_paper_example() {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        assert_eq!(g.vertex_count(), 18);
        assert_eq!(g.door_count(), 21);
        // 20 two-way doors contribute 2 directed edges each; the one-way d3
        // contributes 1.
        assert_eq!(g.edge_count(), 41);
    }

    #[test]
    fn edges_respect_directionality() {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        let d3_edges: Vec<ItEdge> = g.edges().filter(|e| e.door == ex.d(3)).collect();
        assert_eq!(
            d3_edges,
            vec![ItEdge {
                from: ex.v(3),
                to: ex.v(16),
                door: ex.d(3)
            }]
        );
        let d1_edges: Vec<ItEdge> = g.edges().filter(|e| e.door == ex.d(1)).collect();
        assert_eq!(d1_edges.len(), 2);
    }

    #[test]
    fn labels_paper_style() {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        let (id, ptype, dm_len) = g.vertex_label(ex.v(16));
        assert_eq!(id, ex.v(16));
        assert_eq!(ptype, PartitionKind::Public);
        assert_eq!(dm_len, 3);
        let (did, dtype, atis) = g.edge_label(ex.d(7));
        assert_eq!(did, ex.d(7));
        assert_eq!(dtype, DoorKind::Private);
        assert!(atis.has_variation());
    }

    #[test]
    fn clones_share_the_space() {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space);
        let h = g.clone();
        assert!(Arc::ptr_eq(&g.space_arc(), &h.space_arc()));
    }
}
