//! Validated construction of indoor spaces.
//!
//! [`VenueBuilder::build`] is the production pipeline: topology is derived
//! with indexed membership checks, each partition's distance matrix is filled
//! from a per-polygon [`GeodesicSolver`] answering one-to-many queries, and
//! the per-partition matrix builds — which are independent of each other —
//! fan out over [`std::thread::scope`] workers. [`VenueBuilder::build_sequential`]
//! keeps the naive single-threaded pipeline (one pairwise
//! [`geodesic_distance`] call per door pair, each rebuilding the polygon's
//! visibility graph) as the reference: both paths produce identical
//! [`IndoorSpace`] values, which the test suite asserts, and the
//! `construction` benchmark measures the gap.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use indoor_geom::{geodesic_distance, GeodesicSolver, Point, Polygon};
use indoor_time::{AtiList, CheckpointSet};

use crate::{
    venue::Topology, DistanceMatrix, DoorId, DoorKind, DoorRecord, FloorId, IndoorSpace,
    PartitionId, PartitionKind, PartitionRecord, SpaceError,
};

/// How intra-partition door-to-door distances are derived when no explicit
/// override is given.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceModel {
    /// Straight-line distance between door positions. Exact for convex
    /// partitions (the output of the paper's hallway decomposition).
    #[default]
    Euclidean,
    /// Interior shortest-path distance within the partition's polygon
    /// ([`indoor_geom::geodesic_distance`]); falls back to Euclidean for
    /// partitions without a polygon or when a door lies outside it. Use for
    /// venues whose partitions are kept non-convex.
    Geodesic,
}

/// How a door connects partitions, including the paper's door directionality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connection {
    /// A regular door: both partitions can be left and entered through it.
    TwoWay(PartitionId, PartitionId),
    /// A directional door: usable only from `from` into `to` (e.g. the paper's
    /// d3, an exit-only door from v3 into v16).
    OneWay {
        /// Partition one can leave through the door.
        from: PartitionId,
        /// Partition one can enter through the door.
        to: PartitionId,
    },
    /// A door on the venue boundary with a single modelled side (e.g. a roof
    /// access). It can be used to leave and re-enter that partition.
    Boundary(PartitionId),
}

impl Connection {
    /// The partitions the door bounds: one, or two for a door between two.
    pub(crate) fn partitions(self) -> (PartitionId, Option<PartitionId>) {
        match self {
            Connection::TwoWay(a, b) => (a, Some(b)),
            Connection::OneWay { from, to } => (from, Some(to)),
            Connection::Boundary(p) => (p, None),
        }
    }
}

/// Builder for [`IndoorSpace`]: add partitions and doors, connect them,
/// optionally override intra-partition distances, then [`VenueBuilder::build`].
///
/// # Example
///
/// ```
/// use indoor_geom::Point;
/// use indoor_space::{Connection, DoorKind, PartitionKind, VenueBuilder};
/// use indoor_time::AtiList;
///
/// let mut b = VenueBuilder::new();
/// let room = b.add_partition("room", PartitionKind::Public);
/// let hall = b.add_partition("hall", PartitionKind::Public);
/// let door = b.add_door("door", DoorKind::Public, AtiList::hm(&[((8, 0), (18, 0))]),
///                       Point::new(5.0, 0.0));
/// b.connect(door, Connection::TwoWay(room, hall)).unwrap();
/// let space = b.build().unwrap();
/// assert_eq!(space.num_partitions(), 2);
/// assert_eq!(space.d2p(door), vec![room, hall]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct VenueBuilder {
    partitions: Vec<PartitionRecord>,
    doors: Vec<DoorRecord>,
    connections: Vec<Option<Connection>>,
    explicit: HashMap<(PartitionId, DoorId, DoorId), f64>,
    distance_model: DistanceModel,
}

impl VenueBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects how distance matrices are derived (default
    /// [`DistanceModel::Euclidean`]).
    pub fn distance_model(&mut self, model: DistanceModel) -> &mut Self {
        self.distance_model = model;
        self
    }

    /// Adds a partition on floor 0 without footprint.
    pub fn add_partition(&mut self, name: &str, kind: PartitionKind) -> PartitionId {
        self.add_partition_on(name, kind, FloorId(0), None)
    }

    /// Adds a partition with floor and optional polygon footprint.
    pub fn add_partition_on(
        &mut self,
        name: &str,
        kind: PartitionKind,
        floor: FloorId,
        polygon: Option<Polygon>,
    ) -> PartitionId {
        let id = PartitionId::from_index(self.partitions.len());
        self.partitions.push(PartitionRecord {
            id,
            name: name.to_owned(),
            kind,
            floor,
            polygon,
        });
        id
    }

    /// Adds a door on floor 0.
    pub fn add_door(
        &mut self,
        name: &str,
        kind: DoorKind,
        atis: AtiList,
        position: Point,
    ) -> DoorId {
        self.add_door_on(name, kind, atis, position, FloorId(0))
    }

    /// Adds a door with an explicit floor.
    pub fn add_door_on(
        &mut self,
        name: &str,
        kind: DoorKind,
        atis: AtiList,
        position: Point,
        floor: FloorId,
    ) -> DoorId {
        let id = DoorId::from_index(self.doors.len());
        self.doors.push(DoorRecord {
            id,
            name: name.to_owned(),
            kind,
            atis,
            position,
            floor,
        });
        self.connections.push(None);
        id
    }

    /// Connects a door to its partition(s).
    ///
    /// # Errors
    /// Rejects unknown ids, self-loops and doors connected twice.
    pub fn connect(&mut self, door: DoorId, conn: Connection) -> Result<(), SpaceError> {
        let slot = self
            .connections
            .get_mut(door.index())
            .ok_or(SpaceError::UnknownDoor(door))?;
        if slot.is_some() {
            return Err(SpaceError::DuplicateConnection(door));
        }
        let (a, b) = conn.partitions();
        let n = self.partitions.len();
        if a.index() >= n {
            return Err(SpaceError::UnknownPartition(a));
        }
        if let Some(b) = b {
            if b.index() >= n {
                return Err(SpaceError::UnknownPartition(b));
            }
            if a == b {
                return Err(SpaceError::SelfLoop(door, a));
            }
        }
        *slot = Some(conn);
        Ok(())
    }

    /// Overrides the intra-partition distance between two doors of
    /// `partition` (used where geometry would misestimate, e.g. the 20 m
    /// stairways of the paper's multi-floor venue). Applied symmetrically.
    ///
    /// # Errors
    /// Rejects unknown ids, self-pairs (`a == b` — the matrix diagonal is
    /// fixed at zero and an override for it would be silently dropped) and
    /// invalid distances; door membership is verified at
    /// [`VenueBuilder::build`] time.
    pub fn set_distance(
        &mut self,
        partition: PartitionId,
        a: DoorId,
        b: DoorId,
        dist: f64,
    ) -> Result<(), SpaceError> {
        if partition.index() >= self.partitions.len() {
            return Err(SpaceError::UnknownPartition(partition));
        }
        if a.index() >= self.doors.len() {
            return Err(SpaceError::UnknownDoor(a));
        }
        if b.index() >= self.doors.len() {
            return Err(SpaceError::UnknownDoor(b));
        }
        if a == b {
            return Err(SpaceError::SelfDistance { partition, door: a });
        }
        if !dist.is_finite() || dist < 0.0 {
            return Err(SpaceError::InvalidDistance { a, b, value: dist });
        }
        let key = if a <= b {
            (partition, a, b)
        } else {
            (partition, b, a)
        };
        self.explicit.insert(key, dist);
        Ok(())
    }

    /// Validates the venue and derives topology mappings, distance matrices
    /// and the checkpoint set.
    ///
    /// This is the production pipeline: geodesic distance matrices reuse one
    /// [`GeodesicSolver`] per partition polygon (one-to-many queries instead
    /// of a visibility-graph rebuild per door pair), and the independent
    /// per-partition matrix builds fan out over [`std::thread::scope`]
    /// workers. The output is identical — value for value — to
    /// [`VenueBuilder::build_sequential`].
    ///
    /// # Errors
    /// Returns the first validation failure (dangling doors, foreign doors in
    /// explicit distances, empty venue …).
    pub fn build(self) -> Result<IndoorSpace, SpaceError> {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.assemble(Some(workers))
    }

    /// Like [`VenueBuilder::build`] with an explicit worker-thread count for
    /// the distance-matrix fan-out (mainly for tests and benchmarks; `build`
    /// picks the host parallelism). `workers == 1` runs the fast pipeline
    /// inline without spawning. The output never depends on the worker count.
    ///
    /// # Errors
    /// Returns the first validation failure, exactly as [`VenueBuilder::build`].
    pub fn build_with_workers(self, workers: usize) -> Result<IndoorSpace, SpaceError> {
        self.assemble(Some(workers.max(1)))
    }

    /// The reference construction pipeline: identical output to
    /// [`VenueBuilder::build`], computed one partition at a time with one
    /// pairwise [`geodesic_distance`] call per door pair.
    ///
    /// Kept as the parity oracle (the proptests assert both pipelines agree
    /// exactly) and as the baseline the `construction` benchmark measures
    /// [`VenueBuilder::build`] against. Prefer [`VenueBuilder::build`].
    ///
    /// # Errors
    /// Returns the first validation failure, exactly as [`VenueBuilder::build`].
    pub fn build_sequential(self) -> Result<IndoorSpace, SpaceError> {
        self.assemble(None)
    }

    /// Shared assembly: `workers` is `None` for the reference pipeline and
    /// `Some(n)` for the fast pipeline with an `n`-thread matrix fan-out.
    fn assemble(self, workers: Option<usize>) -> Result<IndoorSpace, SpaceError> {
        if self.partitions.is_empty() {
            return Err(SpaceError::EmptyVenue);
        }
        let n_doors = self.doors.len();
        let n_parts = self.partitions.len();

        let mut door_leaves: Vec<Vec<PartitionId>> = vec![Vec::new(); n_doors];
        let mut door_enters: Vec<Vec<PartitionId>> = vec![Vec::new(); n_doors];
        for (i, conn) in self.connections.iter().enumerate() {
            let door = DoorId::from_index(i);
            let conn = conn.ok_or(SpaceError::DanglingDoor(door))?;
            match conn {
                Connection::TwoWay(a, b) => {
                    door_leaves[i] = vec![a, b];
                    door_enters[i] = vec![a, b];
                }
                Connection::OneWay { from, to } => {
                    door_leaves[i] = vec![from];
                    door_enters[i] = vec![to];
                }
                Connection::Boundary(p) => {
                    door_leaves[i] = vec![p];
                    door_enters[i] = vec![p];
                }
            }
        }

        let mut part_doors: Vec<Vec<DoorId>> = vec![Vec::new(); n_parts];
        let mut part_leaveable: Vec<Vec<DoorId>> = vec![Vec::new(); n_parts];
        let mut part_enterable: Vec<Vec<DoorId>> = vec![Vec::new(); n_parts];
        for i in 0..n_doors {
            let door = DoorId::from_index(i);
            // A door touches at most two partitions, so the duplicate guard
            // is a two-element scan, not a membership problem.
            let mut seen = Vec::new();
            for &p in door_leaves[i].iter().chain(door_enters[i].iter()) {
                if !seen.contains(&p) {
                    seen.push(p);
                    part_doors[p.index()].push(door);
                }
            }
            for &p in &door_leaves[i] {
                part_leaveable[p.index()].push(door);
            }
            for &p in &door_enters[i] {
                part_enterable[p.index()].push(door);
            }
        }
        for v in part_doors
            .iter_mut()
            .chain(part_leaveable.iter_mut())
            .chain(part_enterable.iter_mut())
        {
            v.sort_unstable();
            v.dedup();
        }

        // Validate explicit distances against door membership. `part_doors`
        // is sorted, so membership is a binary search rather than a linear
        // scan per override (door-rich partitions made that quadratic).
        // Overrides are checked in key order, so a venue with several bad
        // ones reports the same error on every run.
        let mut overrides: Vec<_> = self.explicit.keys().copied().collect();
        overrides.sort_unstable();
        for (partition, a, b) in overrides {
            let doors = &part_doors[partition.index()];
            if doors.binary_search(&a).is_err() {
                return Err(SpaceError::ForeignDoor { partition, door: a });
            }
            if doors.binary_search(&b).is_err() {
                return Err(SpaceError::ForeignDoor { partition, door: b });
            }
        }

        let dms = match workers {
            Some(w) => self.matrices_parallel(&part_doors, w)?,
            None => self.matrices_sequential(&part_doors)?,
        };

        let checkpoints = CheckpointSet::from_atis(self.doors.iter().map(|d| &d.atis));

        Ok(IndoorSpace::from_parts(
            self.partitions,
            self.doors,
            Topology {
                door_leaves,
                door_enters,
                part_doors,
                part_leaveable,
                part_enterable,
            },
            dms,
            checkpoints,
        ))
    }

    /// Reference distance-matrix pass: per pair, explicit override, else the
    /// distance model with a from-scratch [`geodesic_distance`] call.
    fn matrices_sequential(
        &self,
        part_doors: &[Vec<DoorId>],
    ) -> Result<Vec<DistanceMatrix>, SpaceError> {
        let mut dms = Vec::with_capacity(part_doors.len());
        for (pi, doors) in part_doors.iter().enumerate() {
            let partition = PartitionId::from_index(pi);
            let polygon = self.partitions[pi].polygon.as_ref();
            let dm = DistanceMatrix::build(doors.clone(), |a, b| {
                let key = if a <= b {
                    (partition, a, b)
                } else {
                    (partition, b, a)
                };
                if let Some(&d) = self.explicit.get(&key) {
                    return d;
                }
                let pa = self.doors[a.index()].position;
                let pb = self.doors[b.index()].position;
                if self.distance_model == DistanceModel::Geodesic {
                    if let Some(poly) = polygon {
                        if let Some(d) = geodesic_distance(poly, pa, pb) {
                            return d;
                        }
                    }
                }
                pa.distance(pb)
            })?;
            dms.push(dm);
        }
        Ok(dms)
    }

    /// One partition's distance matrix via the amortised path: a single
    /// [`GeodesicSolver`] answers one-to-many queries per source door, and
    /// explicit overrides are applied pair-wise on top.
    fn matrix_for(&self, pi: usize, doors: &[DoorId]) -> Result<DistanceMatrix, SpaceError> {
        let partition = PartitionId::from_index(pi);
        let polygon = self.partitions[pi].polygon.as_ref();
        let n = doors.len();

        // Geodesic rows, computed one-to-many: `geo[i]` holds the distances
        // from door i to doors i+1..n (the upper triangle the matrix build
        // asks for). `None` entries fall back to the Euclidean distance,
        // mirroring `geodesic_distance`'s out-of-polygon contract.
        let geo: Option<Vec<Vec<Option<f64>>>> = match polygon {
            Some(poly) if self.distance_model == DistanceModel::Geodesic && n > 1 => {
                let solver = GeodesicSolver::new(poly);
                let positions: Vec<Point> = doors
                    .iter()
                    .map(|d| self.doors[d.index()].position)
                    .collect();
                Some(
                    (0..n)
                        .map(|i| solver.distances_from(positions[i], &positions[i + 1..]))
                        .collect(),
                )
            }
            _ => None,
        };

        DistanceMatrix::build_indexed(doors.to_vec(), |sorted, i, j| {
            let (a, b) = (sorted[i], sorted[j]);
            let key = if a <= b {
                (partition, a, b)
            } else {
                (partition, b, a)
            };
            if let Some(&d) = self.explicit.get(&key) {
                return d;
            }
            if let Some(geo) = &geo {
                // `doors` arrives sorted and deduplicated (it is a
                // `part_doors` entry), so positions line up with `sorted`.
                if let Some(d) = geo[i][j - i - 1] {
                    return d;
                }
            }
            self.doors[a.index()]
                .position
                .distance(self.doors[b.index()].position)
        })
    }

    /// Fans the independent per-partition matrix builds out over scoped
    /// worker threads (the same atomic-counter work queue as
    /// `VenueServer::query_batch`). Results are re-assembled in partition
    /// order, and the reported error — if any — is the one the sequential
    /// pass would have hit first, so the two pipelines stay interchangeable.
    fn matrices_parallel(
        &self,
        part_doors: &[Vec<DoorId>],
        workers: usize,
    ) -> Result<Vec<DistanceMatrix>, SpaceError> {
        let n = part_doors.len();
        let workers = workers.min(n);
        if workers <= 1 {
            return (0..n)
                .map(|pi| self.matrix_for(pi, &part_doors[pi]))
                .collect();
        }

        let next = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, Result<DistanceMatrix, SpaceError>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let pi = next.fetch_add(1, Ordering::Relaxed);
                                let Some(doors) = part_doors.get(pi) else {
                                    break;
                                };
                                local.push((pi, self.matrix_for(pi, doors)));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| match h.join() {
                        Ok(local) => local,
                        // Re-raise the worker's panic with its own payload.
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            });
        indexed.sort_unstable_by_key(|&(pi, _)| pi);
        indexed.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_room_builder() -> (VenueBuilder, PartitionId, PartitionId, DoorId) {
        let mut b = VenueBuilder::new();
        let p0 = b.add_partition("room", PartitionKind::Public);
        let p1 = b.add_partition("hall", PartitionKind::Public);
        let d = b.add_door(
            "door",
            DoorKind::Public,
            AtiList::always_open(),
            Point::ORIGIN,
        );
        (b, p0, p1, d)
    }

    #[test]
    fn empty_venue_rejected() {
        assert_eq!(
            VenueBuilder::new().build().unwrap_err(),
            SpaceError::EmptyVenue
        );
    }

    #[test]
    fn dangling_door_rejected() {
        let (b, _, _, d) = two_room_builder();
        assert_eq!(b.build().unwrap_err(), SpaceError::DanglingDoor(d));
    }

    #[test]
    fn duplicate_connection_rejected() {
        let (mut b, p0, p1, d) = two_room_builder();
        b.connect(d, Connection::TwoWay(p0, p1)).unwrap();
        assert_eq!(
            b.connect(d, Connection::TwoWay(p1, p0)).unwrap_err(),
            SpaceError::DuplicateConnection(d)
        );
    }

    #[test]
    fn self_loop_rejected() {
        let (mut b, p0, _, d) = two_room_builder();
        assert_eq!(
            b.connect(d, Connection::TwoWay(p0, p0)).unwrap_err(),
            SpaceError::SelfLoop(d, p0)
        );
    }

    #[test]
    fn unknown_ids_rejected() {
        let (mut b, p0, _, d) = two_room_builder();
        assert!(matches!(
            b.connect(d, Connection::TwoWay(p0, PartitionId(99))),
            Err(SpaceError::UnknownPartition(_))
        ));
        assert!(matches!(
            b.connect(DoorId(42), Connection::Boundary(p0)),
            Err(SpaceError::UnknownDoor(_))
        ));
        assert!(matches!(
            b.set_distance(PartitionId(99), d, d, 1.0),
            Err(SpaceError::UnknownPartition(_))
        ));
        assert!(matches!(
            b.set_distance(p0, DoorId(42), d, 1.0),
            Err(SpaceError::UnknownDoor(_))
        ));
    }

    #[test]
    fn invalid_explicit_distance_rejected() {
        let (mut b, _, _, d) = two_room_builder();
        let e = b.add_door(
            "door2",
            DoorKind::Public,
            AtiList::always_open(),
            Point::ORIGIN,
        );
        let p = b.add_partition("annex", PartitionKind::Public);
        assert!(matches!(
            b.set_distance(p, d, e, -2.0),
            Err(SpaceError::InvalidDistance { .. })
        ));
        assert!(b.set_distance(p, d, e, f64::NAN).is_err());
        assert!(b.set_distance(p, d, e, f64::INFINITY).is_err());
    }

    #[test]
    fn self_pair_distance_rejected() {
        // Regression: a (p, d, d, x) override used to be accepted here and
        // then silently ignored by the matrix build (only i < j pairs consult
        // the distance function, and the diagonal is pinned at zero).
        let (mut b, p0, p1, d) = two_room_builder();
        assert_eq!(
            b.set_distance(p0, d, d, 7.0).unwrap_err(),
            SpaceError::SelfDistance {
                partition: p0,
                door: d
            }
        );
        // The builder stays usable and the diagonal stays zero.
        b.connect(d, Connection::TwoWay(p0, p1)).unwrap();
        let s = b.build().unwrap();
        assert_eq!(s.door_to_door(p0, d, d), Some(0.0));
    }

    #[test]
    fn foreign_door_in_explicit_distance_rejected() {
        // Each builder hashes its overrides with fresh keys, so repeated
        // builds would see them in varying order: the error must not vary.
        for _ in 0..32 {
            let mut b = VenueBuilder::new();
            let p0 = b.add_partition("a", PartitionKind::Public);
            let p1 = b.add_partition("b", PartitionKind::Public);
            let p2 = b.add_partition("c", PartitionKind::Public);
            let d0 = b.add_door(
                "d0",
                DoorKind::Public,
                AtiList::always_open(),
                Point::ORIGIN,
            );
            let d1 = b.add_door(
                "d1",
                DoorKind::Public,
                AtiList::always_open(),
                Point::ORIGIN,
            );
            b.connect(d0, Connection::TwoWay(p0, p1)).unwrap();
            b.connect(d1, Connection::TwoWay(p1, p2)).unwrap();
            // d0 is not a door of p2, and d1 is not a door of p0.
            b.set_distance(p2, d0, d1, 3.0).unwrap();
            b.set_distance(p0, d0, d1, 3.0).unwrap();
            // The smallest key, (p0, d0, d1), reports its foreign door.
            assert_eq!(
                b.build().unwrap_err(),
                SpaceError::ForeignDoor {
                    partition: p0,
                    door: d1
                }
            );
        }
    }

    #[test]
    fn one_way_directionality() {
        let mut b = VenueBuilder::new();
        let v3 = b.add_partition("v3", PartitionKind::Public);
        let v16 = b.add_partition("v16", PartitionKind::Public);
        let d3 = b.add_door(
            "d3",
            DoorKind::Public,
            AtiList::always_open(),
            Point::ORIGIN,
        );
        b.connect(d3, Connection::OneWay { from: v3, to: v16 })
            .unwrap();
        let s = b.build().unwrap();
        // The paper's example: D2P⊳(d3) = v3, D2P⊲(d3) = v16.
        assert_eq!(s.d2p_leaveable(d3), &[v3]);
        assert_eq!(s.d2p_enterable(d3), &[v16]);
        assert_eq!(s.d2p(d3), vec![v3, v16]);
        assert_eq!(s.p2d_leaveable(v3), &[d3]);
        assert!(s.p2d_enterable(v3).is_empty());
        assert_eq!(s.p2d_enterable(v16), &[d3]);
        assert!(s.p2d_leaveable(v16).is_empty());
    }

    #[test]
    fn boundary_door_has_single_side() {
        let mut b = VenueBuilder::new();
        let p = b.add_partition("lobby", PartitionKind::Public);
        let d = b.add_door(
            "roof",
            DoorKind::Private,
            AtiList::never_open(),
            Point::ORIGIN,
        );
        b.connect(d, Connection::Boundary(p)).unwrap();
        let s = b.build().unwrap();
        assert_eq!(s.d2p(d), vec![p]);
        assert_eq!(s.d2p_enterable(d), &[p]);
    }

    #[test]
    fn geodesic_model_bends_around_corners() {
        use indoor_geom::Polygon;
        // An L-shaped hallway whose two doors face each other across the
        // removed quadrant.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 5.0),
            Point::new(5.0, 5.0),
            Point::new(5.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        let build = |model: DistanceModel| {
            let mut b = VenueBuilder::new();
            b.distance_model(model);
            let hall = b.add_partition_on(
                "L",
                PartitionKind::Public,
                crate::FloorId(0),
                Some(l.clone()),
            );
            let side_a = b.add_partition("a", PartitionKind::Public);
            let side_b = b.add_partition("b", PartitionKind::Public);
            let da = b.add_door(
                "da",
                DoorKind::Public,
                AtiList::always_open(),
                Point::new(2.5, 10.0), // on the top arm
            );
            let db = b.add_door(
                "db",
                DoorKind::Public,
                AtiList::always_open(),
                Point::new(10.0, 2.5), // on the right arm
            );
            b.connect(da, Connection::TwoWay(hall, side_a)).unwrap();
            b.connect(db, Connection::TwoWay(hall, side_b)).unwrap();
            let s = b.build().unwrap();
            s.door_to_door(hall, da, db).unwrap()
        };
        let euclid = build(DistanceModel::Euclidean);
        let geo = build(DistanceModel::Geodesic);
        let corner = Point::new(5.0, 5.0);
        let expected =
            Point::new(2.5, 10.0).distance(corner) + corner.distance(Point::new(10.0, 2.5));
        assert!(geo > euclid + 0.1, "geodesic must exceed the blocked chord");
        assert!((geo - expected).abs() < 1e-9);
    }

    #[test]
    fn parallel_and_sequential_pipelines_agree_exactly() {
        use indoor_geom::Polygon;
        // A venue that exercises every distance source: a non-convex hallway
        // (geodesic Dijkstras), convex side rooms (Euclidean short-circuit),
        // an explicit override, and a door outside its partition's polygon
        // (Euclidean fallback).
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 5.0),
            Point::new(5.0, 5.0),
            Point::new(5.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        let mut b = VenueBuilder::new();
        b.distance_model(DistanceModel::Geodesic);
        let hall = b.add_partition_on("L", PartitionKind::Public, crate::FloorId(0), Some(l));
        let side_a = b.add_partition("a", PartitionKind::Public);
        let side_b = b.add_partition("b", PartitionKind::Public);
        let da = b.add_door(
            "da",
            DoorKind::Public,
            AtiList::always_open(),
            Point::new(2.5, 10.0),
        );
        let db = b.add_door(
            "db",
            DoorKind::Public,
            AtiList::always_open(),
            Point::new(10.0, 2.5),
        );
        let dc = b.add_door(
            "dc",
            DoorKind::Public,
            AtiList::hm(&[((9, 0), (18, 0))]),
            Point::new(1.0, 0.0),
        );
        let d_out = b.add_door(
            "outside",
            DoorKind::Private,
            AtiList::always_open(),
            Point::new(20.0, 20.0), // outside the L: falls back to Euclidean
        );
        b.connect(da, Connection::TwoWay(hall, side_a)).unwrap();
        b.connect(db, Connection::TwoWay(hall, side_b)).unwrap();
        b.connect(
            dc,
            Connection::OneWay {
                from: hall,
                to: side_a,
            },
        )
        .unwrap();
        b.connect(d_out, Connection::Boundary(hall)).unwrap();
        b.set_distance(hall, da, dc, 42.0).unwrap();

        let fast = b.clone().build().unwrap();
        let threaded = b.clone().build_with_workers(4).unwrap();
        let slow = b.build_sequential().unwrap();
        assert_eq!(fast, slow, "pipelines must produce identical venues");
        assert_eq!(threaded, slow, "worker count must not influence the output");
        // And the geodesic really is in play: da↔db bends at (5,5).
        let corner = Point::new(5.0, 5.0);
        let expected =
            Point::new(2.5, 10.0).distance(corner) + corner.distance(Point::new(10.0, 2.5));
        assert_eq!(fast.door_to_door(hall, da, db), Some(expected));
        assert_eq!(fast.door_to_door(hall, da, dc), Some(42.0));
    }

    #[test]
    fn explicit_distance_overrides_geometry() {
        let mut b = VenueBuilder::new();
        let p = b.add_partition("stair", PartitionKind::Public);
        let q = b.add_partition("hall0", PartitionKind::Public);
        let r = b.add_partition("hall1", PartitionKind::Public);
        let lower = b.add_door(
            "lower",
            DoorKind::Public,
            AtiList::always_open(),
            Point::ORIGIN,
        );
        let upper = b.add_door(
            "upper",
            DoorKind::Public,
            AtiList::always_open(),
            Point::new(1.0, 0.0), // geometric distance would be 1 m
        );
        b.connect(lower, Connection::TwoWay(q, p)).unwrap();
        b.connect(upper, Connection::TwoWay(p, r)).unwrap();
        b.set_distance(p, lower, upper, 20.0).unwrap(); // the paper's stairway
        let s = b.build().unwrap();
        assert_eq!(s.door_to_door(p, lower, upper), Some(20.0));
        // Other partitions keep geometric distances.
        assert_eq!(s.door_to_door(q, lower, lower), Some(0.0));
    }
}
