//! Validated construction of indoor spaces.
//!
//! [`VenueBuilder::build`] is the production pipeline. The five
//! accessibility mappings are filed into flat lists in one counting pass
//! over the doors. Each distinct non-convex footprint (a polygon and its
//! doors' positions, bit for bit) is solved once by a [`GeodesicSolver`]
//! answering one-to-many queries, however many partitions share it; convex
//! polygons take the Euclidean leg without a solver. The solves fan out over
//! [`fan_out`] workers, the calling thread among them, and then one pass
//! writes every distance matrix into the venue's one cell arena.
//! [`VenueBuilder::build_sequential`] keeps the naive single-threaded
//! pipeline (one pairwise [`geodesic_distance`] call per door pair, each
//! rebuilding the polygon's visibility graph) as the reference: both paths
//! produce identical [`IndoorSpace`] values, which the test suite asserts,
//! and the `construction` benchmark measures the gap.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use indoor_geom::{geodesic_distance, GeodesicSolver, Point, Polygon};
use indoor_time::{AtiList, CheckpointSet};

use crate::{
    fan_out, venue::Topology, DoorId, DoorKind, DoorRecord, FloorId, IndoorSpace, PartitionId,
    PartitionKind, PartitionRecord, SpaceError,
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
    /// The partitions the door bounds, `D2P`: one, or two for a door
    /// between two.
    pub(crate) fn partitions(self) -> (PartitionId, Option<PartitionId>) {
        match self {
            Connection::TwoWay(a, b) => (a, Some(b)),
            Connection::OneWay { from, to } => (from, Some(to)),
            Connection::Boundary(p) => (p, None),
        }
    }

    /// `D2P⊳`: the partitions one can leave through the door.
    pub(crate) fn leaves(self) -> (PartitionId, Option<PartitionId>) {
        match self {
            Connection::TwoWay(a, b) => (a, Some(b)),
            Connection::OneWay { from, .. } | Connection::Boundary(from) => (from, None),
        }
    }

    /// `D2P⊲`: the partitions one can enter through the door.
    pub(crate) fn enters(self) -> (PartitionId, Option<PartitionId>) {
        match self {
            Connection::TwoWay(a, b) => (a, Some(b)),
            Connection::OneWay { to, .. } | Connection::Boundary(to) => (to, None),
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
    /// fixed at zero and an override for it would be silently dropped),
    /// invalid distances and a second override of one unordered pair in one
    /// partition (`a, b` after `b, a` included), which would otherwise
    /// replace the first; door membership is verified at
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
        match self.explicit.entry(key) {
            Entry::Occupied(_) => Err(SpaceError::DuplicateDistance {
                partition,
                a: key.1,
                b: key.2,
            }),
            Entry::Vacant(slot) => {
                slot.insert(dist);
                Ok(())
            }
        }
    }

    /// Validates the venue and derives topology mappings, distance matrices
    /// and the checkpoint set.
    ///
    /// This is the production pipeline. Geodesic distance matrices take one
    /// [`GeodesicSolver`] per distinct non-convex footprint (one-to-many
    /// queries instead of a visibility-graph rebuild per door pair): the
    /// partitions whose polygon and door positions, in door order, are equal
    /// bit for bit (the same corridor on every floor of a mall) share one
    /// solve, and each keeps its own explicit overrides. Convex polygons take
    /// the Euclidean leg, which is what the solver would answer there. The
    /// solves fan out over [`fan_out`] workers; one pass then writes every
    /// matrix into the venue's cell arena. The output is identical — value
    /// for value — to [`VenueBuilder::build_sequential`].
    ///
    /// # Errors
    /// Returns the first validation failure (dangling doors, foreign doors in
    /// explicit distances, empty venue …).
    pub fn build(self) -> Result<IndoorSpace, SpaceError> {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.assemble(Some(workers))
    }

    /// Like [`VenueBuilder::build`] with an explicit worker-thread count for
    /// the geodesic solves (mainly for tests and benchmarks; `build`
    /// picks the host parallelism). `workers == 1` runs the fast pipeline on
    /// the calling thread alone. The output never depends on the worker
    /// count.
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
    /// `Some(n)` for the fast pipeline with `n`-thread geodesic solves.
    fn assemble(mut self, workers: Option<usize>) -> Result<IndoorSpace, SpaceError> {
        if self.partitions.is_empty() {
            return Err(SpaceError::EmptyVenue);
        }
        let conns = self
            .connections
            .iter()
            .enumerate()
            .map(|(i, c)| c.ok_or(SpaceError::DanglingDoor(DoorId::from_index(i))))
            .collect::<Result<Vec<_>, _>>()?;
        let topology = Topology::derive(self.partitions.len(), &conns);
        // Freed before the cell arena, which sets the build's heap peak, is
        // allocated.
        drop(conns);

        // Validate explicit distances against door membership, in key
        // order, so a venue with several bad ones reports the same error on
        // every run. `P2D` lists ascend, so membership is a binary search.
        let mut overrides: Vec<_> = self.explicit.iter().map(|(&k, &d)| (k, d)).collect();
        overrides.sort_unstable_by_key(|&(key, _)| key);
        for &((partition, a, b), _) in &overrides {
            let doors = topology.part_doors.get(partition.index());
            if doors.binary_search(&a).is_err() {
                return Err(SpaceError::ForeignDoor { partition, door: a });
            }
            if doors.binary_search(&b).is_err() {
                return Err(SpaceError::ForeignDoor { partition, door: b });
            }
        }

        let cells = match workers {
            Some(w) => self.cells_fast(&topology, &overrides, w)?,
            None => self.cells_sequential(&topology)?,
        };

        let checkpoints = CheckpointSet::from_atis(self.doors.iter().map(|d| &d.atis));
        // The records are immutable from here on: give back the slack their
        // growth left.
        self.partitions.shrink_to_fit();
        self.doors.shrink_to_fit();
        Ok(IndoorSpace::from_parts(
            self.partitions,
            self.doors,
            topology,
            cells,
            checkpoints,
        ))
    }

    /// Reference distance pass: per pair, explicit override, else the
    /// distance model with a from-scratch [`geodesic_distance`] call.
    fn cells_sequential(&self, topology: &Topology) -> Result<(Vec<f64>, Vec<usize>), SpaceError> {
        fill_cells(topology, |partition, doors, i, j| {
            let (a, b) = (doors[i], doors[j]);
            if let Some(&d) = self.explicit.get(&(partition, a, b)) {
                return d;
            }
            let pa = self.doors[a.index()].position;
            let pb = self.doors[b.index()].position;
            if self.distance_model == DistanceModel::Geodesic {
                if let Some(poly) = &self.partitions[partition.index()].polygon {
                    if let Some(d) = geodesic_distance(poly, pa, pb) {
                        return d;
                    }
                }
            }
            pa.distance(pb)
        })
    }

    /// The fast distance pass: one geodesic solve per distinct footprint,
    /// fanned out, then every cell in one pass.
    ///
    /// Only a non-convex polygon with at least two doors needs the solver;
    /// on a convex one [`GeodesicSolver`] answers the Euclidean leg or
    /// `None`, which falls back to that same leg. Such a partition is keyed
    /// by its footprint: both lengths, then the exact bits of its polygon's
    /// vertices and of its doors' positions, in door order. Those are all
    /// the solve reads, so partitions with equal keys get the same rows bit
    /// for bit: one sort puts them in runs, and each run is solved once. A
    /// mall that repeats one floor plan on every floor solves one floor's
    /// corridors.
    ///
    /// Each pair then takes the partition's own explicit override, else
    /// its footprint's geodesic row entry, else the Euclidean leg (`None`
    /// entries fall back to it too, mirroring `geodesic_distance`'s
    /// out-of-polygon contract). The pass asks for the pairs `(v, a, b)`,
    /// `a < b`, in ascending order, and `overrides` is sorted by that key,
    /// so one cursor finds each override without a hash lookup.
    fn cells_fast(
        &self,
        topology: &Topology,
        overrides: &[((PartitionId, DoorId, DoorId), f64)],
        workers: usize,
    ) -> Result<(Vec<f64>, Vec<usize>), SpaceError> {
        let position = |d: &DoorId| self.doors[d.index()].position;
        let mut keyed = Vec::new();
        if self.distance_model == DistanceModel::Geodesic {
            for (pi, part) in self.partitions.iter().enumerate() {
                let Some(poly) = &part.polygon else {
                    continue;
                };
                let doors = topology.part_doors.get(pi);
                if doors.len() < 2 || poly.is_convex() {
                    continue;
                }
                let verts = poly.vertices();
                let mut bits = Vec::with_capacity(2 * (verts.len() + doors.len()));
                for p in verts.iter().copied().chain(doors.iter().map(position)) {
                    bits.extend([p.x.to_bits(), p.y.to_bits()]);
                }
                keyed.push(((verts.len(), doors.len(), bits), pi, poly));
            }
        }
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut solves: Vec<(&Polygon, &[DoorId])> = Vec::new();
        let mut solve_of: Vec<Option<usize>> = vec![None; self.partitions.len()];
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            for &(_, pi, _) in run {
                solve_of[pi] = Some(solves.len());
            }
            let (_, pi, poly) = run[0];
            solves.push((poly, topology.part_doors.get(pi)));
        }
        // The footprint keys, some 350 KB at 50 floors, go before the cells.
        drop(keyed);

        // `rows[s][i][j - i - 1]` is the geodesic from door i to door j > i
        // of solve `s` (the upper triangle the cells ask for), computed
        // one-to-many from one solver per footprint. A footprint's rows
        // walk its doors in the order of every partition of its run.
        let rows = fan_out(solves.len(), workers, |s| {
            let (poly, doors) = solves[s];
            let solver = GeodesicSolver::new(poly);
            let positions: Vec<Point> = doors.iter().map(position).collect();
            (0..positions.len())
                .map(|i| solver.distances_from(positions[i], &positions[i + 1..]))
                .collect::<Vec<_>>()
        });
        let mut next = overrides.iter().peekable();
        fill_cells(topology, |partition, doors, i, j| {
            let (a, b) = (doors[i], doors[j]);
            if let Some((_, d)) = next.next_if(|&&(key, _)| key == (partition, a, b)) {
                return *d;
            }
            let geo = solve_of[partition.index()].and_then(|s| rows[s][i][j - i - 1]);
            geo.unwrap_or_else(|| position(&a).distance(position(&b)))
        })
    }
}

/// Every partition's distance matrix in one arena, with each matrix's
/// offset: partition `v`'s `n × n` cells, row-major over `P2D(v)`, start at
/// `offsets[v]`. The diagonal is 0 and each pair `i < j` of `P2D(v)` takes
/// `leg(v, P2D(v), i, j)` on both sides, the pairs asked for in ascending
/// `(v, i, j)` order.
///
/// # Errors
/// [`SpaceError::InvalidDistance`] for the first leg, in that order, that is
/// negative or not finite.
fn fill_cells(
    topology: &Topology,
    mut leg: impl FnMut(PartitionId, &[DoorId], usize, usize) -> f64,
) -> Result<(Vec<f64>, Vec<usize>), SpaceError> {
    let parts = topology.part_doors.len();
    let mut offsets = Vec::with_capacity(parts + 1);
    offsets.push(0);
    for v in 0..parts {
        let n = topology.part_doors.get(v).len();
        offsets.push(offsets[v] + n * n);
    }
    let mut cells = vec![0.0; offsets[parts]];
    for v in 0..parts {
        let doors = topology.part_doors.get(v);
        let n = doors.len();
        let matrix = &mut cells[offsets[v]..offsets[v + 1]];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = leg(PartitionId::from_index(v), doors, i, j);
                if !d.is_finite() || d < 0.0 {
                    return Err(SpaceError::InvalidDistance {
                        a: doors[i],
                        b: doors[j],
                        value: d,
                    });
                }
                matrix[i * n + j] = d;
                matrix[j * n + i] = d;
            }
        }
    }
    Ok((cells, offsets))
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
    fn a_leg_past_f64_is_rejected_by_both_pipelines() {
        let (mut b, p0, p1, d) = two_room_builder();
        let far = |x: f64| Point::new(x, 0.0);
        let e = b.add_door(
            "west",
            DoorKind::Public,
            AtiList::always_open(),
            far(-1e308),
        );
        let f = b.add_door("east", DoorKind::Public, AtiList::always_open(), far(1e308));
        b.connect(d, Connection::TwoWay(p0, p1)).unwrap();
        b.connect(e, Connection::Boundary(p1)).unwrap();
        b.connect(f, Connection::Boundary(p1)).unwrap();
        // `d` to `e` is 1e308 m, `e` to `f` overflows to infinity.
        let infinite = SpaceError::InvalidDistance {
            a: e,
            b: f,
            value: f64::INFINITY,
        };
        assert_eq!(b.clone().build().unwrap_err(), infinite);
        assert_eq!(b.build_sequential().unwrap_err(), infinite);
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
    fn second_override_of_a_pair_rejected() {
        let (mut b, p0, p1, d) = two_room_builder();
        let e = b.add_door(
            "door2",
            DoorKind::Public,
            AtiList::always_open(),
            Point::new(3.0, 4.0),
        );
        b.connect(d, Connection::TwoWay(p0, p1)).unwrap();
        b.connect(e, Connection::TwoWay(p0, p1)).unwrap();
        b.set_distance(p0, e, d, 10.0).unwrap();
        let twice = SpaceError::DuplicateDistance {
            partition: p0,
            a: d,
            b: e,
        };
        // Either order of the pair is the same pair; the first value stays.
        assert_eq!(b.set_distance(p0, d, e, 50.0).unwrap_err(), twice);
        assert_eq!(b.set_distance(p0, e, d, 10.0).unwrap_err(), twice);
        // The same pair in another partition is another matrix entry.
        b.set_distance(p1, d, e, 7.0).unwrap();
        let s = b.build().unwrap();
        assert_eq!(s.door_to_door(p0, d, e), Some(10.0));
        assert_eq!(s.door_to_door(p1, e, d), Some(7.0));
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
    fn partitions_sharing_a_footprint_keep_their_own_overrides_and_door_order() {
        use indoor_geom::Polygon;
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 5.0),
            Point::new(5.0, 5.0),
            Point::new(5.0, 10.0),
            Point::new(0.0, 10.0),
        ])
        .unwrap();
        // Spots 0 and 1 see each other only around the corner (5, 5); spot
        // 2 sees both.
        let spots = [
            Point::new(2.5, 10.0),
            Point::new(10.0, 2.5),
            Point::new(1.0, 0.0),
        ];
        let mut b = VenueBuilder::new();
        b.distance_model(DistanceModel::Geodesic);
        let mut halls = Vec::new();
        // Three copies of one hall on three floors. The third adds its doors
        // in another order, so its doors in id order walk the spots in
        // another order: the same polygon and positions, another footprint.
        for (floor, order) in (0u16..).zip([[0, 1, 2], [0, 1, 2], [1, 0, 2]]) {
            let hall = b.add_partition_on(
                &format!("L{floor}"),
                PartitionKind::Public,
                FloorId(floor),
                Some(l.clone()),
            );
            let mut doors = [DoorId(0); 3];
            for spot in order {
                let room = b.add_partition(&format!("room{floor}.{spot}"), PartitionKind::Public);
                let d = b.add_door_on(
                    &format!("d{floor}.{spot}"),
                    DoorKind::Public,
                    AtiList::always_open(),
                    spots[spot],
                    FloorId(floor),
                );
                b.connect(d, Connection::TwoWay(hall, room)).unwrap();
                doors[spot] = d;
            }
            halls.push((hall, doors));
        }
        // Only the second copy overrides a pair.
        let (hall1, doors1) = halls[1];
        b.set_distance(hall1, doors1[0], doors1[1], 42.0).unwrap();

        let fast = b.clone().build().unwrap();
        assert_eq!(fast, b.clone().build_with_workers(1).unwrap());
        assert_eq!(fast, b.build_sequential().unwrap());
        let corner = Point::new(5.0, 5.0);
        let bent = spots[0].distance(corner) + corner.distance(spots[1]);
        for (copy, &(hall, [d0, d1, d2])) in halls.iter().enumerate() {
            let around = if copy == 1 { 42.0 } else { bent };
            assert_eq!(fast.door_to_door(hall, d0, d1), Some(around), "copy {copy}");
            assert_eq!(
                fast.door_to_door(hall, d0, d2),
                Some(spots[0].distance(spots[2])),
                "copy {copy}"
            );
            assert_eq!(
                fast.door_to_door(hall, d1, d2),
                Some(spots[1].distance(spots[2])),
                "copy {copy}"
            );
        }
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
