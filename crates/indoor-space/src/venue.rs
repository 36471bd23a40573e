//! The assembled indoor space, and its JSON layout.

use indoor_geom::{Point, Polygon};
use indoor_time::{AtiList, CheckpointSet};
use serde::{Deserialize, Serialize};

use crate::{
    Connection, DistanceMatrix, DoorId, DoorKind, DoorRecord, FloorId, IndoorPoint, PartitionId,
    PartitionKind, PartitionRecord, SpaceError, SpaceStats, VenueBuilder,
};

/// Lists laid end to end in one array, the layout of a `ReducedGraph` view:
/// list `i` is `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlatLists<T> {
    items: Vec<T>,
    offsets: Vec<u32>,
}

impl<T: Copy> FlatLists<T> {
    /// The lists `0..lists`, list `i` holding the items of the `(i, item)`
    /// pairs that `pairs()` yields, in the order it yields them: one pass
    /// counts each list's length, a second files each item. `pairs` must
    /// yield the same pairs both times.
    pub(crate) fn gather<I>(lists: usize, pairs: impl Fn() -> I) -> Self
    where
        I: Iterator<Item = (usize, T)>,
    {
        // A door is listed at most twice per mapping, so a count past
        // `u32::MAX` takes over 2^31 doors, some 150 GB of door records.
        let mut offsets = vec![0_u32; lists + 1];
        for (i, _) in pairs() {
            offsets[i + 1] += 1;
        }
        for i in 0..lists {
            offsets[i + 1] += offsets[i];
        }
        let Some((_, first)) = pairs().next() else {
            return FlatLists {
                items: Vec::new(),
                offsets,
            };
        };
        let mut items = vec![first; offsets[lists] as usize];
        // `offsets[i]` walks list `i` from its start to its end, which is
        // where list `i + 1` starts; one shift puts the starts back.
        for (i, item) in pairs() {
            items[offsets[i] as usize] = item;
            offsets[i] += 1;
        }
        offsets.copy_within(0..lists, 1);
        offsets[0] = 0;
        FlatLists { items, offsets }
    }

    /// The number of lists.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// List `i`. Inlined, as are the venue accessors that read it: the
    /// sweeps in other crates call them per expansion, and as calls across
    /// crates they cost more than the pointer chases the flat layout saves.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Heap bytes of the items and the offsets.
    fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
    }
}

/// Derived connectivity of a venue (the paper's accessibility mappings),
/// each mapping one [`FlatLists`]. A door's `D2P` lists keep its
/// [`Connection`]'s order; a partition's `P2D` lists ascend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Topology {
    /// `D2P⊳(d)` — partitions one can leave through door `d`.
    pub door_leaves: FlatLists<PartitionId>,
    /// `D2P⊲(d)` — partitions one can enter through door `d`.
    pub door_enters: FlatLists<PartitionId>,
    /// `P2D(v)` — all doors of partition `v`, and the door list of its
    /// distance matrix.
    pub part_doors: FlatLists<DoorId>,
    /// `P2D⊳(v)` — doors through which one can leave `v`.
    pub part_leaveable: FlatLists<DoorId>,
    /// `P2D⊲(v)` — doors through which one can enter `v`.
    pub part_enterable: FlatLists<DoorId>,
}

impl Topology {
    /// The five mappings of `parts` partitions joined by doors whose
    /// connections, in door order, are `conns`. Doors are visited in
    /// ascending id order and a connection names a partition at most once
    /// per mapping (`VenueBuilder::connect` refuses self-loops), so each
    /// `P2D` list comes out ascending and without repeats.
    pub(crate) fn derive(parts: usize, conns: &[Connection]) -> Self {
        let doors = conns.len();
        let by_door = |sides: fn(Connection) -> (PartitionId, Option<PartitionId>)| {
            move || {
                conns.iter().enumerate().flat_map(move |(d, &c)| {
                    let (a, b) = sides(c);
                    std::iter::once(a).chain(b).map(move |p| (d, p))
                })
            }
        };
        let by_part = |sides: fn(Connection) -> (PartitionId, Option<PartitionId>)| {
            move || {
                conns.iter().enumerate().flat_map(move |(d, &c)| {
                    let (a, b) = sides(c);
                    let door = DoorId::from_index(d);
                    std::iter::once(a).chain(b).map(move |p| (p.index(), door))
                })
            }
        };
        Topology {
            door_leaves: FlatLists::gather(doors, by_door(Connection::leaves)),
            door_enters: FlatLists::gather(doors, by_door(Connection::enters)),
            part_doors: FlatLists::gather(parts, by_part(Connection::partitions)),
            part_leaveable: FlatLists::gather(parts, by_part(Connection::leaves)),
            part_enterable: FlatLists::gather(parts, by_part(Connection::enters)),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.door_leaves.heap_bytes()
            + self.door_enters.heap_bytes()
            + self.part_doors.heap_bytes()
            + self.part_leaveable.heap_bytes()
            + self.part_enterable.heap_bytes()
    }
}

/// A validated indoor venue: partitions, doors, directional topology,
/// intra-partition distance matrices and the checkpoint set of all door ATIs.
///
/// Construct via [`crate::VenueBuilder`]; the paper's running example is
/// available from [`crate::paper_example::build`].
///
/// A venue serialises as the builder's inputs, and deserialising runs
/// [`VenueBuilder::build`] on them, so a JSON venue is checked as any other:
///
/// ```json
/// {"partitions": [{"name": "hall", "kind": "Public", "floor": 0, "polygon": null}, …],
///  "doors": [{"name": "d0", "kind": "Public", "atis": [{"start": 28800.0, "end": 64800.0}],
///             "position": {"x": 0.0, "y": 0.0}, "floor": 0,
///             "connection": {"sides": [0, 1], "one_way": false}}, …],
///  "distances": [{"partition": 3, "a": 5, "b": 7, "metres": 20.0}, …]}
/// ```
///
/// A record's slot is its id. `sides` holds a door's two partitions, or one
/// for a boundary door, and a one-way door leads from the first into the
/// second. `distances` lists the matrix entries whose bits differ from the
/// Euclidean leg between their doors. The topology, the matrices and the
/// checkpoint set are derived, not stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "VenueFile", into = "VenueFile")]
pub struct IndoorSpace {
    partitions: Vec<PartitionRecord>,
    doors: Vec<DoorRecord>,
    topology: Topology,
    /// Every partition's distance matrix, row-major over its `P2D` list,
    /// laid end to end in partition order.
    cells: Vec<f64>,
    /// Partition `v`'s matrix is `cells[cell_offsets[v]..cell_offsets[v + 1]]`.
    /// `usize`, where the lists take `u32`: a partition's `n²` cells can
    /// pass `u32::MAX` long before its `n` doors do.
    cell_offsets: Vec<usize>,
    checkpoints: CheckpointSet,
}

impl IndoorSpace {
    pub(crate) fn from_parts(
        partitions: Vec<PartitionRecord>,
        doors: Vec<DoorRecord>,
        topology: Topology,
        (cells, cell_offsets): (Vec<f64>, Vec<usize>),
        checkpoints: CheckpointSet,
    ) -> Self {
        IndoorSpace {
            partitions,
            doors,
            topology,
            cells,
            cell_offsets,
            checkpoints,
        }
    }

    /// All partitions, indexable by [`PartitionId::index`].
    #[must_use]
    pub fn partitions(&self) -> &[PartitionRecord] {
        &self.partitions
    }

    /// All doors, indexable by [`DoorId::index`].
    #[must_use]
    pub fn doors(&self) -> &[DoorRecord] {
        &self.doors
    }

    /// Number of partitions.
    #[must_use]
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Number of doors.
    #[must_use]
    pub fn num_doors(&self) -> usize {
        self.doors.len()
    }

    /// The record of a partition. Panics on a foreign id (ids are dense and
    /// only minted by the builder).
    #[must_use]
    pub fn partition(&self, id: PartitionId) -> &PartitionRecord {
        &self.partitions[id.index()]
    }

    /// The record of a door. Panics on a foreign id.
    #[must_use]
    pub fn door(&self, id: DoorId) -> &DoorRecord {
        &self.doors[id.index()]
    }

    /// `P2D(v)`: all doors of partition `v`.
    #[must_use]
    #[inline]
    pub fn p2d(&self, v: PartitionId) -> &[DoorId] {
        self.topology.part_doors.get(v.index())
    }

    /// `P2D⊳(v)`: doors through which one can leave `v`.
    #[must_use]
    #[inline]
    pub fn p2d_leaveable(&self, v: PartitionId) -> &[DoorId] {
        self.topology.part_leaveable.get(v.index())
    }

    /// `P2D⊲(v)`: doors through which one can enter `v`.
    #[must_use]
    #[inline]
    pub fn p2d_enterable(&self, v: PartitionId) -> &[DoorId] {
        self.topology.part_enterable.get(v.index())
    }

    /// `D2P(d)`: the partitions connected by door `d` (one or two).
    #[must_use]
    pub fn d2p(&self, d: DoorId) -> Vec<PartitionId> {
        let mut out = self.d2p_leaveable(d).to_vec();
        for &p in self.d2p_enterable(d) {
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out.sort_unstable();
        out
    }

    /// `D2P⊳(d)`: partitions one can leave through door `d`.
    #[must_use]
    #[inline]
    pub fn d2p_leaveable(&self, d: DoorId) -> &[PartitionId] {
        self.topology.door_leaves.get(d.index())
    }

    /// `D2P⊲(d)`: partitions one can enter through door `d`.
    #[must_use]
    #[inline]
    pub fn d2p_enterable(&self, d: DoorId) -> &[PartitionId] {
        self.topology.door_enters.get(d.index())
    }

    /// The [`Connection`] door `d` was built with, read back from its
    /// `D2P⊳` and `D2P⊲` lists.
    pub(crate) fn connection(&self, d: DoorId) -> Connection {
        let (leaves, enters) = (self.d2p_leaveable(d), self.d2p_enterable(d));
        match *leaves {
            [a, b] => Connection::TwoWay(a, b),
            _ if leaves != enters => Connection::OneWay {
                from: leaves[0],
                to: enters[0],
            },
            _ => Connection::Boundary(leaves[0]),
        }
    }

    /// The matrix entries `(v, a, b, metres)`, `a < b`, whose bits differ
    /// from the Euclidean leg between `a` and `b`: the explicit distances
    /// (and geodesic legs) that rebuild the venue's matrices on top of
    /// [`crate::DistanceModel::Euclidean`].
    pub(crate) fn explicit_distances(&self) -> Vec<(PartitionId, DoorId, DoorId, f64)> {
        let mut out = Vec::new();
        for v in (0..self.partitions.len()).map(PartitionId::from_index) {
            let dm = self.distance_matrix(v);
            let doors = dm.doors();
            for (i, &a) in doors.iter().enumerate() {
                let Some(row) = dm.row(a) else { continue };
                let at = self.doors[a.index()].position;
                for (&b, &metres) in doors.iter().zip(row).skip(i + 1) {
                    let euclid = at.distance(self.doors[b.index()].position);
                    if metres.to_bits() != euclid.to_bits() {
                        out.push((v, a, b, metres));
                    }
                }
            }
        }
        out
    }

    /// The distance matrix of partition `v`: a view of its doors, `P2D(v)`,
    /// and of its cells in the venue's arena.
    #[must_use]
    #[inline]
    pub fn distance_matrix(&self, v: PartitionId) -> DistanceMatrix<'_> {
        let cells = &self.cells[self.cell_offsets[v.index()]..self.cell_offsets[v.index() + 1]];
        DistanceMatrix::new(self.p2d(v), cells)
    }

    /// `DM(v, a, b)`: intra-partition walking distance between doors `a` and
    /// `b` of `v`, or `None` if either door is not on `v`.
    #[must_use]
    #[inline]
    pub fn door_to_door(&self, v: PartitionId, a: DoorId, b: DoorId) -> Option<f64> {
        self.distance_matrix(v).distance(a, b)
    }

    /// Walking distance from an indoor point to a door of its partition
    /// (`|p, d|_E` in the paper), or `None` if the door is not on the
    /// partition.
    #[must_use]
    #[inline]
    pub fn point_to_door(&self, p: &IndoorPoint, d: DoorId) -> Option<f64> {
        if !self.p2d(p.partition).contains(&d) {
            return None;
        }
        Some(p.position.distance(self.doors[d.index()].position))
    }

    /// Straight-line distance between two points of the *same* partition, or
    /// `None` if they lie in different partitions.
    #[must_use]
    pub fn point_to_point(&self, a: &IndoorPoint, b: &IndoorPoint) -> Option<f64> {
        (a.partition == b.partition).then(|| a.position.distance(b.position))
    }

    /// The venue's checkpoint set `T` (all door open/close instants).
    #[must_use]
    pub fn checkpoints(&self) -> &CheckpointSet {
        &self.checkpoints
    }

    /// Finds the partition on `floor` whose footprint contains `p` (first
    /// match; partitions with no polygon are skipped).
    #[must_use]
    pub fn locate(&self, floor: FloorId, p: Point) -> Option<PartitionId> {
        self.partitions
            .iter()
            .find(|part| {
                part.floor == floor && part.polygon.as_ref().is_some_and(|poly| poly.contains(p))
            })
            .map(|part| part.id)
    }

    /// Summary statistics of the venue.
    #[must_use]
    pub fn stats(&self) -> SpaceStats {
        SpaceStats::compute(self)
    }

    /// Heap bytes the venue holds: the capacity of every buffer it owns
    /// (records, names, polygons, ATIs, the five mappings and the cell
    /// arena with their offsets, and the checkpoint set), what the
    /// allocator sees held for it. Used by the memory-cost experiments.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let partitions: usize = self
            .partitions
            .iter()
            .map(|p| p.name.capacity() + p.polygon.as_ref().map_or(0, Polygon::heap_bytes))
            .sum();
        let doors: usize = self
            .doors
            .iter()
            .map(|d| d.name.capacity() + d.atis.heap_bytes())
            .sum();
        self.partitions.capacity() * std::mem::size_of::<PartitionRecord>()
            + partitions
            + self.doors.capacity() * std::mem::size_of::<DoorRecord>()
            + doors
            + self.topology.heap_bytes()
            + self.cells.capacity() * std::mem::size_of::<f64>()
            + self.cell_offsets.capacity() * std::mem::size_of::<usize>()
            + self.checkpoints.heap_bytes()
    }
}

/// The JSON layout of an [`IndoorSpace`]: the builder's inputs.
#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct VenueFile {
    partitions: Vec<PartitionEntry>,
    doors: Vec<DoorEntry>,
    distances: Vec<DistanceEntry>,
}

#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct PartitionEntry {
    name: String,
    kind: PartitionKind,
    floor: FloorId,
    polygon: Option<Polygon>,
}

#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct DoorEntry {
    name: String,
    kind: DoorKind,
    atis: AtiList,
    position: Point,
    floor: FloorId,
    connection: Sides,
}

/// A [`Connection`] as the file holds it: `[a, b]` two-way, `[from, to]`
/// one-way, `[p]` boundary.
#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct Sides {
    sides: Vec<PartitionId>,
    one_way: bool,
}

#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct DistanceEntry {
    partition: PartitionId,
    a: DoorId,
    b: DoorId,
    metres: f64,
}

impl Sides {
    /// The connection of `door`, or why these sides make none.
    fn connection(&self, door: DoorId) -> Result<Connection, SpaceError> {
        match (self.sides.as_slice(), self.one_way) {
            (&[a, b], false) => Ok(Connection::TwoWay(a, b)),
            (&[from, to], true) => Ok(Connection::OneWay { from, to }),
            (&[p], false) => Ok(Connection::Boundary(p)),
            ([_], true) => Err(SpaceError::OneWayBoundary(door)),
            ([], _) => Err(SpaceError::DanglingDoor(door)),
            _ => Err(SpaceError::TooManySides(door)),
        }
    }
}

impl From<Connection> for Sides {
    fn from(conn: Connection) -> Self {
        let (sides, one_way) = match conn {
            Connection::TwoWay(a, b) => (vec![a, b], false),
            Connection::OneWay { from, to } => (vec![from, to], true),
            Connection::Boundary(p) => (vec![p], false),
        };
        Sides { sides, one_way }
    }
}

impl TryFrom<VenueFile> for IndoorSpace {
    type Error = SpaceError;

    fn try_from(file: VenueFile) -> Result<Self, SpaceError> {
        let mut b = VenueBuilder::new();
        for p in file.partitions {
            b.add_partition_on(&p.name, p.kind, p.floor, p.polygon);
        }
        for d in file.doors {
            let id = b.add_door_on(&d.name, d.kind, d.atis, d.position, d.floor);
            b.connect(id, d.connection.connection(id)?)?;
        }
        for e in file.distances {
            b.set_distance(e.partition, e.a, e.b, e.metres)?;
        }
        b.build()
    }
}

impl From<IndoorSpace> for VenueFile {
    fn from(space: IndoorSpace) -> Self {
        let distances = space
            .explicit_distances()
            .into_iter()
            .map(|(partition, a, b, metres)| DistanceEntry {
                partition,
                a,
                b,
                metres,
            })
            .collect();
        let doors = space
            .doors
            .iter()
            .map(|d| DoorEntry {
                name: d.name.clone(),
                kind: d.kind,
                atis: d.atis.clone(),
                position: d.position,
                floor: d.floor,
                connection: space.connection(d.id).into(),
            })
            .collect();
        let partitions = space
            .partitions
            .into_iter()
            .map(|p| PartitionEntry {
                name: p.name,
                kind: p.kind,
                floor: p.floor,
                polygon: p.polygon,
            })
            .collect();
        VenueFile {
            partitions,
            doors,
            distances,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_time::TimeOfDay;

    /// room --d0-- hall --d1-- office, d1 private one-way into office.
    fn venue() -> (IndoorSpace, [PartitionId; 3], [DoorId; 2]) {
        let mut b = VenueBuilder::new();
        let room = b.add_partition("room", PartitionKind::Public);
        let hall = b.add_partition("hall", PartitionKind::Public);
        let office = b.add_partition("office", PartitionKind::Private);
        let d0 = b.add_door(
            "d0",
            DoorKind::Public,
            AtiList::hm(&[((8, 0), (18, 0))]),
            Point::new(0.0, 0.0),
        );
        let d1 = b.add_door(
            "d1",
            DoorKind::Private,
            AtiList::hm(&[((9, 0), (17, 0))]),
            Point::new(6.0, 8.0),
        );
        b.connect(d0, Connection::TwoWay(room, hall)).unwrap();
        b.connect(
            d1,
            Connection::OneWay {
                from: hall,
                to: office,
            },
        )
        .unwrap();
        (b.build().unwrap(), [room, hall, office], [d0, d1])
    }

    #[test]
    fn mappings() {
        let (s, [room, hall, office], [d0, d1]) = venue();
        assert_eq!(s.p2d(hall), &[d0, d1]);
        assert_eq!(s.p2d_leaveable(hall), &[d0, d1]);
        assert_eq!(s.p2d_enterable(hall), &[d0]);
        assert_eq!(s.p2d_enterable(office), &[d1]);
        assert!(s.p2d_leaveable(office).is_empty());
        assert_eq!(s.d2p(d1), vec![hall, office]);
        assert_eq!(s.d2p_leaveable(d0), &[room, hall]);
    }

    #[test]
    fn distances() {
        let (s, [_, hall, _], [d0, d1]) = venue();
        assert_eq!(s.door_to_door(hall, d0, d1), Some(10.0));
        assert_eq!(s.door_to_door(hall, d0, d0), Some(0.0));
        // d1 is not a door of room (index 0).
        let (_, [room, ..], _) = venue();
        assert_eq!(s.door_to_door(room, d0, d1), None);
    }

    #[test]
    fn point_distances() {
        let (s, [room, hall, _], [d0, d1]) = venue();
        let p = IndoorPoint::new(room, Point::new(3.0, 4.0));
        assert_eq!(s.point_to_door(&p, d0), Some(5.0));
        assert_eq!(s.point_to_door(&p, d1), None); // d1 not on room
        let q = IndoorPoint::new(room, Point::new(0.0, 0.0));
        assert_eq!(s.point_to_point(&p, &q), Some(5.0));
        let h = IndoorPoint::new(hall, Point::new(0.0, 0.0));
        assert_eq!(s.point_to_point(&p, &h), None);
    }

    #[test]
    fn checkpoints_collected() {
        let (s, _, _) = venue();
        assert_eq!(
            s.checkpoints().times(),
            &[
                TimeOfDay::MIDNIGHT,
                TimeOfDay::hm(8, 0),
                TimeOfDay::hm(9, 0),
                TimeOfDay::hm(17, 0),
                TimeOfDay::hm(18, 0),
            ]
        );
    }

    #[test]
    fn serde_round_trip() {
        let (s, _, _) = venue();
        let json = serde_json::to_string(&s).unwrap();
        let back: IndoorSpace = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn heap_bytes_reasonable() {
        let (s, _, _) = venue();
        let b = s.heap_bytes();
        assert!(b > 100, "suspiciously small: {b}");
        assert!(b < 1_000_000, "suspiciously large: {b}");
    }
}
