//! The running example of the ITSPQ paper: Figure 1's floor plan with the
//! Table I door ATIs and the query points p1–p4.
//!
//! The 4-page paper does not publish exact coordinates, so positions are
//! chosen to satisfy every quantity it does state:
//!
//! * Table I ATIs for doors d1–d21;
//! * `D2P(d3) = {v3, v16}`, `D2P⊳(d3) = v3`, `D2P⊲(d3) = v16` (d3 is one-way);
//! * `P2D(v3) = P2D⊳(v3) = {d1, d2, d3, d5, d6}`, `P2D⊲(v3) = {d1, d2, d5, d6}`;
//! * v1 is private with the single door d1; v16 is public with the DM entries
//!   `(d3,d17) = 2`, `(d3,d21) = 4`, `(d17,d21) = 5`;
//! * d7 is a private door (`PRD`), d3 a public one (`PBD`);
//! * Example 1: the candidate paths `(p3, d15, d16, p4)` of length **10 m**
//!   (through the private partition v15) and `(p3, d18, p4)` of length
//!   **12 m**; `ITSPQ(p3, p4, 9:00)` must return the latter and
//!   `ITSPQ(p3, p4, 23:30)` must return no path (d18 closes at 23:00).
//!
//! Topology not pinned down by the paper (the remaining rooms and hallways) is
//! filled in consistently with Figure 1's look: v3 and v16/v12 are hallways,
//! v1/v7/v11/v15 are private, d14 is the always-open building entrance to the
//! outdoor partition v0.

use indoor_geom::Point;
use indoor_time::AtiList;

use crate::{
    Connection, DoorId, DoorKind, IndoorPoint, IndoorSpace, PartitionId, PartitionKind,
    VenueBuilder,
};

/// The built example: the venue plus handles to its named entities.
#[derive(Debug, Clone)]
pub struct PaperExample {
    /// The assembled venue.
    pub space: IndoorSpace,
    /// Query point p1 (in hallway v3).
    pub p1: IndoorPoint,
    /// Query point p2 (in room v10).
    pub p2: IndoorPoint,
    /// Query point p3 (in room v13) — source of Example 1.
    pub p3: IndoorPoint,
    /// Query point p4 (in room v14) — target of Example 1.
    pub p4: IndoorPoint,
}

impl PaperExample {
    /// Partition `v{n}` (0 = outdoors, 1–17 as in Figure 1).
    #[must_use]
    pub fn v(&self, n: u32) -> PartitionId {
        assert!(n <= 17, "the example has partitions v0..v17");
        PartitionId(n)
    }

    /// Door `d{n}` (1–21 as in Table I).
    #[must_use]
    pub fn d(&self, n: u32) -> DoorId {
        assert!((1..=21).contains(&n), "the example has doors d1..d21");
        DoorId(n - 1)
    }
}

/// Table I: the ATIs of doors d1–d21.
#[must_use]
pub fn table1_atis() -> Vec<AtiList> {
    vec![
        AtiList::hm(&[((5, 0), (23, 0))]),                     // d1
        AtiList::hm(&[((8, 0), (16, 0))]),                     // d2
        AtiList::hm(&[((6, 0), (23, 0))]),                     // d3
        AtiList::hm(&[((9, 0), (18, 0))]),                     // d4
        AtiList::hm(&[((6, 30), (23, 0))]),                    // d5
        AtiList::hm(&[((8, 0), (16, 0))]),                     // d6
        AtiList::hm(&[((6, 0), (23, 30))]),                    // d7
        AtiList::hm(&[((9, 0), (18, 0))]),                     // d8
        AtiList::hm(&[((0, 0), (6, 0)), ((6, 30), (23, 0))]),  // d9
        AtiList::hm(&[((8, 0), (16, 0))]),                     // d10
        AtiList::hm(&[((5, 0), (23, 0))]),                     // d11
        AtiList::hm(&[((5, 0), (23, 0))]),                     // d12
        AtiList::hm(&[((5, 0), (17, 0)), ((18, 0), (23, 0))]), // d13
        AtiList::hm(&[((0, 0), (24, 0))]),                     // d14
        AtiList::hm(&[((8, 0), (16, 0))]),                     // d15
        AtiList::hm(&[((8, 0), (17, 0))]),                     // d16
        AtiList::hm(&[((0, 0), (24, 0))]),                     // d17
        AtiList::hm(&[((0, 0), (23, 0))]),                     // d18
        AtiList::hm(&[((8, 0), (16, 0))]),                     // d19
        AtiList::hm(&[((5, 0), (23, 0))]),                     // d20
        AtiList::hm(&[((8, 0), (16, 0))]),                     // d21
    ]
}

/// Builds the running example.
#[must_use]
pub fn build() -> PaperExample {
    let mut b = VenueBuilder::new();

    // Partitions v0 (outdoors) .. v17; ids align with their numbers.
    let kinds: [(u32, PartitionKind); 18] = [
        (0, PartitionKind::Outdoor),
        (1, PartitionKind::Private), // v1: office with single door d1
        (2, PartitionKind::Public),
        (3, PartitionKind::Public), // v3: upper hallway
        (4, PartitionKind::Public),
        (5, PartitionKind::Public),
        (6, PartitionKind::Public),
        (7, PartitionKind::Private), // v7: security zone behind d7
        (8, PartitionKind::Public),
        (9, PartitionKind::Public),
        (10, PartitionKind::Public),
        (11, PartitionKind::Private), // v11: storage with single door d11
        (12, PartitionKind::Public),  // v12: lower hallway
        (13, PartitionKind::Public),  // v13: hosts p3
        (14, PartitionKind::Public),  // v14: hosts p4
        (15, PartitionKind::Private), // v15: private shortcut of Example 1
        (16, PartitionKind::Public),  // v16: hallway with the DM example
        (17, PartitionKind::Public),
    ];
    let mut vs = Vec::with_capacity(18);
    for (n, kind) in kinds {
        vs.push(b.add_partition(&format!("v{n}"), kind));
    }

    let atis = table1_atis();
    // Door positions. The Example-1 cluster is collinear so that the two
    // candidate path lengths are exactly 10 m and 12 m:
    //   p3 = (0,0), d15 = (3,0), d16 = (7,0), p4 = (10,0), d18 = (-1,0).
    let positions: [Point; 21] = [
        Point::new(5.0, 35.0),  // d1
        Point::new(12.0, 35.0), // d2
        Point::new(6.0, 28.0),  // d3
        Point::new(16.0, 32.0), // d4
        Point::new(14.0, 30.0), // d5
        Point::new(10.0, 30.0), // d6
        Point::new(20.0, 36.0), // d7
        Point::new(22.0, 30.0), // d8
        Point::new(26.0, 24.0), // d9
        Point::new(14.0, 26.0), // d10
        Point::new(30.0, 12.0), // d11
        Point::new(28.0, 16.0), // d12
        Point::new(18.0, 4.0),  // d13
        Point::new(34.0, 18.0), // d14
        Point::new(3.0, 0.0),   // d15
        Point::new(7.0, 0.0),   // d16
        Point::new(7.0, 26.0),  // d17
        Point::new(-1.0, 0.0),  // d18
        Point::new(24.0, 14.0), // d19
        Point::new(2.0, 6.0),   // d20
        Point::new(10.0, 24.0), // d21
    ];
    let mut ds = Vec::with_capacity(21);
    for (i, atis) in atis.into_iter().enumerate() {
        // The paper marks d7 as the example private door (Door Table).
        let kind = if i + 1 == 7 {
            DoorKind::Private
        } else {
            DoorKind::Public
        };
        ds.push(b.add_door(&format!("d{}", i + 1), kind, atis, positions[i]));
    }
    let v = |n: usize| vs[n];
    let d = |n: usize| ds[n - 1];

    let two_way: [(usize, usize, usize); 20] = [
        (1, 1, 3),    // d1: v1 - v3
        (2, 2, 3),    // d2: v2 - v3
        (4, 2, 6),    // d4: v2 - v6
        (5, 3, 4),    // d5: v3 - v4
        (6, 3, 5),    // d6: v3 - v5
        (7, 4, 7),    // d7: v4 - v7 (private door into the security zone)
        (8, 4, 8),    // d8: v4 - v8
        (9, 8, 17),   // d9: v8 - v17
        (10, 5, 6),   // d10: v5 - v6
        (11, 9, 11),  // d11: v9 - v11
        (12, 9, 10),  // d12: v9 - v10
        (13, 14, 17), // d13: v14 - v17
        (14, 10, 0),  // d14: v10 - v0 (building entrance)
        (15, 13, 15), // d15: v13 - v15
        (16, 15, 14), // d16: v15 - v14
        (17, 12, 16), // d17: v16 - v12
        (18, 13, 14), // d18: v13 - v14
        (19, 10, 12), // d19: v10 - v12
        (20, 12, 13), // d20: v12 - v13
        (21, 9, 16),  // d21: v9 - v16
    ];
    for (door, a, bb) in two_way {
        #[expect(
            clippy::expect_used,
            reason = "Figure 1 literals: every id is declared above and used once"
        )]
        b.connect(d(door), Connection::TwoWay(v(a), v(bb)))
            .expect("example connections are valid");
    }
    // d3 is directional: usable only from v3 into v16 (Figure 1's arrow).
    #[expect(
        clippy::expect_used,
        reason = "Figure 1 literal: d3, v3 and v16 are declared above"
    )]
    b.connect(
        d(3),
        Connection::OneWay {
            from: v(3),
            to: v(16),
        },
    )
    .expect("example connections are valid");

    // The DM entries the paper states for v16 (Partition Table of Figure 2).
    #[expect(
        clippy::expect_used,
        reason = "Figure 2 literals: doors and distances are the paper's own table"
    )]
    b.set_distance(v(16), d(3), d(17), 2.0).expect("v16 DM");
    #[expect(
        clippy::expect_used,
        reason = "Figure 2 literals: doors and distances are the paper's own table"
    )]
    b.set_distance(v(16), d(3), d(21), 4.0).expect("v16 DM");
    #[expect(
        clippy::expect_used,
        reason = "Figure 2 literals: doors and distances are the paper's own table"
    )]
    b.set_distance(v(16), d(17), d(21), 5.0).expect("v16 DM");

    #[expect(
        clippy::expect_used,
        reason = "the checked-in Figure 1 venue builds; the umbrella test suite exercises it"
    )]
    let space = b.build().expect("the paper example is a valid venue");
    PaperExample {
        p1: IndoorPoint::new(v(3), Point::new(8.0, 31.0)),
        p2: IndoorPoint::new(v(10), Point::new(30.0, 17.0)),
        p3: IndoorPoint::new(v(13), Point::new(0.0, 0.0)),
        p4: IndoorPoint::new(v(14), Point::new(10.0, 0.0)),
        space,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_time::TimeOfDay;

    #[test]
    fn sizes() {
        let ex = build();
        assert_eq!(ex.space.num_partitions(), 18); // v0..v17
        assert_eq!(ex.space.num_doors(), 21); // d1..d21
    }

    #[test]
    fn section2_mapping_examples() {
        // "we have D2P(d3) = {v3, v16}, D2P⊳(d3) = v3, and D2P⊲(d3) = v16.
        //  Also, P2D(v3) = P2D⊳(v3) = {d1,d2,d3,d5,d6} whereas
        //  P2D⊲(v3) = {d1,d2,d5,d6}."
        let ex = build();
        let s = &ex.space;
        assert_eq!(s.d2p(ex.d(3)), vec![ex.v(3), ex.v(16)]);
        assert_eq!(s.d2p_leaveable(ex.d(3)), &[ex.v(3)]);
        assert_eq!(s.d2p_enterable(ex.d(3)), &[ex.v(16)]);
        let doors = |ns: &[u32]| ns.iter().map(|&n| ex.d(n)).collect::<Vec<_>>();
        assert_eq!(s.p2d(ex.v(3)), doors(&[1, 2, 3, 5, 6]));
        assert_eq!(s.p2d_leaveable(ex.v(3)), doors(&[1, 2, 3, 5, 6]));
        assert_eq!(s.p2d_enterable(ex.v(3)), doors(&[1, 2, 5, 6]));
    }

    #[test]
    fn v16_distance_matrix_matches_partition_table() {
        let ex = build();
        let s = &ex.space;
        assert_eq!(s.door_to_door(ex.v(16), ex.d(3), ex.d(17)), Some(2.0));
        assert_eq!(s.door_to_door(ex.v(16), ex.d(3), ex.d(21)), Some(4.0));
        assert_eq!(s.door_to_door(ex.v(16), ex.d(17), ex.d(21)), Some(5.0));
        assert_eq!(s.p2d(ex.v(16)), vec![ex.d(3), ex.d(17), ex.d(21)]);
    }

    #[test]
    fn door_table_types() {
        let ex = build();
        assert_eq!(ex.space.door(ex.d(7)).kind, DoorKind::Private);
        assert_eq!(ex.space.door(ex.d(3)).kind, DoorKind::Public);
    }

    #[test]
    fn v1_is_private_with_single_door() {
        let ex = build();
        assert_eq!(ex.space.partition(ex.v(1)).kind, PartitionKind::Private);
        assert_eq!(ex.space.p2d(ex.v(1)), &[ex.d(1)]);
        assert_eq!(ex.space.distance_matrix(ex.v(1)).len(), 1);
    }

    #[test]
    fn example1_candidate_path_lengths() {
        let ex = build();
        let s = &ex.space;
        // (p3, d15, d16, p4): |p3,d15| + DM(v15, d15, d16) + |d16,p4| = 10 m.
        let via_v15 = s.point_to_door(&ex.p3, ex.d(15)).unwrap()
            + s.door_to_door(ex.v(15), ex.d(15), ex.d(16)).unwrap()
            + s.point_to_door(&ex.p4, ex.d(16)).unwrap();
        assert!((via_v15 - 10.0).abs() < 1e-9, "got {via_v15}");
        // (p3, d18, p4): |p3,d18| + |d18,p4| = 12 m.
        let via_d18 =
            s.point_to_door(&ex.p3, ex.d(18)).unwrap() + s.point_to_door(&ex.p4, ex.d(18)).unwrap();
        assert!((via_d18 - 12.0).abs() < 1e-9, "got {via_d18}");
        // v15 is private.
        assert_eq!(s.partition(ex.v(15)).kind, PartitionKind::Private);
    }

    #[test]
    fn table1_spot_checks() {
        let ex = build();
        let open = |n, h, m| ex.space.door(ex.d(n)).atis.is_open(TimeOfDay::hm(h, m));
        assert!(open(1, 5, 0) && !open(1, 23, 0));
        assert!(open(9, 5, 59) && !open(9, 6, 15) && open(9, 6, 30));
        assert!(open(14, 0, 0) && open(14, 23, 59));
        assert!(open(18, 22, 59) && !open(18, 23, 30)); // Example 1's 23:30 query
        assert!(open(13, 16, 59) && !open(13, 17, 30) && open(13, 18, 0));
    }

    #[test]
    fn checkpoints_cover_table1() {
        let ex = build();
        let cps = ex.space.checkpoints();
        for t in [
            TimeOfDay::MIDNIGHT,
            TimeOfDay::hm(5, 0),
            TimeOfDay::hm(6, 0),
            TimeOfDay::hm(6, 30),
            TimeOfDay::hm(8, 0),
            TimeOfDay::hm(9, 0),
            TimeOfDay::hm(16, 0),
            TimeOfDay::hm(17, 0),
            TimeOfDay::hm(18, 0),
            TimeOfDay::hm(23, 0),
            TimeOfDay::hm(23, 30),
        ] {
            assert!(cps.times().contains(&t), "missing checkpoint {t}");
        }
    }

    #[test]
    fn accessor_guards() {
        let ex = build();
        assert_eq!(ex.v(0), PartitionId(0));
        assert_eq!(ex.d(21), DoorId(20));
    }

    #[test]
    #[should_panic(expected = "doors d1..d21")]
    fn door_accessor_rejects_zero() {
        let ex = build();
        let _ = ex.d(0);
    }
}
