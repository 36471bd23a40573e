//! Property-based tests of venue construction: random connection patterns
//! must always yield mutually consistent accessibility mappings.

use indoor_geom::Point;
use indoor_space::{
    audit, plan_text, Connection, DoorId, DoorKind, IndoorSpace, PartitionId, PartitionKind,
    VenueBuilder,
};
use indoor_time::AtiList;
use proptest::prelude::*;

/// A random connection spec: door kind, ATI choice and how it connects two
/// partition indices.
#[derive(Debug, Clone)]
struct ConnSpec {
    a: usize,
    b: usize,
    one_way: bool,
    boundary: bool,
    private: bool,
    ati_kind: u8,
}

fn arb_conn(n_parts: usize) -> impl Strategy<Value = ConnSpec> {
    (
        0..n_parts,
        0..n_parts,
        any::<bool>(),
        prop::bool::weighted(0.1),
        any::<bool>(),
        0u8..4,
    )
        .prop_map(|(a, b, one_way, boundary, private, ati_kind)| ConnSpec {
            a,
            b,
            one_way,
            boundary,
            private,
            ati_kind,
        })
}

/// The `D2P⊳` and `D2P⊲` lists of a spec's door, read straight from the
/// spec in the order [`build`] connects its sides.
fn sides(spec: &ConnSpec) -> (Vec<PartitionId>, Vec<PartitionId>) {
    let (a, b) = (
        PartitionId::from_index(spec.a),
        PartitionId::from_index(spec.b),
    );
    if spec.boundary || spec.a == spec.b {
        (vec![a], vec![a])
    } else if spec.one_way {
        (vec![a], vec![b])
    } else {
        (vec![a, b], vec![a, b])
    }
}

fn build(n_parts: usize, specs: &[ConnSpec]) -> IndoorSpace {
    let mut b = VenueBuilder::new();
    let parts: Vec<PartitionId> = (0..n_parts)
        .map(|i| {
            let kind = if i % 5 == 4 {
                PartitionKind::Private
            } else {
                PartitionKind::Public
            };
            b.add_partition(&format!("p{i}"), kind)
        })
        .collect();
    for (i, spec) in specs.iter().enumerate() {
        let atis = match spec.ati_kind {
            0 => AtiList::always_open(),
            1 => AtiList::never_open(),
            2 => AtiList::hm(&[((8, 0), (16, 0))]),
            _ => AtiList::hm(&[((0, 0), (6, 0)), ((9, 30), (22, 0))]),
        };
        let kind = if spec.private {
            DoorKind::Private
        } else {
            DoorKind::Public
        };
        let door = b.add_door(
            &format!("d{i}"),
            kind,
            atis,
            Point::new(i as f64, (i % 7) as f64),
        );
        let conn = if spec.boundary || spec.a == spec.b {
            Connection::Boundary(parts[spec.a])
        } else if spec.one_way {
            Connection::OneWay {
                from: parts[spec.a],
                to: parts[spec.b],
            }
        } else {
            Connection::TwoWay(parts[spec.a], parts[spec.b])
        };
        b.connect(door, conn).expect("valid random connection");
    }
    b.build().expect("random venues build")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// P2D⊳ / D2P⊳ and P2D⊲ / D2P⊲ are dual relations, and P2D is their
    /// union. Each of the five lists, and `d2p`, is exactly the list read
    /// straight from the specs: the `P2D` lists and `d2p` ascend, and a
    /// door's `D2P⊳` and `D2P⊲` keep its connection's order.
    #[test]
    fn mappings_are_dual(n_parts in 2usize..8,
                         specs in prop::collection::vec(arb_conn(8), 1..16)) {
        let specs: Vec<_> = specs.into_iter()
            .map(|mut s| { s.a %= n_parts; s.b %= n_parts; s })
            .collect();
        let space = build(n_parts, &specs);
        for p in space.partitions() {
            for &d in space.p2d_leaveable(p.id) {
                prop_assert!(space.d2p_leaveable(d).contains(&p.id),
                    "P2D⊳/D2P⊳ duality broken at {} / {}", p.id, d);
            }
            for &d in space.p2d_enterable(p.id) {
                prop_assert!(space.d2p_enterable(d).contains(&p.id));
            }
            // P2D = leaveable ∪ enterable.
            for &d in space.p2d(p.id) {
                prop_assert!(space.p2d_leaveable(p.id).contains(&d)
                    || space.p2d_enterable(p.id).contains(&d));
            }
        }
        for i in 0..space.num_doors() {
            let d = DoorId::from_index(i);
            for &p in space.d2p_leaveable(d) {
                prop_assert!(space.p2d_leaveable(p).contains(&d));
            }
            for &p in space.d2p_enterable(d) {
                prop_assert!(space.p2d_enterable(p).contains(&d));
            }
            let pair = space.d2p(d);
            prop_assert!((1..=2).contains(&pair.len()),
                "a door connects one or two partitions, got {}", pair.len());
        }

        let sides: Vec<_> = specs.iter().map(sides).collect();
        for (i, (leaves, enters)) in sides.iter().enumerate() {
            let d = DoorId::from_index(i);
            prop_assert_eq!(space.d2p_leaveable(d), leaves.as_slice(), "D2P⊳({})", d);
            prop_assert_eq!(space.d2p_enterable(d), enters.as_slice(), "D2P⊲({})", d);
            let mut both = leaves.clone();
            both.extend(enters);
            both.sort_unstable();
            both.dedup();
            prop_assert_eq!(space.d2p(d), both, "D2P({})", d);
        }
        for p in space.partitions() {
            // The doors, ascending, whose sides `holds`.
            let doors = |holds: &dyn Fn(&[PartitionId], &[PartitionId]) -> bool| {
                (0..sides.len())
                    .filter(|&i| holds(&sides[i].0, &sides[i].1))
                    .map(DoorId::from_index)
                    .collect::<Vec<_>>()
            };
            let v = p.id;
            prop_assert_eq!(space.p2d_leaveable(v), doors(&|l, _| l.contains(&v)), "P2D⊳({})", v);
            prop_assert_eq!(space.p2d_enterable(v), doors(&|_, e| e.contains(&v)), "P2D⊲({})", v);
            prop_assert_eq!(
                space.p2d(v),
                doors(&|l, e| l.contains(&v) || e.contains(&v)),
                "P2D({})",
                v
            );
        }
    }

    /// Distance matrices are symmetric with zero diagonals and cover exactly
    /// the partition's doors. One partition more than the specs name has
    /// no door, and its matrix is empty.
    #[test]
    fn distance_matrices_are_consistent(n_parts in 2usize..8,
                                        specs in prop::collection::vec(arb_conn(8), 1..16)) {
        let specs: Vec<_> = specs.into_iter()
            .map(|mut s| { s.a %= n_parts; s.b %= n_parts; s })
            .collect();
        let space = build(n_parts + 1, &specs);
        let bare = space.distance_matrix(PartitionId::from_index(n_parts));
        prop_assert!(bare.is_empty() && bare.doors().is_empty());
        prop_assert_eq!(bare.max_distance(), 0.0);
        for i in 0..space.num_doors() {
            let d = DoorId::from_index(i);
            prop_assert_eq!(bare.row(d), None);
            prop_assert_eq!(bare.distance(d, d), None);
        }
        for p in space.partitions() {
            let dm = space.distance_matrix(p.id);
            prop_assert_eq!(dm.doors(), space.p2d(p.id));
            for &x in dm.doors() {
                prop_assert_eq!(dm.distance(x, x), Some(0.0));
                for &y in dm.doors() {
                    let xy = dm.distance(x, y).unwrap();
                    let yx = dm.distance(y, x).unwrap();
                    prop_assert!((xy - yx).abs() < 1e-12);
                    prop_assert!(xy >= 0.0);
                }
            }
        }
    }

    /// Serde round trips preserve random venues exactly.
    #[test]
    fn serde_round_trip(n_parts in 2usize..6,
                        specs in prop::collection::vec(arb_conn(6), 1..10)) {
        let specs: Vec<_> = specs.into_iter()
            .map(|mut s| { s.a %= n_parts; s.b %= n_parts; s })
            .collect();
        let space = build(n_parts, &specs);
        let json = serde_json::to_string(&space).unwrap();
        let back: IndoorSpace = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(space, back);
    }

    /// The audit never panics and flags every never-open door.
    #[test]
    fn audit_is_total(n_parts in 2usize..8,
                      specs in prop::collection::vec(arb_conn(8), 1..16)) {
        let specs: Vec<_> = specs.into_iter()
            .map(|mut s| { s.a %= n_parts; s.b %= n_parts; s })
            .collect();
        let space = build(n_parts, &specs);
        let report = audit::audit(&space, PartitionId(0));
        let never_open = space.doors().iter().filter(|d| d.atis.is_never_open()).count();
        let flagged = report
            .findings
            .iter()
            .filter(|f| matches!(f, audit::Finding::NeverOpenDoor(_)))
            .count();
        prop_assert_eq!(never_open, flagged);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plan-text serialisation of random venues parses back to the same
    /// topology, kinds, ATIs and distance matrices.
    #[test]
    fn plan_text_round_trip(n_parts in 2usize..6,
                            specs in prop::collection::vec(arb_conn(6), 1..10)) {
        let specs: Vec<_> = specs.into_iter()
            .map(|mut s| { s.a %= n_parts; s.b %= n_parts; s })
            .collect();
        let space = build(n_parts, &specs);
        let text = plan_text::to_plan_text(&space);
        let again = plan_text::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{text}")))?;
        prop_assert_eq!(space.num_partitions(), again.num_partitions());
        prop_assert_eq!(space.num_doors(), again.num_doors());
        for (p, q) in space.partitions().iter().zip(again.partitions()) {
            prop_assert_eq!(p.kind, q.kind);
            prop_assert_eq!(space.p2d(p.id), again.p2d(q.id));
            prop_assert_eq!(space.p2d_leaveable(p.id), again.p2d_leaveable(q.id));
            prop_assert_eq!(space.p2d_enterable(p.id), again.p2d_enterable(q.id));
            prop_assert_eq!(space.distance_matrix(p.id), again.distance_matrix(q.id));
        }
        for (d, e) in space.doors().iter().zip(again.doors()) {
            prop_assert_eq!(&d.atis, &e.atis);
            prop_assert_eq!(d.kind, e.kind);
        }
    }
}
