//! Property-based parity of the two construction pipelines.
//!
//! `VenueBuilder::build` (indexed lookups, one `GeodesicSolver` per distinct
//! non-convex footprint, parallel matrix fan-out) must produce *exactly* the
//! same `IndoorSpace` — topology maps, every distance matrix, checkpoints —
//! as `VenueBuilder::build_sequential` (per-pair `geodesic_distance`, one
//! partition at a time), on venues whose partitions carry random L- and
//! U-shaped polygons. Each shape repeats on up to three floors, as a mall
//! repeats its floor plan, with overrides on only some copies; one more copy
//! moves a door by one ulp and another a polygon vertex, so a footprint key
//! that misses either shares a solve it must not.

use indoor_geom::{Point, Polygon};
use indoor_space::{Connection, DistanceModel, DoorKind, FloorId, PartitionKind, VenueBuilder};
use indoor_time::AtiList;
use proptest::prelude::*;

/// Parameters of one random non-convex partition polygon.
#[derive(Debug, Clone)]
struct ShapeSpec {
    /// U-shape when true, L-shape otherwise.
    u_shape: bool,
    w: f64,
    h: f64,
    fa: f64,
    fb: f64,
    /// Door positions as bounding-box fractions (a mix of interior,
    /// boundary-adjacent and outside-the-polygon samples).
    doors: Vec<(f64, f64)>,
}

fn shape_polygon(s: &ShapeSpec) -> Polygon {
    if s.u_shape {
        let sw = s.w * (0.2 + 0.3 * s.fa);
        let sd = s.h * (0.3 + 0.6 * s.fb);
        let sx0 = (s.w - sw) / 2.0;
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(s.w, 0.0),
            Point::new(s.w, s.h),
            Point::new(sx0 + sw, s.h),
            Point::new(sx0 + sw, s.h - sd),
            Point::new(sx0, s.h - sd),
            Point::new(sx0, s.h),
            Point::new(0.0, s.h),
        ])
        .expect("U-shape is simple")
    } else {
        let (nw, nh) = (s.w * (0.2 + 0.6 * s.fa), s.h * (0.2 + 0.6 * s.fb));
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(s.w, 0.0),
            Point::new(s.w, s.h - nh),
            Point::new(s.w - nw, s.h - nh),
            Point::new(s.w - nw, s.h),
            Point::new(0.0, s.h),
        ])
        .expect("L-shape is simple")
    }
}

fn arb_shape() -> impl Strategy<Value = ShapeSpec> {
    (
        any::<bool>(),
        20.0f64..80.0,
        20.0f64..80.0,
        0.0f64..1.0,
        0.0f64..1.0,
        prop::collection::vec((0.01f64..0.99, 0.01f64..0.99), 2..7),
    )
        .prop_map(|(u_shape, w, h, fa, fb, doors)| ShapeSpec {
            u_shape,
            w,
            h,
            fa,
            fb,
            doors,
        })
}

/// Adds a hall on `floor` with `poly` and one room behind each door, the
/// doors at `positions` in id order. With `override_dist` every
/// second pair of consecutive doors gets that explicit distance.
fn add_hall(
    b: &mut VenueBuilder,
    name: &str,
    floor: u16,
    poly: &Polygon,
    positions: &[Point],
    override_dist: Option<f64>,
) {
    let hall = b.add_partition_on(
        name,
        PartitionKind::Public,
        FloorId(floor),
        Some(poly.clone()),
    );
    let mut prev = None;
    for (di, &pos) in positions.iter().enumerate() {
        let room = b.add_partition(&format!("{name}.room{di}"), PartitionKind::Public);
        let door = b.add_door_on(
            &format!("{name}.d{di}"),
            DoorKind::Public,
            AtiList::hm(&[((8, 0), (20, 0))]),
            pos,
            FloorId(floor),
        );
        b.connect(door, Connection::TwoWay(hall, room)).unwrap();
        if let (Some(p), Some(dist)) = (prev, override_dist) {
            if di % 2 == 0 {
                b.set_distance(hall, p, door, dist).unwrap();
            }
        }
        prev = Some(door);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fast and sequential pipelines agree exactly on random multi-partition
    /// geodesic venues whose footprints repeat across floors, including
    /// explicit overrides on some copies and copies one ulp apart.
    #[test]
    fn pipelines_agree_on_random_venues(
        shapes in prop::collection::vec((arb_shape(), 1u16..4), 1..4),
        override_dist in 1.0f64..100.0,
    ) {
        let mut b = VenueBuilder::new();
        b.distance_model(DistanceModel::Geodesic);
        for (si, (s, floors)) in shapes.iter().enumerate() {
            let poly = shape_polygon(s);
            let positions: Vec<Point> = s
                .doors
                .iter()
                .map(|&(fx, fy)| Point::new(fx * s.w, fy * s.h))
                .collect();
            // Copies alternate with and without overrides, so a footprint's
            // first copy and its second never share them.
            let overrides = |copy: usize| (copy + si).is_multiple_of(2).then_some(override_dist);
            for floor in 0..*floors {
                add_hall(
                    &mut b,
                    &format!("hall{si}.f{floor}"),
                    floor,
                    &poly,
                    &positions,
                    overrides(usize::from(floor)),
                );
            }
            let mut moved_door = positions.clone();
            moved_door[0].x = moved_door[0].x.next_up();
            add_hall(&mut b, &format!("hall{si}.door-ulp"), 0, &poly, &moved_door, overrides(1));
            let mut vertices = poly.vertices().to_vec();
            vertices[3].x = vertices[3].x.next_up();
            let moved_vertex = Polygon::new(vertices).unwrap();
            add_hall(
                &mut b,
                &format!("hall{si}.vertex-ulp"),
                0,
                &moved_vertex,
                &positions,
                overrides(1),
            );
        }
        let fast = b.clone().build().unwrap();
        let threaded = b.clone().build_with_workers(4).unwrap();
        let slow = b.build_sequential().unwrap();
        prop_assert_eq!(&fast, &slow, "fast pipeline diverged from reference");
        prop_assert_eq!(&threaded, &slow, "output depends on worker count");
    }
}
