//! Multi-floor mall generator matching the paper's venue statistics.
//!
//! Each floor is a 1368 m × 1368 m shopping level structured as:
//!
//! * a 4 × 4 grid of hallway *lines* decomposed into **16 intersection cells**
//!   and **24 segment cells** (the "irregular hallways decomposed into
//!   smaller, regular partitions" of the paper), joined by **48 virtual
//!   doors**;
//! * **9 inner blocks**, each holding a private *service corridor* and a ring
//!   of shops: **80 inner shops** (front door onto a hallway, private back
//!   door into the service corridor) distributed 9-9-9-9-9-9-9-9-8;
//! * **8 outer shops** along the perimeter (front door only);
//! * **4 stair lobbies** in the margin (one per side), each with a hallway
//!   door and an "up" door joining the lobby directly above; the two explicit
//!   10 m half-flights realise the paper's 20 m stairways. Top-floor up-doors
//!   are locked roof accesses.
//!
//! Totals per floor: 16+24+9+80+8+4 = **141 partitions** and 48+88+80+4+4 =
//! **224 doors** — exactly the paper's figures, so the default five floors
//! give 705 partitions and 1120 doors.
//!
//! Temporal variation: shop front/back doors draw up to three ATIs from the
//! sampled checkpoint set `T` (see [`crate::ShopHours`]); hallway, lobby and
//! stair doors are always open, roof doors never.

use indoor_geom::{Point, Polygon, Rect};
use indoor_space::{
    Connection, DistanceModel, DoorId, DoorKind, FloorId, IndoorSpace, PartitionId, PartitionKind,
    VenueBuilder,
};
use indoor_time::AtiList;
use rand::rngs::StdRng;
use rand::RngExt;

use crate::ShopHours;

/// Footprint of the private service corridors inside each inner block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorridorShape {
    /// A plain rectangular band between the two shop rows (convex, so every
    /// door-to-door distance is a straight line). The original layout.
    #[default]
    Band,
    /// A comb: a narrow spine with one stub corridor per shop back door.
    /// Doors on different stubs cannot see each other, so the venue builds
    /// with [`DistanceModel::Geodesic`] and every corridor matrix requires
    /// real interior shortest paths — the construction-cost stress case used
    /// by the `construction` benchmark.
    Comb,
}

/// Parameters of the mall generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MallConfig {
    /// Number of floors (paper default: 5; 1 and 3 also used).
    pub floors: u16,
    /// Side length of the square floor in metres (paper: 1368).
    pub floor_side: f64,
    /// Hallway lines per axis (paper-equivalent: 4).
    pub grid: usize,
    /// Hallway width in metres.
    pub corridor_width: f64,
    /// Total stairway length between adjacent floors in metres (paper: 20).
    pub stairway_length: f64,
    /// Inner shops per floor (paper-equivalent: 80, all with back doors).
    pub inner_shops: usize,
    /// Outer (perimeter) shops per floor (paper-equivalent: 8, front door only).
    pub outer_shops: usize,
    /// Fraction of shop doors that carry temporal variation (default 1.0).
    pub variation_ratio: f64,
    /// Service-corridor footprint (default [`CorridorShape::Band`]).
    pub corridor_shape: CorridorShape,
}

impl MallConfig {
    /// The paper's default five-floor venue (705 partitions, 1120 doors).
    #[must_use]
    pub fn paper_default() -> Self {
        MallConfig {
            floors: 5,
            floor_side: 1368.0,
            grid: 4,
            corridor_width: 12.0,
            stairway_length: 20.0,
            inner_shops: 80,
            outer_shops: 8,
            variation_ratio: 1.0,
            corridor_shape: CorridorShape::Band,
        }
    }

    /// A single-floor variant (141 partitions, 224 doors).
    #[must_use]
    pub fn single_floor() -> Self {
        MallConfig {
            floors: 1,
            ..Self::paper_default()
        }
    }

    /// A reduced venue for fast tests (1 floor, 2×2 grid, few shops). A 2×2
    /// grid has one perimeter segment per side, all claimed by stair lobbies,
    /// so there is no room for outer shops.
    #[must_use]
    pub fn tiny() -> Self {
        MallConfig {
            floors: 1,
            floor_side: 200.0,
            grid: 2,
            corridor_width: 8.0,
            stairway_length: 20.0,
            inner_shops: 4,
            outer_shops: 0,
            variation_ratio: 1.0,
            corridor_shape: CorridorShape::Band,
        }
    }

    /// Returns a copy with the given floor count.
    #[must_use]
    pub fn with_floors(mut self, floors: u16) -> Self {
        self.floors = floors;
        self
    }

    /// Returns a copy with comb-shaped service corridors (the geodesic
    /// construction stress case; partition and door counts are unchanged).
    #[must_use]
    pub fn with_comb_corridors(mut self) -> Self {
        self.corridor_shape = CorridorShape::Comb;
        self
    }

    fn margin(&self) -> f64 {
        self.floor_side / 8.0
    }

    fn spacing(&self) -> f64 {
        (self.floor_side - 2.0 * self.margin()) / (self.grid as f64 - 1.0)
    }

    /// Hallway line coordinate `k`.
    fn line(&self, k: usize) -> f64 {
        self.margin() + self.spacing() * k as f64
    }
}

/// Per-floor handles used while wiring the venue.
struct FloorParts {
    /// Stair lobbies (west, east, south, north).
    lobbies: Vec<PartitionId>,
    /// The hallway door of each lobby.
    lobby_doors: Vec<DoorId>,
}

/// Builds the mall. ATIs for varying doors are drawn from `hours` with the
/// deterministic RNG seeded by the hours configuration.
///
/// Equivalent to `mall_builder(cfg, hours).build()`; use [`mall_builder`]
/// directly to choose a construction pipeline (the parity tests build the
/// same wiring through both `build` and `build_sequential`).
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "generator wiring is valid by construction; build/build_sequential parity tests cover it"
)]
pub fn build_mall(cfg: &MallConfig, hours: &ShopHours) -> IndoorSpace {
    mall_builder(cfg, hours)
        .build()
        .expect("generated mall is a valid venue")
}

/// Wires the whole mall into a [`VenueBuilder`] without building it, so
/// callers can pick the construction pipeline (or keep mutating the venue).
#[must_use]
pub fn mall_builder(cfg: &MallConfig, hours: &ShopHours) -> VenueBuilder {
    assert!(cfg.grid >= 2, "need at least a 2×2 hallway grid");
    assert!(cfg.floors >= 1, "need at least one floor");
    let mut b = VenueBuilder::new();
    if cfg.corridor_shape == CorridorShape::Comb {
        // Comb corridors are non-convex: straight-line distances through the
        // walls between stubs would underestimate every back-of-house walk.
        b.distance_model(DistanceModel::Geodesic);
    }
    let mut rng = hours.door_rng();
    let half_w = cfg.corridor_width / 2.0;

    let mut floors: Vec<FloorParts> = Vec::with_capacity(cfg.floors as usize);
    for f in 0..cfg.floors {
        let floor = FloorId(f);
        let fp = build_floor(&mut b, cfg, hours, &mut rng, floor, half_w);
        floors.push(fp);
    }

    // Vertical wiring: an "up" door per lobby joins it to the lobby directly
    // above; the top floor's up door is a locked roof access. Explicit
    // distances realise the 20 m stairways: hallway door ↔ up door is a half
    // flight on each side, and on intermediate landings the incoming and
    // outgoing up doors are a full flight apart.
    let half_flight = cfg.stairway_length / 2.0;
    let mut up_below: Vec<Option<DoorId>> = vec![None; 4];
    for f in 0..cfg.floors as usize {
        let floor = FloorId(f as u16);
        for (li, &lobby) in floors[f].lobbies.iter().enumerate() {
            let name = format!("F{f}/stair{li}/up");
            let pos = b_partition_center(cfg, li);
            let up = if f + 1 < cfg.floors as usize {
                let d = b.add_door_on(&name, DoorKind::Public, AtiList::always_open(), pos, floor);
                let above = floors[f + 1].lobbies[li];
                #[expect(
                    clippy::expect_used,
                    reason = "stair doors connect freshly created lobby partitions"
                )]
                b.connect(d, Connection::TwoWay(lobby, above))
                    .expect("stair wiring is valid");
                #[expect(
                    clippy::expect_used,
                    reason = "distances are set between doors just added to the lobby"
                )]
                b.set_distance(above, floors[f + 1].lobby_doors[li], d, half_flight)
                    .expect("stair distances are valid");
                d
            } else {
                let d = b.add_door_on(&name, DoorKind::Private, AtiList::never_open(), pos, floor);
                #[expect(
                    clippy::expect_used,
                    reason = "boundary connection of a door just added to the top lobby"
                )]
                b.connect(d, Connection::Boundary(lobby))
                    .expect("roof door");
                d
            };
            #[expect(
                clippy::expect_used,
                reason = "distances are set between doors just added to the lobby"
            )]
            b.set_distance(lobby, floors[f].lobby_doors[li], up, half_flight)
                .expect("stair distances are valid");
            if let Some(below) = up_below[li] {
                #[expect(
                    clippy::expect_used,
                    reason = "distances are set between doors just added to the lobby"
                )]
                b.set_distance(lobby, below, up, cfg.stairway_length)
                    .expect("stair distances are valid");
            }
            up_below[li] = Some(up);
        }
    }
    b
}

/// The comb-shaped service corridor of one inner block: a horizontal spine
/// across the middle of the back-of-house band (`y_lo..y_hi`), with one
/// narrow stub per shop back door reaching the band edge the door sits on
/// (south stubs down to `y_lo`, north stubs up to `y_hi`).
///
/// Doors on different stubs are not mutually visible, so geodesic distance
/// matrices over these polygons exercise real visibility-graph shortest
/// paths — the construction stress case.
#[expect(
    clippy::expect_used,
    reason = "comb vertices are constructed rectilinear and non-degenerate for any valid MallConfig"
)]
fn comb_corridor_polygon(
    x0: f64,
    x1: f64,
    y_lo: f64,
    y_hi: f64,
    south_cx: &[f64],
    north_cx: &[f64],
) -> Polygon {
    let band = y_hi - y_lo;
    let yc0 = y_lo + band * 0.4;
    let yc1 = y_hi - band * 0.4;
    // Stubs must stay disjoint: shop fronts are at least a shop width apart,
    // so a quarter of the narrowest shop bounds the stub half-width.
    let mut hw = 1.5f64;
    for cxs in [south_cx, north_cx] {
        if cxs.len() > 1 {
            hw = hw.min((cxs[1] - cxs[0]) / 4.0);
        }
    }
    let mut v = vec![Point::new(x0, yc0)];
    for &cx in south_cx {
        v.push(Point::new(cx - hw, yc0));
        v.push(Point::new(cx - hw, y_lo));
        v.push(Point::new(cx + hw, y_lo));
        v.push(Point::new(cx + hw, yc0));
    }
    v.push(Point::new(x1, yc0));
    v.push(Point::new(x1, yc1));
    for &cx in north_cx.iter().rev() {
        v.push(Point::new(cx + hw, yc1));
        v.push(Point::new(cx + hw, y_hi));
        v.push(Point::new(cx - hw, y_hi));
        v.push(Point::new(cx - hw, yc1));
    }
    v.push(Point::new(x0, yc1));
    Polygon::new(v).expect("comb corridor is a simple polygon")
}

/// Door position placeholder for up doors (lobby centres per side index).
fn b_partition_center(cfg: &MallConfig, lobby_index: usize) -> Point {
    let m = cfg.margin();
    let side = cfg.floor_side;
    let mid = side / 2.0;
    match lobby_index {
        0 => Point::new(m - 46.0, mid),        // west
        1 => Point::new(side - m + 46.0, mid), // east
        2 => Point::new(mid, m - 46.0),        // south
        _ => Point::new(mid, side - m + 46.0), // north
    }
}

#[expect(
    clippy::needless_range_loop,
    reason = "2-D grid wiring reads naturally with (k, l) indices"
)]
fn build_floor(
    b: &mut VenueBuilder,
    cfg: &MallConfig,
    hours: &ShopHours,
    rng: &mut StdRng,
    floor: FloorId,
    half_w: f64,
) -> FloorParts {
    let g = cfg.grid;
    let f = floor.0;
    let shop_atis = |rng: &mut StdRng| -> AtiList {
        if cfg.variation_ratio >= 1.0 || rng.random_range(0.0..1.0) < cfg.variation_ratio {
            hours.random_atis(rng)
        } else {
            AtiList::always_open()
        }
    };

    // --- Hallway cells -----------------------------------------------------
    let mut intersections = vec![vec![PartitionId(0); g]; g];
    for k in 0..g {
        for l in 0..g {
            let (x, y) = (cfg.line(k), cfg.line(l));
            let rect = Rect::with_size(
                Point::new(x - half_w, y - half_w),
                cfg.corridor_width,
                cfg.corridor_width,
            );
            intersections[k][l] = b.add_partition_on(
                &format!("F{f}/hall({k},{l})"),
                PartitionKind::Public,
                floor,
                Some(rect.to_polygon()),
            );
        }
    }
    let mut h_segments = vec![vec![PartitionId(0); g]; g.saturating_sub(1)];
    for k in 0..g - 1 {
        for l in 0..g {
            let (x0, x1, y) = (cfg.line(k), cfg.line(k + 1), cfg.line(l));
            let rect = Rect::with_size(
                Point::new(x0 + half_w, y - half_w),
                x1 - x0 - cfg.corridor_width,
                cfg.corridor_width,
            );
            h_segments[k][l] = b.add_partition_on(
                &format!("F{f}/hseg({k},{l})"),
                PartitionKind::Public,
                floor,
                Some(rect.to_polygon()),
            );
        }
    }
    let mut v_segments = vec![vec![PartitionId(0); g.saturating_sub(1)]; g];
    for k in 0..g {
        for l in 0..g - 1 {
            let (x, y0, y1) = (cfg.line(k), cfg.line(l), cfg.line(l + 1));
            let rect = Rect::with_size(
                Point::new(x - half_w, y0 + half_w),
                cfg.corridor_width,
                y1 - y0 - cfg.corridor_width,
            );
            v_segments[k][l] = b.add_partition_on(
                &format!("F{f}/vseg({k},{l})"),
                PartitionKind::Public,
                floor,
                Some(rect.to_polygon()),
            );
        }
    }

    // Virtual doors between segments and their two intersections.
    for k in 0..g - 1 {
        for l in 0..g {
            let y = cfg.line(l);
            let d_w = b.add_door_on(
                &format!("F{f}/vd/hseg({k},{l})w"),
                DoorKind::Public,
                AtiList::always_open(),
                Point::new(cfg.line(k) + half_w, y),
                floor,
            );
            #[expect(
                clippy::expect_used,
                reason = "hallway doors connect freshly created grid partitions"
            )]
            b.connect(
                d_w,
                Connection::TwoWay(intersections[k][l], h_segments[k][l]),
            )
            .expect("hallway wiring");
            let d_e = b.add_door_on(
                &format!("F{f}/vd/hseg({k},{l})e"),
                DoorKind::Public,
                AtiList::always_open(),
                Point::new(cfg.line(k + 1) - half_w, y),
                floor,
            );
            #[expect(
                clippy::expect_used,
                reason = "hallway doors connect freshly created grid partitions"
            )]
            b.connect(
                d_e,
                Connection::TwoWay(h_segments[k][l], intersections[k + 1][l]),
            )
            .expect("hallway wiring");
        }
    }
    for k in 0..g {
        for l in 0..g - 1 {
            let x = cfg.line(k);
            let d_s = b.add_door_on(
                &format!("F{f}/vd/vseg({k},{l})s"),
                DoorKind::Public,
                AtiList::always_open(),
                Point::new(x, cfg.line(l) + half_w),
                floor,
            );
            #[expect(
                clippy::expect_used,
                reason = "hallway doors connect freshly created grid partitions"
            )]
            b.connect(
                d_s,
                Connection::TwoWay(intersections[k][l], v_segments[k][l]),
            )
            .expect("hallway wiring");
            let d_n = b.add_door_on(
                &format!("F{f}/vd/vseg({k},{l})n"),
                DoorKind::Public,
                AtiList::always_open(),
                Point::new(x, cfg.line(l + 1) - half_w),
                floor,
            );
            #[expect(
                clippy::expect_used,
                reason = "hallway doors connect freshly created grid partitions"
            )]
            b.connect(
                d_n,
                Connection::TwoWay(v_segments[k][l], intersections[k][l + 1]),
            )
            .expect("hallway wiring");
        }
    }

    // --- Inner blocks: service corridor + shop rows ------------------------
    let blocks = (g - 1) * (g - 1);
    let mut per_block = vec![0usize; blocks];
    for i in 0..cfg.inner_shops {
        per_block[i % blocks] += 1;
    }
    let mut block_idx = 0;
    for i in 0..g - 1 {
        for j in 0..g - 1 {
            let n_shops = per_block[block_idx];
            block_idx += 1;
            if n_shops == 0 {
                continue;
            }
            let x0 = cfg.line(i) + half_w;
            let x1 = cfg.line(i + 1) - half_w;
            let y0 = cfg.line(j) + half_w;
            let y1 = cfg.line(j + 1) - half_w;
            let width = x1 - x0;
            let height = y1 - y0;
            let row_h = height * 140.0 / 330.0;

            let north = n_shops.div_ceil(2);
            let south = n_shops - north;
            let row_centers = |count: usize| -> Vec<f64> {
                let w = width / count as f64;
                (0..count).map(|s| x0 + w * s as f64 + w / 2.0).collect()
            };
            let north_cx = if north > 0 {
                row_centers(north)
            } else {
                Vec::new()
            };
            let south_cx = if south > 0 {
                row_centers(south)
            } else {
                Vec::new()
            };
            let service_poly = match cfg.corridor_shape {
                CorridorShape::Band => {
                    Rect::with_size(Point::new(x0, y0 + row_h), width, height - 2.0 * row_h)
                        .to_polygon()
                }
                CorridorShape::Comb => {
                    comb_corridor_polygon(x0, x1, y0 + row_h, y1 - row_h, &south_cx, &north_cx)
                }
            };
            let service = b.add_partition_on(
                &format!("F{f}/service({i},{j})"),
                PartitionKind::Private,
                floor,
                Some(service_poly),
            );

            let mut shop_no = 0;
            for (row, count) in [(0usize, north), (1usize, south)] {
                if count == 0 {
                    continue;
                }
                let w = width / count as f64;
                for s in 0..count {
                    let sx0 = x0 + w * s as f64;
                    let (sy0, front_y, back_y, front_hall) = if row == 0 {
                        // North row: front door up to hseg(i, j+1).
                        (y1 - row_h, y1, y1 - row_h, h_segments[i][j + 1])
                    } else {
                        // South row: front door down to hseg(i, j).
                        (y0, y0, y0 + row_h, h_segments[i][j])
                    };
                    let shop = b.add_partition_on(
                        &format!("F{f}/shop({i},{j})#{shop_no}"),
                        PartitionKind::Public,
                        floor,
                        Some(Rect::with_size(Point::new(sx0, sy0), w, row_h).to_polygon()),
                    );
                    shop_no += 1;
                    // Same value as `sx0 + w / 2.0`; the precomputed centres
                    // are what the comb corridor's stubs were placed on.
                    let cx = if row == 0 { north_cx[s] } else { south_cx[s] };
                    let front = b.add_door_on(
                        &format!("F{f}/shop({i},{j})#{}/front", shop_no - 1),
                        DoorKind::Public,
                        shop_atis(rng),
                        Point::new(cx, front_y),
                        floor,
                    );
                    #[expect(
                        clippy::expect_used,
                        reason = "shop doors connect freshly created shop and hall partitions"
                    )]
                    b.connect(front, Connection::TwoWay(shop, front_hall))
                        .expect("shop wiring");
                    let back = b.add_door_on(
                        &format!("F{f}/shop({i},{j})#{}/back", shop_no - 1),
                        DoorKind::Private,
                        shop_atis(rng),
                        Point::new(cx, back_y),
                        floor,
                    );
                    #[expect(
                        clippy::expect_used,
                        reason = "shop doors connect freshly created shop and hall partitions"
                    )]
                    b.connect(back, Connection::TwoWay(shop, service))
                        .expect("shop wiring");
                }
            }
        }
    }

    // --- Outer shops (front door only) -------------------------------------
    // Two per side, attached to outermost segments.
    let m = cfg.margin();
    let depth = (m - half_w).min(80.0);
    let mid_slot_for_lobbies = (g - 1) / 2;
    let mut outer = 0usize;
    'outer: for side in 0..4 {
        for slot in 0..g - 1 {
            if outer >= cfg.outer_shops {
                break 'outer;
            }
            // The middle slot of every side hosts a stair lobby.
            if slot == mid_slot_for_lobbies {
                continue;
            }
            let cmid = (cfg.line(slot) + cfg.line(slot + 1)) / 2.0;
            let w = 100.0_f64.min(cfg.spacing() / 2.0);
            let (rect, door_pos, hall) = match side {
                0 => {
                    // South: below hseg(slot, 0).
                    let y = cfg.line(0) - half_w;
                    (
                        Rect::with_size(Point::new(cmid - w / 2.0, y - depth), w, depth),
                        Point::new(cmid, y),
                        h_segments[slot][0],
                    )
                }
                1 => {
                    // North: above hseg(slot, g-1).
                    let y = cfg.line(g - 1) + half_w;
                    (
                        Rect::with_size(Point::new(cmid - w / 2.0, y), w, depth),
                        Point::new(cmid, y),
                        h_segments[slot][g - 1],
                    )
                }
                2 => {
                    // West: left of vseg(0, slot).
                    let x = cfg.line(0) - half_w;
                    (
                        Rect::with_size(Point::new(x - depth, cmid - w / 2.0), depth, w),
                        Point::new(x, cmid),
                        v_segments[0][slot],
                    )
                }
                _ => {
                    // East: right of vseg(g-1, slot).
                    let x = cfg.line(g - 1) + half_w;
                    (
                        Rect::with_size(Point::new(x, cmid - w / 2.0), depth, w),
                        Point::new(x, cmid),
                        v_segments[g - 1][slot],
                    )
                }
            };
            let shop = b.add_partition_on(
                &format!("F{f}/outer#{outer}"),
                PartitionKind::Public,
                floor,
                Some(rect.to_polygon()),
            );
            let front = b.add_door_on(
                &format!("F{f}/outer#{outer}/front"),
                DoorKind::Public,
                shop_atis(rng),
                door_pos,
                floor,
            );
            #[expect(
                clippy::expect_used,
                reason = "outer shop doors connect freshly created partitions"
            )]
            b.connect(front, Connection::TwoWay(shop, hall))
                .expect("outer shop wiring");
            outer += 1;
        }
    }
    assert_eq!(
        outer, cfg.outer_shops,
        "outer-shop slots exhausted; reduce outer_shops"
    );

    // --- Stair lobbies ------------------------------------------------------
    let mid_slot = (g - 1) / 2;
    let lobby_specs: [(Point, Point, PartitionId); 4] = {
        let mid = |a: usize| (cfg.line(a) + cfg.line(a + 1)) / 2.0;
        [
            // West lobby at vseg(0, mid).
            (
                Point::new(cfg.line(0) - half_w - 80.0, mid(mid_slot) - 40.0),
                Point::new(cfg.line(0) - half_w, mid(mid_slot)),
                v_segments[0][mid_slot],
            ),
            // East lobby at vseg(g-1, mid).
            (
                Point::new(cfg.line(g - 1) + half_w, mid(mid_slot) - 40.0),
                Point::new(cfg.line(g - 1) + half_w, mid(mid_slot)),
                v_segments[g - 1][mid_slot],
            ),
            // South lobby at hseg(mid, 0).
            (
                Point::new(mid(mid_slot) - 40.0, cfg.line(0) - half_w - 80.0),
                Point::new(mid(mid_slot), cfg.line(0) - half_w),
                h_segments[mid_slot][0],
            ),
            // North lobby at hseg(mid, g-1).
            (
                Point::new(mid(mid_slot) - 40.0, cfg.line(g - 1) + half_w),
                Point::new(mid(mid_slot), cfg.line(g - 1) + half_w),
                h_segments[mid_slot][g - 1],
            ),
        ]
    };
    let mut lobbies = Vec::with_capacity(4);
    let mut lobby_doors = Vec::with_capacity(4);
    for (li, (origin, door_pos, hall)) in lobby_specs.into_iter().enumerate() {
        let lobby = b.add_partition_on(
            &format!("F{f}/stair{li}"),
            PartitionKind::Public,
            floor,
            Some(Rect::with_size(origin, 80.0, 80.0).to_polygon()),
        );
        let d = b.add_door_on(
            &format!("F{f}/stair{li}/door"),
            DoorKind::Public,
            AtiList::always_open(),
            door_pos,
            floor,
        );
        #[expect(
            clippy::expect_used,
            reason = "lobby doors connect freshly created partitions"
        )]
        b.connect(d, Connection::TwoWay(lobby, hall))
            .expect("lobby wiring");
        lobbies.push(lobby);
        lobby_doors.push(d);
    }

    FloorParts {
        lobbies,
        lobby_doors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HoursConfig;

    fn hours() -> ShopHours {
        ShopHours::sample(&HoursConfig::default())
    }

    #[test]
    fn paper_default_matches_reported_counts() {
        let space = build_mall(&MallConfig::paper_default(), &hours());
        let stats = space.stats();
        assert_eq!(stats.partitions, 705, "paper: 705 partitions");
        assert_eq!(stats.doors, 1120, "paper: 1120 doors");
        assert_eq!(stats.floors, 5);
    }

    #[test]
    fn single_floor_matches_reported_counts() {
        let space = build_mall(&MallConfig::single_floor(), &hours());
        let stats = space.stats();
        assert_eq!(stats.partitions, 141, "paper: 141 partitions per floor");
        assert_eq!(stats.doors, 224, "paper: 224 doors per floor");
    }

    #[test]
    fn composition_per_floor() {
        let space = build_mall(&MallConfig::single_floor(), &hours());
        let stats = space.stats();
        // 9 private service corridors; 80 private back doors + 1 roof door.
        assert_eq!(stats.private_partitions, 9);
        assert_eq!(stats.private_doors, 80 + 4);
        // Varying doors: 88 fronts + 80 backs.
        assert_eq!(stats.doors_with_variation, 168);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = MallConfig::single_floor();
        let a = build_mall(&cfg, &hours());
        let b = build_mall(&cfg, &hours());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = MallConfig::single_floor();
        let a = build_mall(
            &cfg,
            &ShopHours::sample(&HoursConfig::default().with_seed(1)),
        );
        let b = build_mall(
            &cfg,
            &ShopHours::sample(&HoursConfig::default().with_seed(2)),
        );
        assert_ne!(a, b);
    }

    #[test]
    fn tiny_config_builds() {
        let space = build_mall(&MallConfig::tiny(), &hours());
        assert!(space.num_partitions() > 0);
        assert!(space.num_doors() > 0);
    }

    #[test]
    fn comb_corridors_keep_paper_counts() {
        let cfg = MallConfig::single_floor().with_comb_corridors();
        let space = build_mall(&cfg, &hours());
        let stats = space.stats();
        assert_eq!(stats.partitions, 141, "comb changes shapes, not counts");
        assert_eq!(stats.doors, 224);
        assert_eq!(stats.private_partitions, 9);
    }

    #[test]
    fn comb_corridors_force_real_geodesics() {
        let cfg = MallConfig::tiny().with_comb_corridors();
        let space = build_mall(&cfg, &hours());
        let service = space
            .partitions()
            .iter()
            .find(|p| p.name.starts_with("F0/service"))
            .expect("tiny mall has a service corridor");
        assert!(
            !service.polygon.as_ref().unwrap().is_convex(),
            "comb corridor must be non-convex"
        );
        let doors = space.p2d(service.id);
        assert!(doors.len() >= 2);
        // Back doors sit on stub tips: the interior walk between two stubs
        // strictly exceeds the straight line through the walls.
        let (a, b) = (doors[0], doors[1]);
        let direct = space.door(a).position.distance(space.door(b).position);
        let walked = space.door_to_door(service.id, a, b).unwrap();
        assert!(
            walked > direct + 1.0,
            "expected a detour: walked {walked}, direct {direct}"
        );
    }

    #[test]
    fn comb_mall_pipelines_agree_exactly() {
        let cfg = MallConfig::tiny().with_comb_corridors();
        let h = hours();
        let fast = mall_builder(&cfg, &h).build().unwrap();
        let threaded = mall_builder(&cfg, &h).build_with_workers(4).unwrap();
        let slow = mall_builder(&cfg, &h).build_sequential().unwrap();
        assert_eq!(fast, slow, "fast pipeline diverged from reference");
        assert_eq!(threaded, slow, "worker count changed the output");
    }

    #[test]
    fn comb_door_positions_lie_on_their_partitions() {
        let cfg = MallConfig::tiny().with_comb_corridors();
        let space = build_mall(&cfg, &hours());
        for p in space.partitions() {
            let poly = p.polygon.as_ref().unwrap();
            for &d in space.p2d(p.id) {
                let rec = space.door(d);
                assert!(
                    poly.contains(rec.position),
                    "door {} at {} outside partition {}",
                    rec.name,
                    rec.position,
                    p.name
                );
            }
        }
    }

    #[test]
    fn stairways_cost_20m_between_floors() {
        let cfg = MallConfig::paper_default().with_floors(2);
        let space = build_mall(&cfg, &hours());
        // Find floor 0's west lobby and its two doors.
        let lobby = space
            .partitions()
            .iter()
            .find(|p| p.name == "F0/stair0")
            .expect("lobby exists");
        let doors = space.p2d(lobby.id);
        assert_eq!(doors.len(), 2, "lobby has hallway door + up door");
        let dm = space.distance_matrix(lobby.id);
        let total: f64 = dm.distance(doors[0], doors[1]).unwrap();
        assert!(
            (total - 10.0).abs() < 1e-9,
            "half-flight is 10 m, got {total}"
        );
    }

    #[test]
    fn roof_doors_are_locked() {
        let space = build_mall(&MallConfig::single_floor(), &hours());
        let roof: Vec<_> = space
            .doors()
            .iter()
            .filter(|d| d.name.ends_with("/up"))
            .collect();
        assert_eq!(roof.len(), 4);
        assert!(roof.iter().all(|d| d.atis.is_never_open()));
        assert!(roof.iter().all(|d| d.kind == DoorKind::Private));
    }

    #[test]
    fn hallways_are_always_open() {
        let space = build_mall(&MallConfig::single_floor(), &hours());
        for d in space.doors() {
            if d.name.contains("/vd/") || d.name.ends_with("/door") {
                assert!(
                    d.atis.is_always_open(),
                    "hallway door {} must stay open",
                    d.name
                );
            }
        }
    }

    #[test]
    fn every_partition_has_polygon_and_doors() {
        let space = build_mall(&MallConfig::single_floor(), &hours());
        for p in space.partitions() {
            assert!(p.polygon.is_some(), "{} lacks a polygon", p.name);
            assert!(!space.p2d(p.id).is_empty(), "{} has no doors", p.name);
        }
    }

    #[test]
    fn door_positions_lie_on_their_partitions() {
        let space = build_mall(&MallConfig::single_floor(), &hours());
        for p in space.partitions() {
            let poly = p.polygon.as_ref().unwrap();
            for &d in space.p2d(p.id) {
                let rec = space.door(d);
                // Up/roof doors sit at lobby centres; all others on boundaries.
                assert!(
                    poly.contains(rec.position),
                    "door {} at {} outside partition {}",
                    rec.name,
                    rec.position,
                    p.name
                );
            }
        }
    }
}
