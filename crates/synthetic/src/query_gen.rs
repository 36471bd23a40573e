//! Query-instance generation controlled by `δs2t`.
//!
//! Following §III-1 of the paper: pick a random start point `ps`, find a door
//! whose temporal-oblivious indoor distance from `ps` approximates `δs2t`,
//! then expand through that door to a random target point `pt` whose indoor
//! distance from `ps` approaches `δs2t`. Five `(ps, pt)` pairs are generated
//! per setting by default, with `t` fixed (12:00 unless configured).

use indoor_geom::Point;
use indoor_space::{DoorId, IndoorPoint, PartitionId, PartitionKind};
use indoor_time::TimeOfDay;
use itspq_core::{baselines, ItGraph, Query};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How query start points are distributed across the venue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceDistribution {
    /// A fresh uniform-random start point per query (the paper's §III-1
    /// setup).
    Uniform,
    /// Start points drawn from a fixed pool of popular locations with
    /// zipf-shaped popularity: pool rank `k` is chosen with probability
    /// proportional to `1 / (k + 1)^exponent`.
    ///
    /// Repeated draws of a rank return the *bit-identical* point (mall
    /// entrances, food courts — the heavy hitters of production traffic), so
    /// skewed batches contain exact-duplicate sources and form shareable
    /// groups for `VenueServer`'s shared batch execution.
    Zipf {
        /// Skew exponent `s ≥ 0` (0 = uniform over the pool; production
        /// traffic studies typically fit 0.6–1.5).
        exponent: f64,
        /// Number of distinct popular start points (≥ 1).
        pool: usize,
    },
    /// Like [`SourceDistribution::Zipf`], but each draw yields a *fresh*
    /// random point inside the ranked anchor's partition instead of the
    /// anchor point itself: sources cluster by partition without being
    /// bit-identical, so a `VenueServer` batch, which groups by source
    /// point, runs each of them as a search of its own.
    ZipfNear {
        /// Skew exponent `s ≥ 0` over the anchor ranks.
        exponent: f64,
        /// Number of distinct popular partitions (≥ 1, via anchor points).
        pool: usize,
    },
}

/// How query departure times are distributed across the day.
///
/// The temporal mirror of [`SourceDistribution`]: production request streams
/// cluster in time (lunch rush, closing time) exactly as they cluster in
/// space, and that clustering is what makes `VenueServer`'s door-level and
/// interval-coalescing batch strategies pay off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeDistribution {
    /// Every query departs at [`QueryGenConfig::time`] (the paper's §III-1
    /// setup: `t` fixed per experiment).
    Fixed,
    /// Departure times drawn from a fixed pool of popular instants with
    /// zipf-shaped popularity, each draw jittered forward by up to
    /// `spread_secs`.
    ///
    /// With `spread_secs = 0` repeated draws of a rank are *bit-identical*
    /// (exact-key groups); with a small spread the draws stay inside one
    /// checkpoint interval with high probability (interval-level groups).
    HotSpots {
        /// Skew exponent `s ≥ 0` over the pool ranks, as in
        /// [`SourceDistribution::Zipf`].
        exponent: f64,
        /// Number of distinct popular instants (≥ 1).
        pool: usize,
        /// Maximum forward jitter in seconds added to a drawn instant
        /// (clamped so times stay within the day).
        spread_secs: f64,
    },
}

/// Parameters of query generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryGenConfig {
    /// Target indoor distance `δs2t` between `ps` and `pt` in metres
    /// (paper: 1100–1900, default 1500).
    pub delta_s2t: f64,
    /// Number of query instances (paper: 5 per setting).
    pub count: usize,
    /// The query time `t` (paper default 12:00).
    pub time: TimeOfDay,
    /// Relative tolerance on the realised distance (default 10 %).
    pub tolerance: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// How start points are distributed (default: uniform, as in the paper).
    pub source: SourceDistribution,
    /// How departure times are distributed (default: fixed at `time`).
    pub times: TimeDistribution,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            delta_s2t: 1500.0,
            count: 5,
            time: TimeOfDay::hm(12, 0),
            tolerance: 0.10,
            seed: 0x9E0_5EED,
            source: SourceDistribution::Uniform,
            times: TimeDistribution::Fixed,
        }
    }
}

impl QueryGenConfig {
    /// Returns a copy with the given `δs2t`.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta_s2t = delta;
        self
    }

    /// Returns a copy with the given query time.
    #[must_use]
    pub fn with_time(mut self, time: TimeOfDay) -> Self {
        self.time = time;
        self
    }

    /// Returns a copy with the given instance count.
    #[must_use]
    pub fn with_count(mut self, count: usize) -> Self {
        self.count = count;
        self
    }

    /// Returns a copy with the given seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the given source distribution.
    #[must_use]
    pub fn with_source(mut self, source: SourceDistribution) -> Self {
        self.source = source;
        self
    }

    /// Returns a copy with the given departure-time distribution.
    #[must_use]
    pub fn with_times(mut self, times: TimeDistribution) -> Self {
        self.times = times;
        self
    }
}

/// A generated query plus the realised (temporal-oblivious) distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratedQuery {
    /// The ITSPQ query instance.
    pub query: Query,
    /// The temporal-oblivious indoor distance from `ps` to `pt` actually
    /// achieved (within tolerance of `δs2t`).
    pub realised_distance: f64,
}

/// Generates `cfg.count` query instances on the venue underlying `graph`.
///
/// # Panics
/// Panics if the venue has no public partitions with polygons, or if no
/// instance within tolerance can be found after a bounded number of attempts
/// (pick a `δs2t` compatible with the venue diameter).
#[must_use]
pub fn generate_queries(graph: &ItGraph, cfg: &QueryGenConfig) -> Vec<GeneratedQuery> {
    let space = graph.space();
    let candidates: Vec<PartitionId> = space
        .partitions()
        .iter()
        .filter(|p| p.kind == PartitionKind::Public && p.polygon.is_some())
        .map(|p| p.id)
        .collect();
    assert!(
        !candidates.is_empty(),
        "venue has no public partitions with polygons"
    );

    // For zipf-skewed sources: a fixed pool of popular points plus the
    // cumulative rank weights Σ 1/(k+1)^s, both deterministic per seed.
    let (pool_points, zipf_cum) = match cfg.source {
        SourceDistribution::Uniform => (Vec::new(), Vec::new()),
        SourceDistribution::Zipf { exponent, pool }
        | SourceDistribution::ZipfNear { exponent, pool } => {
            assert!(pool >= 1, "zipf pool must hold at least one point");
            assert!(
                exponent >= 0.0 && exponent.is_finite(),
                "zipf exponent must be finite and non-negative"
            );
            let mut points = Vec::with_capacity(pool);
            let mut draw = 0u64;
            while points.len() < pool {
                assert!(
                    draw < 64 * pool as u64,
                    "could not populate a {pool}-point source pool"
                );
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x5EED_F00D + draw));
                draw += 1;
                let part = candidates[rng.random_range(0..candidates.len())];
                if let Some(pos) = random_point_in(space, part, &mut rng) {
                    points.push(IndoorPoint::new(part, pos));
                }
            }
            let mut cum = Vec::with_capacity(pool);
            let mut total = 0.0;
            for k in 0..pool {
                total += ((k + 1) as f64).powf(-exponent);
                cum.push(total);
            }
            (points, cum)
        }
    };

    // For hot-spot departure times: a fixed pool of popular instants plus
    // cumulative zipf rank weights, mirroring the source pool above.
    let (hot_times, time_cum) = match cfg.times {
        TimeDistribution::Fixed => (Vec::new(), Vec::new()),
        TimeDistribution::HotSpots {
            exponent,
            pool,
            spread_secs,
        } => {
            assert!(pool >= 1, "hot-spot pool must hold at least one instant");
            assert!(
                exponent >= 0.0 && exponent.is_finite(),
                "hot-spot exponent must be finite and non-negative"
            );
            assert!(
                spread_secs >= 0.0 && spread_secs.is_finite(),
                "hot-spot spread must be finite and non-negative"
            );
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7157_0CC5);
            let limit = (86_400.0 - spread_secs).max(0.0);
            let times: Vec<f64> = (0..pool).map(|_| rng.random_range(0.0..=limit)).collect();
            let mut cum = Vec::with_capacity(pool);
            let mut total = 0.0;
            for k in 0..pool {
                total += ((k + 1) as f64).powf(-exponent);
                cum.push(total);
            }
            (times, cum)
        }
    };

    let mut out = Vec::with_capacity(cfg.count);
    let mut attempt = 0u64;
    while out.len() < cfg.count {
        assert!(
            attempt < 200 + 40 * cfg.count as u64,
            "could not realise δs2t = {} on this venue (diameter too small?)",
            cfg.delta_s2t
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0xA11CE + attempt));
        attempt += 1;

        // 1. A start point: fresh uniform draw, or a zipf-ranked pool member.
        let ps = match cfg.source {
            SourceDistribution::Uniform => {
                let ps_part = candidates[rng.random_range(0..candidates.len())];
                let Some(ps_pos) = random_point_in(space, ps_part, &mut rng) else {
                    continue;
                };
                IndoorPoint::new(ps_part, ps_pos)
            }
            SourceDistribution::Zipf { .. } | SourceDistribution::ZipfNear { .. } => {
                #[expect(
                    clippy::expect_used,
                    reason = "the Zipf/ZipfNear arm above asserts pool >= 1 and pushes exactly one cumulative weight per rank"
                )]
                let total = *zipf_cum.last().expect("non-empty pool");
                let u = rng.random_range(0.0..total);
                let rank = zipf_cum
                    .partition_point(|&c| c <= u)
                    .min(pool_points.len() - 1);
                let anchor = pool_points[rank];
                if matches!(cfg.source, SourceDistribution::Zipf { .. }) {
                    anchor
                } else {
                    // ZipfNear: a fresh point in the anchor's partition.
                    match random_point_in(space, anchor.partition, &mut rng) {
                        Some(pos) => IndoorPoint::new(anchor.partition, pos),
                        None => anchor,
                    }
                }
            }
        };

        // 2. Temporal-oblivious distances from ps to every door; pick the
        //    door closest to δs2t.
        let dist = baselines::door_distances(graph, &ps);
        let Some((door_idx, &door_dist)) = dist
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_finite())
            .min_by(|(_, a), (_, b)| {
                let da = (*a - cfg.delta_s2t).abs();
                let db = (*b - cfg.delta_s2t).abs();
                da.total_cmp(&db)
            })
        else {
            continue;
        };
        if (door_dist - cfg.delta_s2t).abs() > cfg.tolerance * cfg.delta_s2t {
            continue;
        }
        let door = DoorId::from_index(door_idx);

        // 3. Expand through that door: sample points in its enterable
        //    partitions and keep the one whose exact indoor distance best
        //    approaches δs2t.
        let mut best: Option<(IndoorPoint, f64)> = None;
        for &v in space.d2p_enterable(door) {
            if space.partition(v).polygon.is_none() {
                continue;
            }
            for _ in 0..12 {
                let Some(pos) = random_point_in(space, v, &mut rng) else {
                    continue;
                };
                let pt = IndoorPoint::new(v, pos);
                // Exact temporal-oblivious distance to pt: best entry door.
                let d_pt = space
                    .p2d_enterable(v)
                    .iter()
                    .filter_map(|&d| {
                        let to_door = dist[d.index()];
                        let leg = space.point_to_door(&pt, d)?;
                        to_door.is_finite().then_some(to_door + leg)
                    })
                    .fold(f64::INFINITY, f64::min);
                if !d_pt.is_finite() {
                    continue;
                }
                let gap = (d_pt - cfg.delta_s2t).abs();
                if best
                    .as_ref()
                    .is_none_or(|(_, bd)| gap < (bd - cfg.delta_s2t).abs())
                {
                    best = Some((pt, d_pt));
                }
            }
        }
        let Some((pt, realised)) = best else { continue };
        if (realised - cfg.delta_s2t).abs() > cfg.tolerance * cfg.delta_s2t {
            continue;
        }
        if pt.partition == ps.partition {
            continue;
        }
        // 4. A departure time: the fixed `t`, or a zipf-ranked hot instant
        //    with forward jitter (bit-identical repeats when the spread is 0).
        let time = match cfg.times {
            TimeDistribution::Fixed => cfg.time,
            TimeDistribution::HotSpots { spread_secs, .. } => {
                #[expect(
                    clippy::expect_used,
                    reason = "the HotSpots arm above asserts pool >= 1 and pushes exactly one cumulative weight per rank"
                )]
                let total = *time_cum.last().expect("non-empty pool");
                let u = rng.random_range(0.0..total);
                let rank = time_cum
                    .partition_point(|&c| c <= u)
                    .min(hot_times.len() - 1);
                let base = hot_times[rank];
                let secs = if spread_secs > 0.0 {
                    base + rng.random_range(0.0..spread_secs)
                } else {
                    base
                };
                // In range by construction (base ≤ 86 400 − spread); the
                // fallback only guards float pathology.
                TimeOfDay::from_seconds(secs.min(86_400.0)).unwrap_or(cfg.time)
            }
        };
        out.push(GeneratedQuery {
            query: Query::new(ps, pt, time),
            realised_distance: realised,
        });
    }
    out
}

/// A pseudo-random point inside partition `v`, or `None` when the partition
/// carries no polygon (such partitions are skipped by the callers).
fn random_point_in(
    space: &indoor_space::IndoorSpace,
    v: PartitionId,
    rng: &mut StdRng,
) -> Option<Point> {
    let poly = space.partition(v).polygon.as_ref()?;
    let (min, max) = poly.bounding_box();
    // Rejection sampling; generated partitions are rectangles, so the first
    // draw almost always lands inside.
    for _ in 0..64 {
        let p = Point::new(
            rng.random_range(min.x..=max.x),
            rng.random_range(min.y..=max.y),
        );
        if poly.contains(p) {
            return Some(p);
        }
    }
    Some(poly.centroid())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_mall, HoursConfig, MallConfig, ShopHours};

    fn mall_graph() -> ItGraph {
        let hours = ShopHours::sample(&HoursConfig::default());
        ItGraph::new(build_mall(&MallConfig::single_floor(), &hours))
    }

    #[test]
    fn generates_requested_count_within_tolerance() {
        let graph = mall_graph();
        let cfg = QueryGenConfig::default().with_delta(1500.0).with_count(5);
        let queries = generate_queries(&graph, &cfg);
        assert_eq!(queries.len(), 5);
        for gq in &queries {
            let gap = (gq.realised_distance - 1500.0).abs();
            assert!(
                gap <= 150.0,
                "realised {} too far from 1500",
                gq.realised_distance
            );
            assert_eq!(gq.query.time, TimeOfDay::hm(12, 0));
            assert_ne!(gq.query.source.partition, gq.query.target.partition);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let graph = mall_graph();
        let cfg = QueryGenConfig::default().with_count(3);
        let a = generate_queries(&graph, &cfg);
        let b = generate_queries(&graph, &cfg);
        assert_eq!(a, b);
        let c = generate_queries(&graph, &cfg.with_seed(7));
        assert_ne!(a, c);
    }

    #[test]
    fn distances_sweep_like_the_paper() {
        let graph = mall_graph();
        for delta in [1100.0, 1300.0, 1500.0, 1700.0, 1900.0] {
            let cfg = QueryGenConfig::default().with_delta(delta).with_count(2);
            let queries = generate_queries(&graph, &cfg);
            assert_eq!(queries.len(), 2, "δ = {delta}");
            for gq in &queries {
                assert!((gq.realised_distance - delta).abs() <= 0.1 * delta);
            }
        }
    }

    #[test]
    fn zipf_sources_repeat_bit_identically_and_skew() {
        let graph = mall_graph();
        let cfg = QueryGenConfig::default()
            .with_count(16)
            .with_source(SourceDistribution::Zipf {
                exponent: 1.5,
                pool: 6,
            });
        let queries = generate_queries(&graph, &cfg);
        assert_eq!(queries.len(), 16);

        // Count queries per exact source bit pattern.
        let mut counts: Vec<((u64, u64), usize)> = Vec::new();
        for gq in &queries {
            let key = (
                gq.query.source.position.x.to_bits(),
                gq.query.source.position.y.to_bits(),
            );
            match counts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, c)) => *c += 1,
                None => counts.push((key, 1)),
            }
        }
        // Skew shape: far fewer distinct sources than queries, and the
        // heaviest source dominates (zipf s = 1.5 puts > 55 % of the mass on
        // rank 0 of a 6-point pool).
        assert!(
            counts.len() < queries.len(),
            "zipf sources must repeat bit-identically"
        );
        let heaviest = counts.iter().map(|&(_, c)| c).max().unwrap();
        assert!(
            heaviest >= queries.len() / 4,
            "rank-0 source should dominate, saw max multiplicity {heaviest}"
        );
    }

    #[test]
    fn zipf_generation_is_deterministic_per_seed() {
        let graph = mall_graph();
        let zipf = SourceDistribution::Zipf {
            exponent: 1.2,
            pool: 4,
        };
        let cfg = QueryGenConfig::default().with_count(6).with_source(zipf);
        let a = generate_queries(&graph, &cfg);
        let b = generate_queries(&graph, &cfg);
        assert_eq!(a, b);
        let c = generate_queries(&graph, &cfg.with_seed(99));
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_near_sources_cluster_by_partition_not_by_point() {
        let graph = mall_graph();
        let cfg =
            QueryGenConfig::default()
                .with_count(12)
                .with_source(SourceDistribution::ZipfNear {
                    exponent: 1.5,
                    pool: 3,
                });
        let queries = generate_queries(&graph, &cfg);
        let mut parts: Vec<PartitionId> = Vec::new();
        let mut points: Vec<(u64, u64)> = Vec::new();
        for gq in &queries {
            let p = gq.query.source.partition;
            if !parts.contains(&p) {
                parts.push(p);
            }
            let key = (
                gq.query.source.position.x.to_bits(),
                gq.query.source.position.y.to_bits(),
            );
            if !points.contains(&key) {
                points.push(key);
            }
        }
        assert!(
            parts.len() <= 3,
            "sources come from at most `pool` partitions"
        );
        assert!(
            points.len() > parts.len(),
            "near-draws must yield multiple distinct points per partition"
        );
        // Determinism, as for the other distributions.
        assert_eq!(queries, generate_queries(&graph, &cfg));
    }

    #[test]
    fn hot_spot_times_repeat_bit_identically_without_spread() {
        let graph = mall_graph();
        let cfg = QueryGenConfig::default()
            .with_count(12)
            .with_times(TimeDistribution::HotSpots {
                exponent: 1.5,
                pool: 3,
                spread_secs: 0.0,
            });
        let queries = generate_queries(&graph, &cfg);
        let mut counts: Vec<(u64, usize)> = Vec::new();
        for gq in &queries {
            let key = gq.query.time.seconds().to_bits();
            match counts.iter_mut().find(|(k, _)| *k == key) {
                Some((_, c)) => *c += 1,
                None => counts.push((key, 1)),
            }
        }
        assert!(counts.len() <= 3, "at most one time per pool rank");
        let heaviest = counts.iter().map(|&(_, c)| c).max().unwrap();
        assert!(
            heaviest >= queries.len() / 3,
            "rank-0 instant should dominate, saw max multiplicity {heaviest}"
        );
    }

    #[test]
    fn hot_spot_times_cluster_within_spread() {
        let graph = mall_graph();
        let spread = 600.0;
        let cfg = QueryGenConfig::default()
            .with_count(10)
            .with_times(TimeDistribution::HotSpots {
                exponent: 1.2,
                pool: 2,
                spread_secs: spread,
            });
        let queries = generate_queries(&graph, &cfg);
        // Every drawn time lies in one of at most two spread-wide windows.
        let mut anchors: Vec<f64> = Vec::new();
        for gq in &queries {
            let s = gq.query.time.seconds();
            assert!((0.0..=86_400.0).contains(&s));
            if !anchors.iter().any(|&a| (s - a).abs() <= spread) {
                anchors.push(s);
            }
        }
        assert!(
            anchors.len() <= 2,
            "times must cluster around the 2 hot instants, saw {anchors:?}"
        );
    }

    #[test]
    fn hot_spot_times_are_deterministic_per_seed() {
        let graph = mall_graph();
        let times = TimeDistribution::HotSpots {
            exponent: 1.0,
            pool: 4,
            spread_secs: 120.0,
        };
        let cfg = QueryGenConfig::default().with_count(6).with_times(times);
        let a = generate_queries(&graph, &cfg);
        let b = generate_queries(&graph, &cfg);
        assert_eq!(a, b);
        let c = generate_queries(&graph, &cfg.with_seed(99));
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_sources_rarely_collide() {
        // The uniform baseline the skew test is contrasted against: fresh
        // draws essentially never produce bit-identical sources.
        let graph = mall_graph();
        let queries = generate_queries(&graph, &QueryGenConfig::default().with_count(8));
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for gq in &queries {
            let key = (
                gq.query.source.position.x.to_bits(),
                gq.query.source.position.y.to_bits(),
            );
            assert!(!seen.contains(&key), "uniform sources collided");
            seen.push(key);
        }
    }

    #[test]
    fn sources_and_targets_are_inside_their_partitions() {
        let graph = mall_graph();
        let queries = generate_queries(&graph, &QueryGenConfig::default().with_count(3));
        for gq in &queries {
            for p in [gq.query.source, gq.query.target] {
                let poly = graph
                    .space()
                    .partition(p.partition)
                    .polygon
                    .as_ref()
                    .unwrap();
                assert!(poly.contains(p.position));
            }
        }
    }
}
