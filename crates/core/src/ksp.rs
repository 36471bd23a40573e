//! Extension: k shortest valid paths (Yen's algorithm over door sequences).
//!
//! Indoor LBS front-ends routinely offer alternative routes; this module
//! ranks the `k` shortest *valid* ITSPQ paths (no-waiting semantics, both
//! rules enforced per relaxation exactly as the main engines do).
//!
//! Yen's algorithm over the door graph: the best path comes from a
//! [`crate::SynEngine`]-equivalent search under full relaxation; each further
//! path is the cheapest candidate obtained by re-searching from every spur
//! position of a previous path with the deviating doors banned. Every spur is
//! a one-target sweep of the search framework: seeded at the root's last door
//! with the root's cumulative distance, so arrival-time checks stay
//! consistent, and with the banned doors settled before it starts.

use indoor_space::DoorId;

use crate::engine_syn::SynChecker;
use crate::framework::{direct_path, run_search_targets, Seed, SweepObserver};
use crate::ord::cmp_dist;
use crate::{ExpandPolicy, ItGraph, ItspqConfig, Path, Query};

/// Computes up to `k` shortest valid paths, ordered by increasing length.
/// Paths are distinct as door sequences. Uses full Dijkstra relaxation
/// regardless of [`crate::ExpandPolicy`] (alternatives need the complete
/// search space).
#[must_use]
pub fn k_shortest_paths(
    graph: &ItGraph,
    query: &Query,
    config: &ItspqConfig,
    k: usize,
) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    if query.source.partition == query.target.partition {
        // Only the direct segment exists inside one partition.
        return vec![direct_path(
            &query.source,
            &query.target,
            config,
            query.departure(),
        )];
    }

    let config = config.with_expand(ExpandPolicy::FullRelax);
    let Some(first) = spur(graph, query, &config, None, &[]) else {
        return Vec::new();
    };

    let mut accepted: Vec<Path> = vec![first];
    let mut candidates: Vec<Path> = Vec::new();
    let mut banned: Vec<DoorId> = Vec::new();

    while accepted.len() < k {
        // `accepted` starts with one path and only grows, but spell the
        // invariant as control flow rather than a panic site.
        let Some(prev) = accepted.last().cloned() else {
            break;
        };
        for spur_idx in 0..=prev.hops.len().saturating_sub(1) {
            let root = &prev.hops[..spur_idx];

            // Ban: the next door of every known path sharing this root, plus
            // the root's own doors (keeps candidates door-simple).
            banned.clear();
            for path in accepted.iter().chain(candidates.iter()) {
                if path.hops.len() > spur_idx
                    && path.hops[..spur_idx]
                        .iter()
                        .map(|h| h.door)
                        .eq(root.iter().map(|h| h.door))
                {
                    banned.push(path.hops[spur_idx].door);
                }
            }
            banned.extend(root.iter().map(|h| h.door));

            let seed = root.last().map(|h| Seed {
                door: h.door,
                dist: h.distance,
                via: h.via_partition,
            });
            if let Some(tail) = spur(graph, query, &config, seed, &banned) {
                let mut hops = root.to_vec();
                hops.extend_from_slice(&tail.hops);
                let candidate = Path { hops, ..tail };
                let dup = |p: &Path| {
                    p.hops.len() == candidate.hops.len()
                        && p.hops
                            .iter()
                            .map(|h| h.door)
                            .eq(candidate.hops.iter().map(|h| h.door))
                };
                if !accepted.iter().any(dup) && !candidates.iter().any(dup) {
                    candidates.push(candidate);
                }
            }
        }
        // Promote the cheapest candidate.
        let Some(best_idx) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| cmp_dist(a.length, b.length))
            .map(|(i, _)| i)
        else {
            break;
        };
        accepted.push(candidates.swap_remove(best_idx));
    }
    accepted
}

/// The shortest valid path from `seed` (from `ps` when `None`) to `pt` that
/// avoids `banned`, under ITG/S's check. Its `hops` cover only the doors
/// after the seed, which the root already holds.
fn spur(
    graph: &ItGraph,
    query: &Query,
    config: &ItspqConfig,
    seed: Option<Seed>,
    banned: &[DoorId],
) -> Option<Path> {
    let space = graph.space();
    let t0 = query.departure();
    let dst_p = query.target.partition;
    if let Some(s) = seed {
        // Direct finish: the seed door enters `P(pt)` from another partition.
        // The sweep relaxes no target from its seed and would run on to
        // reach `pt` another way, possibly by a touch (ARCHITECTURE.md
        // §"Deviations from the paper"), so answer it here.
        if s.via != dst_p && space.d2p_enterable(s.door).contains(&dst_p) {
            if let Some(leg) = space.point_to_door(&query.target, s.door) {
                let length = s.dist + leg;
                return Some(Path {
                    source: query.source,
                    target: query.target,
                    hops: Vec::new(),
                    length,
                    departure: t0,
                    arrival: t0 + config.velocity.travel_time(length),
                });
            }
        }
    }
    let mut checker = SynChecker {
        space,
        velocity: config.velocity,
        t0,
    };
    let mut tail = run_search_targets(
        graph,
        &query.source,
        query.time,
        std::slice::from_ref(&query.target),
        config,
        &mut checker,
        &mut SweepObserver::off(),
        seed,
        banned,
    )
    .paths
    .pop()
    .flatten()?;
    if seed.is_some() {
        tail.hops.remove(0);
    }
    Some(tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate_path, ItspqConfig, SynEngine};
    use indoor_space::paper_example;
    use indoor_time::{TimeOfDay, WALKING_SPEED};

    fn setup() -> (paper_example::PaperExample, ItGraph) {
        let ex = paper_example::build();
        let g = ItGraph::new(ex.space.clone());
        (ex, g)
    }

    #[test]
    fn first_path_matches_engine() {
        let (ex, g) = setup();
        let cfg = ItspqConfig::full_relax();
        let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(12, 0));
        let paths = k_shortest_paths(&g, &q, &cfg, 1);
        assert_eq!(paths.len(), 1);
        let engine = SynEngine::new(g.clone(), cfg).query(&q).path.unwrap();
        assert!((paths[0].length - engine.length).abs() < 1e-9);
        assert_eq!(
            paths[0].doors().collect::<Vec<_>>(),
            engine.doors().collect::<Vec<_>>()
        );
    }

    #[test]
    fn alternatives_are_sorted_distinct_and_valid() {
        let (ex, g) = setup();
        let cfg = ItspqConfig::full_relax();
        // p1 (hallway v3) to p2 (room v10): the one-way d3 into the lower
        // hallways fans out into several genuinely different routes
        // (via v12/d19 or via v9/d12), and the long way around through
        // v4-v8-v17-v14-v13 exists too.
        let q = Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0));
        let paths = k_shortest_paths(&g, &q, &cfg, 4);
        assert!(
            paths.len() >= 3,
            "expected several alternatives, got {}",
            paths.len()
        );
        for w in paths.windows(2) {
            assert!(w[0].length <= w[1].length + 1e-9, "paths must be sorted");
        }
        let mut seqs: Vec<Vec<DoorId>> = paths.iter().map(|p| p.doors().collect()).collect();
        seqs.sort();
        seqs.dedup();
        assert_eq!(seqs.len(), paths.len(), "door sequences must be distinct");
        for p in &paths {
            validate_path(&ex.space, p, q.time, WALKING_SPEED)
                .unwrap_or_else(|v| panic!("invalid alternative: {v}"));
        }
    }

    #[test]
    fn p3_to_p4_has_exactly_one_valid_route() {
        // Topological fact of the running example: banning d18 leaves no way
        // into v14 (d16 comes from the private v15; d13 comes from v17, whose
        // cluster is sealed behind the one-way d3). Yen must therefore stop
        // at one path, not invent more.
        let (ex, g) = setup();
        let cfg = ItspqConfig::full_relax();
        let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(12, 0));
        let paths = k_shortest_paths(&g, &q, &cfg, 4);
        assert_eq!(paths.len(), 1);
        assert!((paths[0].length - 12.0).abs() < 1e-9);
    }

    #[test]
    fn respects_temporal_validity() {
        let (ex, g) = setup();
        let cfg = ItspqConfig::full_relax();
        // At 23:30 no valid path exists at all.
        let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30));
        assert!(k_shortest_paths(&g, &q, &cfg, 3).is_empty());
    }

    #[test]
    fn same_partition_returns_single_direct_path() {
        let (ex, g) = setup();
        let cfg = ItspqConfig::default();
        let other =
            indoor_space::IndoorPoint::new(ex.p3.partition, indoor_geom::Point::new(3.0, 4.0));
        let q = Query::new(ex.p3, other, TimeOfDay::hm(12, 0));
        let paths = k_shortest_paths(&g, &q, &cfg, 5);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].hops.is_empty());
    }

    #[test]
    fn k_zero_returns_nothing() {
        let (ex, g) = setup();
        let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(12, 0));
        assert!(k_shortest_paths(&g, &q, &ItspqConfig::default(), 0).is_empty());
    }

    #[test]
    fn private_partitions_never_appear_in_alternatives() {
        let (ex, g) = setup();
        let cfg = ItspqConfig::full_relax();
        let q = Query::new(ex.p3, ex.p4, TimeOfDay::hm(12, 0));
        for p in k_shortest_paths(&g, &q, &cfg, 5) {
            for hop in &p.hops {
                let kind = ex.space.partition(hop.via_partition).kind;
                assert!(
                    kind.traversable()
                        || hop.via_partition == ex.p3.partition
                        || hop.via_partition == ex.p4.partition,
                    "alternative traverses {}",
                    hop.via_partition
                );
            }
        }
    }
}
