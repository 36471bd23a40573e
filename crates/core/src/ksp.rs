//! Extension: k shortest valid paths (Yen's algorithm over door sequences).
//!
//! Indoor LBS front-ends routinely offer alternative routes; this module
//! ranks the `k` shortest *valid* ITSPQ paths (no-waiting semantics, both
//! rules enforced per relaxation exactly as the main engines do).
//!
//! Yen's algorithm over the door graph: the best path comes from a
//! [`crate::SynEngine`]-equivalent search; each further path is the cheapest
//! candidate obtained by re-searching from every spur position of a previous
//! path with the deviating doors banned. Spur searches inherit the root's
//! cumulative distance so arrival-time checks stay consistent.

use indoor_space::{DoorId, PartitionId};

use crate::framework::direct_path;
use crate::heap::{MinHeap, Node};
use crate::ord::cmp_dist;
use crate::{DoorHop, ItGraph, ItspqConfig, Path, Query};

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
    let space = graph.space();
    if query.source.partition == query.target.partition {
        // Only the direct segment exists inside one partition.
        return vec![direct_path(
            &query.source,
            &query.target,
            config,
            query.departure(),
        )];
    }

    let n = space.num_doors();
    let mut banned = vec![false; n];
    let Some(first) = spur_search(graph, query, config, None, 0.0, &banned) else {
        return Vec::new();
    };

    let mut accepted: Vec<Path> = vec![first];
    let mut candidates: Vec<Path> = Vec::new();

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
            banned.iter_mut().for_each(|b| *b = false);
            for path in accepted.iter().chain(candidates.iter()) {
                if path.hops.len() > spur_idx
                    && path.hops[..spur_idx]
                        .iter()
                        .map(|h| h.door)
                        .eq(root.iter().map(|h| h.door))
                {
                    banned[path.hops[spur_idx].door.index()] = true;
                }
            }
            for h in root {
                banned[h.door.index()] = true;
            }

            let (entry, base_dist) = match root.last() {
                Some(h) => (Some((h.door, h.via_partition)), h.distance),
                None => (None, 0.0),
            };
            if let Some(tail) = spur_search(graph, query, config, entry, base_dist, &banned) {
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

/// A full-relaxation valid-path search that starts either at `ps`
/// (`entry = None`) or just after crossing the root's last door with
/// `base_dist` metres already walked, avoiding `banned` doors. `entry`
/// carries `(door, partition the root crossed it from)`; the search never
/// steps back into that partition (it would be a zero-cost "touch" producing
/// duplicate paths). Returns a complete path whose `hops` cover only the
/// spur portion.
fn spur_search(
    graph: &ItGraph,
    query: &Query,
    config: &ItspqConfig,
    entry: Option<(DoorId, PartitionId)>,
    base_dist: f64,
    banned: &[bool],
) -> Option<Path> {
    let space = graph.space();
    let t0 = query.departure();
    let src_p = query.source.partition;
    let dst_p = query.target.partition;
    let n = space.num_doors();

    let allowed = |v: PartitionId| -> bool {
        v == src_p || v == dst_p || space.partition(v).kind.traversable()
    };

    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(PartitionId, Option<u32>)>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = MinHeap::new();

    // `link`: the door whose DM row supplies leg weights (the fixed entry door
    // during seeding, the settled door afterwards); `from_idx`: the
    // predecessor recorded for reconstruction (None ends the spur's chain).
    let relax = |v: PartitionId,
                 link: Option<DoorId>,
                 from_idx: Option<u32>,
                 base: f64,
                 settled: &[bool],
                 dist: &mut Vec<f64>,
                 prev: &mut Vec<Option<(PartitionId, Option<u32>)>>,
                 heap: &mut MinHeap| {
        for &dj in space.p2d_leaveable(v) {
            if banned[dj.index()] || settled[dj.index()] || Some(dj) == link {
                continue;
            }
            let weight = match link {
                Some(l) => space.door_to_door(v, l, dj),
                None => space.point_to_door(&query.source, dj),
            };
            let Some(weight) = weight else { continue };
            let cand = base + weight;
            let tarr = t0 + config.velocity.travel_time(cand);
            if !space.door(dj).atis.is_open_at(tarr) {
                continue;
            }
            if cand < dist[dj.index()] {
                dist[dj.index()] = cand;
                prev[dj.index()] = Some((v, from_idx));
                heap.push(cand, Node::Door(dj.index() as u32));
            }
        }
    };

    // Seed the search.
    match entry {
        None => relax(
            src_p, None, None, 0.0, &settled, &mut dist, &mut prev, &mut heap,
        ),
        Some((e, root_side)) => {
            for vi in 0..space.d2p_enterable(e).len() {
                let v = space.d2p_enterable(e)[vi];
                if v != root_side && allowed(v) {
                    relax(
                        v,
                        Some(e),
                        None,
                        base_dist,
                        &settled,
                        &mut dist,
                        &mut prev,
                        &mut heap,
                    );
                }
            }
            // Direct finish: the entry door may already bound the target.
            if dst_p != root_side && space.d2p_enterable(e).contains(&dst_p) {
                if let Some(leg) = space.point_to_door(&query.target, e) {
                    let length = base_dist + leg;
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
    }

    let mut target_dist = f64::INFINITY;
    let mut target_prev: Option<u32> = None;
    while let Some(e) = heap.pop() {
        let Node::Door(di) = e.node else { continue };
        if settled[di as usize] {
            continue;
        }
        settled[di as usize] = true;
        let door = DoorId(di);
        let d_di = dist[di as usize];
        if d_di >= target_dist {
            break;
        }
        if space.d2p_enterable(door).contains(&dst_p) {
            if let Some(leg) = space.point_to_door(&query.target, door) {
                let cand = d_di + leg;
                if cand < target_dist {
                    target_dist = cand;
                    target_prev = Some(di);
                }
            }
        }
        let came_from = prev[di as usize].map(|p| p.0);
        for vi in 0..space.d2p_enterable(door).len() {
            let v = space.d2p_enterable(door)[vi];
            if Some(v) == came_from || !allowed(v) {
                continue;
            }
            relax(
                v,
                Some(door),
                Some(di),
                d_di,
                &settled,
                &mut dist,
                &mut prev,
                &mut heap,
            );
        }
    }

    let last = target_prev?;
    // Walk predecessor links back to the spur seed. Every door on the path
    // got a `prev` entry before entering the heap, so a missing link is a
    // broken invariant — degrade to "no path" rather than panic.
    let mut rev = Vec::new();
    let mut cur = last;
    loop {
        let (via, from) = prev[cur as usize]?;
        rev.push((cur, via));
        match from {
            Some(p) => cur = p,
            None => break,
        }
    }
    rev.reverse();
    let hops: Vec<DoorHop> = rev
        .iter()
        .map(|&(di, via)| DoorHop {
            door: DoorId(di),
            via_partition: via,
            distance: dist[di as usize],
            arrival: t0 + config.velocity.travel_time(dist[di as usize]),
        })
        .collect();
    Some(Path {
        source: query.source,
        target: query.target,
        hops,
        length: target_dist,
        departure: t0,
        arrival: t0 + config.velocity.travel_time(target_dist),
    })
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
