//! Min-heap plumbing for Dijkstra over `f64` distances.
//!
//! The queue orders its entries by distance under
//! [`cmp_dist`](crate::ord::cmp_dist) and breaks ties on the node: doors by
//! index, then targets by index. It keeps each entry as one packed `u128`
//! key whose integer order is exactly that order, so the heap compares
//! plain integers:
//!
//! * the high 64 bits hold the `total_cmp` image of the distance with a
//!   NaN's sign bit cleared: the bit pattern with every bit flipped for a
//!   negative sign, and only the sign bit flipped otherwise, so every NaN
//!   ranks after `+inf`;
//! * the low 64 bits hold the node's rank (door index; targets after every
//!   door) shifted up one bit, above a NaN's sign bit.
//!
//! A pop decodes its key back into the distance's exact bits and the node.
//! A sweep may also re-key its queue in place ([`MinHeap::rekey`]) when it
//! moves from Dijkstra's order to landmark order (`crate::landmarks`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A node of the search: a door (by dense index) or a query target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Node {
    /// A door, by `DoorId::index()`.
    Door(u32),
    /// A virtual target node `pt`, by its index within the search's target
    /// set (always 0 for single-target searches).
    Target(u32),
}

/// A popped entry: a node and the distance it was pushed with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub dist: f64,
    pub node: Node,
}

// The memory-cost metric counts a queue entry as an `Entry`
// (`SearchState::search_bytes`); the packed key takes exactly as much.
const _: () = assert!(std::mem::size_of::<Entry>() == std::mem::size_of::<u128>());

/// The rank of targets' first index: every door ranks below it.
const TARGET_RANK: u64 = 1 << 32;
const SIGN: u64 = 1 << 63;
/// The bits of `+inf`: above them, with the sign bit clear, lie the NaNs.
const INFINITY: u64 = 0x7ff0_0000_0000_0000;

fn node_rank(n: Node) -> u64 {
    match n {
        Node::Door(i) => u64::from(i),
        // Targets rank after every door (doors settle first on distance
        // ties); multiple targets tie-break among themselves by index.
        Node::Target(k) => TARGET_RANK + u64::from(k),
    }
}

/// The entry's key: ascending keys are ascending `(cmp_dist, node rank)`,
/// and two NaNs differing only in sign come positive first.
fn pack(dist: f64, node: Node) -> u128 {
    let raw = dist.to_bits();
    // 1 for a NaN with its sign bit set, whose sign the key keeps apart.
    let nan_sign = u64::from(raw & !SIGN > INFINITY) & (raw >> 63);
    let bits = raw ^ (nan_sign << 63);
    // All ones for a negative sign, the sign bit alone otherwise.
    let flip = ((bits as i64 >> 63) as u64) | SIGN;
    (u128::from(bits ^ flip) << 64) | u128::from(node_rank(node) << 1 | nan_sign)
}

/// Inverts [`pack`], bit for bit.
fn unpack(key: u128) -> Entry {
    let image = (key >> 64) as u64;
    // The image's top bit is set exactly for a distance with a clear sign.
    let flip = !((image as i64 >> 63) as u64) | SIGN;
    let low = key as u64;
    let rank = low >> 1;
    let node = match rank.checked_sub(TARGET_RANK) {
        None => Node::Door(rank as u32),
        Some(k) => Node::Target(k as u32),
    };
    Entry {
        dist: f64::from_bits((image ^ flip) | (low << 63)),
        node,
    }
}

/// A min-heap that tracks its peak size (for the memory-cost metric).
#[derive(Debug, Default)]
pub(crate) struct MinHeap {
    heap: BinaryHeap<Reverse<u128>>,
    peak: usize,
}

impl MinHeap {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn push(&mut self, dist: f64, node: Node) {
        self.heap.push(Reverse(pack(dist, node)));
        self.peak = self.peak.max(self.heap.len());
    }

    #[inline]
    pub fn pop(&mut self) -> Option<Entry> {
        self.heap.pop().map(|Reverse(key)| unpack(key))
    }

    pub fn peak(&self) -> usize {
        self.peak
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Empties the heap (keeping its capacity) and zeroes the peak, so a
    /// reused heap reports exactly what a fresh one would.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.peak = 0;
    }

    /// Gives every entry the distance `key` returns for it, dropping the
    /// entries it answers `None` for, in place: no allocation, and the peak
    /// stays what the pushes made it.
    pub fn rekey(&mut self, mut key: impl FnMut(Entry) -> Option<f64>) {
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        keys.retain_mut(|Reverse(k)| {
            let entry = unpack(*k);
            key(entry).is_some_and(|dist| {
                *k = pack(dist, entry.node);
                true
            })
        });
        self.heap = BinaryHeap::from(keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_ascending_distance_order() {
        let mut h = MinHeap::new();
        h.push(5.0, Node::Door(1));
        h.push(1.0, Node::Door(2));
        h.push(3.0, Node::Target(0));
        h.push(2.0, Node::Door(0));
        let order: Vec<f64> = std::iter::from_fn(|| h.pop().map(|e| e.dist)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0, 5.0]);
    }

    #[test]
    fn equal_distances_pop_door_before_target_deterministically() {
        let mut h = MinHeap::new();
        h.push(1.0, Node::Target(1));
        h.push(1.0, Node::Target(0));
        h.push(1.0, Node::Door(7));
        h.push(1.0, Node::Door(3));
        assert_eq!(h.pop().unwrap().node, Node::Door(3));
        assert_eq!(h.pop().unwrap().node, Node::Door(7));
        assert_eq!(h.pop().unwrap().node, Node::Target(0));
        assert_eq!(h.pop().unwrap().node, Node::Target(1));
    }

    #[test]
    fn nan_distance_pops_last_instead_of_panicking() {
        let inf_minus_inf = std::hint::black_box(f64::INFINITY) - f64::INFINITY;
        for nan in [f64::NAN, -f64::NAN, inf_minus_inf] {
            let mut h = MinHeap::new();
            h.push(nan, Node::Door(0));
            h.push(2.0, Node::Door(1));
            h.push(f64::INFINITY, Node::Door(2));
            h.push(f64::NEG_INFINITY, Node::Door(3));
            assert_eq!(h.pop().unwrap().dist, f64::NEG_INFINITY);
            assert_eq!(h.pop().unwrap().dist, 2.0);
            assert_eq!(h.pop().unwrap().dist, f64::INFINITY);
            assert_eq!(h.pop().unwrap().dist.to_bits(), nan.to_bits());
        }
    }

    #[test]
    fn rekey_reorders_and_drops_in_place() {
        let mut h = MinHeap::new();
        for (d, door) in [(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)] {
            h.push(d, Node::Door(door));
        }
        h.push(2.5, Node::Target(0));
        h.rekey(|e| match e.node {
            Node::Door(1) => None,
            Node::Door(i) => Some(10.0 - e.dist + f64::from(i)),
            Node::Target(_) => Some(e.dist),
        });
        let order: Vec<(f64, Node)> =
            std::iter::from_fn(|| h.pop().map(|e| (e.dist, e.node))).collect();
        assert_eq!(
            order,
            [
                (2.5, Node::Target(0)),
                (9.0, Node::Door(0)),
                (9.0, Node::Door(2)),
                (9.0, Node::Door(3)),
            ]
        );
        assert_eq!(h.peak(), 5);
    }

    #[test]
    fn tracks_peak() {
        let mut h = MinHeap::new();
        h.push(1.0, Node::Door(0));
        h.push(2.0, Node::Door(1));
        h.pop();
        h.push(3.0, Node::Door(2));
        assert_eq!(h.peak(), 2);
    }

    #[test]
    fn clear_empties_and_zeroes_the_peak() {
        let mut h = MinHeap::new();
        h.push(1.0, Node::Door(0));
        h.push(2.0, Node::Door(1));
        h.clear();
        assert_eq!(h.peak(), 0);
        assert!(h.pop().is_none());
        h.push(3.0, Node::Door(2));
        assert_eq!(h.peak(), 1);
    }

    /// The reference order: `(cmp_dist, node rank)`, smallest first; two
    /// NaNs of one payload and node, the positive one first.
    fn reference_min(entries: &[Entry]) -> Option<usize> {
        (0..entries.len()).min_by(|&a, &b| {
            let (a, b) = (entries[a], entries[b]);
            crate::ord::cmp_dist(a.dist, b.dist)
                .then(node_rank(a.node).cmp(&node_rank(b.node)))
                .then(a.dist.to_bits().cmp(&b.dist.to_bits()))
        })
    }

    #[test]
    fn packed_keys_pop_in_reference_order() {
        // SplitMix64, so the sequence is the same on every run.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let inf_minus_inf = std::hint::black_box(f64::INFINITY) - f64::INFINITY;
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            inf_minus_inf,
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_0002),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -2.5,
        ];
        let mut heap = MinHeap::new();
        let mut reference: Vec<Entry> = Vec::new();
        let mut seen: Vec<f64> = Vec::new();
        let (mut pushes, mut pops, mut peak) = (0, 0, 0);
        for step in 0..24_000 {
            // Push more often than pop for the first half, then drain.
            let push_share = if step < 12_000 { 60 } else { 40 };
            if next() % 100 < push_share {
                let r = next();
                let dist = match r % 8 {
                    0 => specials[(r >> 8) as usize % specials.len()],
                    1 | 2 if !seen.is_empty() => seen[(r >> 8) as usize % seen.len()],
                    3 => -(((r >> 8) % 5_000) as f64) / 8.0,
                    _ => ((r >> 8) % 200_000) as f64 / 16.0 + (r >> 40) as f64 * 1e-9,
                };
                seen.push(dist);
                let n = next();
                let node = match n % 6 {
                    0 => Node::Target((n >> 8) as u32 % 4),
                    1 => Node::Target(u32::MAX - (n >> 8) as u32 % 2),
                    2 => Node::Door(u32::MAX - (n >> 8) as u32 % 2),
                    _ => Node::Door((n >> 8) as u32 % 64),
                };
                heap.push(dist, node);
                reference.push(Entry { dist, node });
                peak = peak.max(reference.len());
                pushes += 1;
            } else {
                let want = reference_min(&reference).map(|i| reference.swap_remove(i));
                let got = heap.pop();
                match (got, want) {
                    (Some(got), Some(want)) => {
                        assert_eq!(got.dist.to_bits(), want.dist.to_bits(), "step {step}");
                        assert_eq!(got.node, want.node, "step {step}");
                        pops += 1;
                    }
                    (None, None) => {}
                    (got, want) => panic!("step {step}: popped {got:?}, expected {want:?}"),
                }
                assert_eq!(heap.peak(), peak, "step {step}");
            }
        }
        while let Some(want) = reference_min(&reference).map(|i| reference.swap_remove(i)) {
            let got = heap.pop().unwrap();
            assert_eq!(got.dist.to_bits(), want.dist.to_bits());
            assert_eq!(got.node, want.node);
            assert_eq!(heap.peak(), peak);
            pops += 1;
        }
        assert!(heap.pop().is_none());
        assert!(
            pushes + pops >= 10_000 && peak > 100,
            "{pushes} pushes, {pops} pops, peak {peak}"
        );
    }
}
