//! Intra-partition door-to-door distance matrices.

use crate::{DoorId, SpaceError};

/// The `DM` vertex label of the IT-Graph: for one partition, the walking
/// distance between every pair of its doors.
///
/// Distances are symmetric with a zero diagonal. The paper stores `null` for
/// single-door partitions; here a 1×1 zero matrix plays that role.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    /// The partition's doors in ascending id order.
    doors: Vec<DoorId>,
    /// Row-major `n × n` distances in metres.
    dist: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds a matrix for `doors` (sorted and deduplicated internally) using
    /// the provided distance function.
    ///
    /// # Errors
    /// Returns [`SpaceError::InvalidDistance`] if the function produces a
    /// negative or non-finite distance.
    pub fn build(
        doors: Vec<DoorId>,
        mut d: impl FnMut(DoorId, DoorId) -> f64,
    ) -> Result<Self, SpaceError> {
        Self::build_indexed(doors, |doors, i, j| d(doors[i], doors[j]))
    }

    /// Like [`DistanceMatrix::build`], but the distance function receives the
    /// sorted door slice plus the *positions* of the pair within it. Callers
    /// that precompute distances row-by-row (the builder's one-to-many
    /// geodesic path) index straight into their tables instead of re-deriving
    /// positions from door ids on every pair.
    ///
    /// # Errors
    /// Returns [`SpaceError::InvalidDistance`] if the function produces a
    /// negative or non-finite distance.
    pub fn build_indexed(
        mut doors: Vec<DoorId>,
        mut d: impl FnMut(&[DoorId], usize, usize) -> f64,
    ) -> Result<Self, SpaceError> {
        doors.sort_unstable();
        doors.dedup();
        // Dedup can leave excess capacity behind; the matrix is immutable from
        // here on, so drop it — `heap_bytes` must reflect what is kept alive,
        // not what construction briefly used.
        doors.shrink_to_fit();
        let n = doors.len();
        let mut dist = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = d(&doors, i, j);
                if !v.is_finite() || v < 0.0 {
                    return Err(SpaceError::InvalidDistance {
                        a: doors[i],
                        b: doors[j],
                        value: v,
                    });
                }
                dist[i * n + j] = v;
                dist[j * n + i] = v;
            }
        }
        Ok(DistanceMatrix { doors, dist })
    }

    /// The doors covered by this matrix, in ascending id order.
    #[must_use]
    pub fn doors(&self) -> &[DoorId] {
        &self.doors
    }

    /// Number of doors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.doors.len()
    }

    /// Whether the matrix covers no doors (a door-less partition).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.doors.is_empty()
    }

    /// The index of `door` within the matrix, if present.
    #[must_use]
    pub fn position(&self, door: DoorId) -> Option<usize> {
        self.doors.binary_search(&door).ok()
    }

    /// The walking distance between two doors of the partition, or `None` if
    /// either door does not belong to it.
    #[must_use]
    pub fn distance(&self, a: DoorId, b: DoorId) -> Option<f64> {
        let (i, j) = (self.position(a)?, self.position(b)?);
        Some(self.dist[i * self.doors.len() + j])
    }

    /// The distances from door `from` to every door of the partition, in
    /// the order of [`DistanceMatrix::doors`], or `None` if `from` does not
    /// belong to it: `row(a)?[j]` is `distance(a, doors()[j])`.
    #[must_use]
    pub fn row(&self, from: DoorId) -> Option<&[f64]> {
        let n = self.doors.len();
        let i = self.position(from)?;
        self.dist.get(i * n..(i + 1) * n)
    }

    /// The longest distance in the matrix, `0.0` when it has no pair: an
    /// upper bound on every leg between two doors of the partition.
    #[must_use]
    pub fn max_distance(&self) -> f64 {
        self.dist.iter().copied().fold(0.0, f64::max)
    }

    /// Heap bytes used by this matrix (for the paper's memory-cost metric).
    ///
    /// Counts live elements (`len`), not allocation capacity: the metric must
    /// not be inflated by whatever growth slack the construction path left
    /// behind. (`build` also shrinks its vectors, so the two views coincide
    /// for matrices it produced.)
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.doors.len() * std::mem::size_of::<DoorId>()
            + self.dist.len() * std::mem::size_of::<f64>()
    }

    /// Verifies the triangle inequality within the matrix up to `tol` metres;
    /// returns the first violating triple if any. Geometric venues satisfy
    /// this; explicitly-specified matrices may not, which is worth surfacing.
    ///
    /// Only ordered pairs `i < j` with `k ∉ {i, j}` are checked: the matrix is
    /// symmetric with a zero diagonal, so `j < i` duplicates each check and
    /// degenerate triples (`k == i`, `k == j`, or `i == j`) reduce to
    /// `d ≤ d + tol`, which cannot violate. This halves the work on large
    /// matrices without changing what is detected.
    #[must_use]
    pub fn triangle_violation(&self, tol: f64) -> Option<(DoorId, DoorId, DoorId)> {
        let n = self.doors.len();
        for i in 0..n {
            for j in (i + 1)..n {
                let direct = self.dist[i * n + j];
                for k in 0..n {
                    if k == i || k == j {
                        continue;
                    }
                    if direct > self.dist[i * n + k] + self.dist[k * n + j] + tol {
                        return Some((self.doors[i], self.doors[j], self.doors[k]));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistanceMatrix {
        // Paper's v16: (d3,d17)=2, (d3,d21)=4, (d17,d21)=5.
        DistanceMatrix::build(vec![DoorId(3), DoorId(17), DoorId(21)], |a, b| {
            match (a.0, b.0) {
                (3, 17) | (17, 3) => 2.0,
                (3, 21) | (21, 3) => 4.0,
                (17, 21) | (21, 17) => 5.0,
                _ => 0.0,
            }
        })
        .unwrap()
    }

    #[test]
    fn lookups_are_symmetric_with_zero_diagonal() {
        let dm = sample();
        assert_eq!(dm.len(), 3);
        assert_eq!(dm.distance(DoorId(3), DoorId(17)), Some(2.0));
        assert_eq!(dm.distance(DoorId(17), DoorId(3)), Some(2.0));
        assert_eq!(dm.distance(DoorId(3), DoorId(21)), Some(4.0));
        assert_eq!(dm.distance(DoorId(17), DoorId(21)), Some(5.0));
        assert_eq!(dm.distance(DoorId(3), DoorId(3)), Some(0.0));
        assert_eq!(dm.distance(DoorId(3), DoorId(99)), None);
    }

    #[test]
    fn rows_follow_the_door_order() {
        let dm = sample();
        for &a in dm.doors() {
            let row = dm.row(a).unwrap();
            assert_eq!(row.len(), dm.len());
            for (&b, &d) in dm.doors().iter().zip(row) {
                assert_eq!(Some(d), dm.distance(a, b));
            }
        }
        assert_eq!(dm.row(DoorId(4)), None);
    }

    #[test]
    fn build_sorts_and_dedups() {
        let dm = DistanceMatrix::build(vec![DoorId(5), DoorId(1), DoorId(5)], |_, _| 1.0).unwrap();
        assert_eq!(dm.doors(), &[DoorId(1), DoorId(5)]);
        assert_eq!(dm.len(), 2);
    }

    #[test]
    fn rejects_invalid_distances() {
        let err = DistanceMatrix::build(vec![DoorId(0), DoorId(1)], |_, _| -1.0);
        assert!(matches!(err, Err(SpaceError::InvalidDistance { .. })));
        let err = DistanceMatrix::build(vec![DoorId(0), DoorId(1)], |_, _| f64::NAN);
        assert!(err.is_err());
    }

    #[test]
    fn single_door_matrix_is_trivial() {
        let dm = DistanceMatrix::build(vec![DoorId(7)], |_, _| unreachable!()).unwrap();
        assert_eq!(dm.distance(DoorId(7), DoorId(7)), Some(0.0));
        assert!(!dm.is_empty());
        assert_eq!(dm.max_distance(), 0.0);
    }

    #[test]
    fn max_distance_is_the_longest_entry() {
        assert_eq!(sample().max_distance(), 5.0);
        let empty = DistanceMatrix::build(Vec::new(), |_, _| unreachable!()).unwrap();
        assert_eq!(empty.max_distance(), 0.0);
    }

    #[test]
    fn triangle_check() {
        // The sample (2, 4, 5) satisfies the triangle inequality: 5 <= 2+4.
        assert_eq!(sample().triangle_violation(1e-9), None);
        // 10 > 1 + 1 violates it.
        let bad = DistanceMatrix::build(vec![DoorId(0), DoorId(1), DoorId(2)], |a, b| {
            if (a.0, b.0) == (0, 2) || (a.0, b.0) == (2, 0) {
                10.0
            } else {
                1.0
            }
        })
        .unwrap();
        assert!(bad.triangle_violation(1e-9).is_some());
    }

    #[test]
    fn heap_bytes_positive() {
        assert!(sample().heap_bytes() >= 3 * 3 * 8);
    }

    #[test]
    fn heap_bytes_reports_live_elements_not_capacity() {
        // A doors vec with huge growth slack: the metric must not see it.
        let mut doors = Vec::with_capacity(1024);
        doors.extend([DoorId(0), DoorId(1)]);
        let dm = DistanceMatrix::build(doors, |_, _| 1.0).unwrap();
        let expected = 2 * std::mem::size_of::<DoorId>() + 2 * 2 * std::mem::size_of::<f64>();
        assert_eq!(dm.heap_bytes(), expected);
        // Dedup shrinks too: 3 entries collapse to 2, capacity slack dropped.
        let dm = DistanceMatrix::build(vec![DoorId(5), DoorId(1), DoorId(5)], |_, _| 1.0).unwrap();
        assert_eq!(dm.heap_bytes(), expected);
    }

    #[test]
    fn triangle_check_skips_degenerate_triples() {
        // A matrix whose only "violations" would come from degenerate triples
        // under a negative tolerance reading: all real triples are fine.
        let dm = DistanceMatrix::build(vec![DoorId(0), DoorId(1)], |_, _| 3.0).unwrap();
        assert_eq!(dm.triangle_violation(0.0), None);
        // Violations are still found, and the witness names the short-cut
        // pair (i, j) plus the intermediate k that exposes it.
        let bad = DistanceMatrix::build(vec![DoorId(0), DoorId(1), DoorId(2)], |a, b| {
            if (a.0, b.0) == (0, 2) || (a.0, b.0) == (2, 0) {
                10.0
            } else {
                1.0
            }
        })
        .unwrap();
        let (i, j, k) = bad.triangle_violation(1e-9).unwrap();
        assert_eq!((i, j, k), (DoorId(0), DoorId(2), DoorId(1)));
    }

    #[test]
    fn build_indexed_matches_build() {
        let by_id = sample();
        let by_index = DistanceMatrix::build_indexed(
            vec![DoorId(21), DoorId(3), DoorId(17)],
            |doors, i, j| by_id.distance(doors[i], doors[j]).unwrap(),
        )
        .unwrap();
        assert_eq!(by_id, by_index);
    }
}
