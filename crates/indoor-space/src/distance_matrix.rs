//! Intra-partition door-to-door distance matrices.

use crate::DoorId;

/// The `DM` vertex label of the IT-Graph: for one partition, the walking
/// distance between every pair of its doors.
///
/// A view into the venue: its doors are the partition's `P2D` list and its
/// cells a slice of the venue's one cell arena
/// ([`crate::IndoorSpace::distance_matrix`]). Distances are symmetric with a
/// zero diagonal. The paper stores `null` for single-door partitions; here a
/// 1×1 zero matrix plays that role.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceMatrix<'a> {
    /// The partition's doors in ascending id order.
    doors: &'a [DoorId],
    /// Row-major `n × n` distances in metres.
    dist: &'a [f64],
}

impl<'a> DistanceMatrix<'a> {
    /// The matrix over `doors` (ascending) whose row-major cells are `dist`.
    #[inline]
    pub(crate) fn new(doors: &'a [DoorId], dist: &'a [f64]) -> Self {
        debug_assert_eq!(dist.len(), doors.len() * doors.len());
        DistanceMatrix { doors, dist }
    }

    /// The doors covered by this matrix, in ascending id order.
    #[must_use]
    #[inline]
    pub fn doors(&self) -> &'a [DoorId] {
        self.doors
    }

    /// Number of doors.
    #[must_use]
    #[inline]
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
    #[inline]
    pub fn position(&self, door: DoorId) -> Option<usize> {
        self.doors.binary_search(&door).ok()
    }

    /// The walking distance between two doors of the partition, or `None` if
    /// either door does not belong to it.
    #[must_use]
    #[inline]
    pub fn distance(&self, a: DoorId, b: DoorId) -> Option<f64> {
        let (i, j) = (self.position(a)?, self.position(b)?);
        self.dist.get(i * self.doors.len() + j).copied()
    }

    /// The distances from door `from` to every door of the partition, in
    /// the order of [`DistanceMatrix::doors`], or `None` if `from` does not
    /// belong to it: `row(a)?[j]` is `distance(a, doors()[j])`.
    #[must_use]
    #[inline]
    pub fn row(&self, from: DoorId) -> Option<&'a [f64]> {
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

    /// The paper's v16: (d3,d17)=2, (d3,d21)=4, (d17,d21)=5.
    const DOORS: [DoorId; 3] = [DoorId(3), DoorId(17), DoorId(21)];
    const CELLS: [f64; 9] = [0.0, 2.0, 4.0, 2.0, 0.0, 5.0, 4.0, 5.0, 0.0];

    fn sample() -> DistanceMatrix<'static> {
        DistanceMatrix::new(&DOORS, &CELLS)
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
        assert_eq!(dm.position(DoorId(17)), Some(1));
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
    fn single_door_matrix_is_trivial() {
        let dm = DistanceMatrix::new(&[DoorId(7)], &[0.0]);
        assert_eq!(dm.distance(DoorId(7), DoorId(7)), Some(0.0));
        assert!(!dm.is_empty());
        assert_eq!(dm.max_distance(), 0.0);
    }

    #[test]
    fn max_distance_is_the_longest_entry() {
        assert_eq!(sample().max_distance(), 5.0);
        let empty = DistanceMatrix::new(&[], &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.max_distance(), 0.0);
        assert_eq!(empty.row(DoorId(0)), None);
    }

    #[test]
    fn triangle_check() {
        // The sample (2, 4, 5) satisfies the triangle inequality: 5 <= 2+4.
        assert_eq!(sample().triangle_violation(1e-9), None);
        // A pair whose only "violations" would come from degenerate triples
        // under a negative tolerance reading: all real triples are fine.
        let pair = DistanceMatrix::new(&[DoorId(0), DoorId(1)], &[0.0, 3.0, 3.0, 0.0]);
        assert_eq!(pair.triangle_violation(0.0), None);
        // 10 > 1 + 1 violates it, and the witness names the short-cut pair
        // (i, j) plus the intermediate k that exposes it.
        let doors = [DoorId(0), DoorId(1), DoorId(2)];
        let cells = [0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0];
        let bad = DistanceMatrix::new(&doors, &cells);
        assert_eq!(
            bad.triangle_violation(1e-9),
            Some((DoorId(0), DoorId(2), DoorId(1)))
        );
    }
}
