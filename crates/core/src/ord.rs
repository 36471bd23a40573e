//! Total-order comparisons for `f64` search distances.
//!
//! Dijkstra bookkeeping compares distances constantly — in the heap, when
//! promoting k-shortest-path candidates, when folding partition distances.
//! `partial_cmp(..).unwrap()` at those sites turns a single NaN (a corrupt
//! distance matrix, a degenerate geometry, a caller-supplied NaN
//! coordinate) into a panic in the middle of a search that may be running
//! on a server worker thread. Every comparison in this crate goes through
//! [`cmp_dist`] instead, [`f64::total_cmp`] on the distance with a NaN's
//! sign bit cleared: NaN is simply the *largest* value, whatever its sign,
//! so a poisoned distance loses every "is this shorter?" contest and the
//! search degrades to "no route" rather than unwinding.
//!
//! Clippy keeps it that way: `crates/core/clippy.toml` bans calls to
//! `partial_cmp`, and the crate root denies `unwrap_used`, `expect_used` and
//! `float_cmp` in library code.

use std::cmp::Ordering;

/// Compares two distances under the IEEE 754 `totalOrder` predicate, with
/// every NaN counted as positive.
///
/// `-inf < … < 0 < … < +inf < NaN`: a NaN distance sorts after every real
/// distance, so it can never win a minimisation. `total_cmp` alone would
/// put a NaN with its sign bit set before `-inf`, and that is the NaN
/// x86-64 makes of `inf - inf`. NaNs rank among themselves by payload, and
/// two NaNs differing only in sign compare equal.
#[inline]
#[must_use]
pub fn cmp_dist(a: f64, b: f64) -> Ordering {
    unsigned_nan(a).total_cmp(&unsigned_nan(b))
}

/// `x` with its sign bit cleared if it is a NaN, else `x` itself: the value
/// [`cmp_dist`] ranks in `x`'s place.
#[inline]
pub(crate) fn unsigned_nan(x: f64) -> f64 {
    if x.is_nan() {
        f64::from_bits(x.to_bits() & !(1 << 63))
    } else {
        x
    }
}

/// The smaller of two distances under [`cmp_dist`].
///
/// Unlike `f64::min`, which *ignores* NaN (`f64::NAN.min(1.0) == 1.0`),
/// this is a plain total-order minimum — but since NaN sorts last the
/// effect on mixed inputs is the same, and the choice is deterministic.
#[inline]
#[must_use]
pub fn min_dist(a: f64, b: f64) -> f64 {
    if cmp_dist(b, a) == Ordering::Less {
        b
    } else {
        a
    }
}

/// Compares optional path lengths: absent routes sort after every present
/// one, so `min_by(cmp_opt_len)` picks the shortest *existing* route.
#[inline]
#[must_use]
pub fn cmp_opt_len(a: Option<f64>, b: Option<f64>) -> Ordering {
    match (a, b) {
        (Some(x), Some(y)) => cmp_dist(x, y),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    }
}

/// An `f64` wrapper that is `Eq + Ord` under [`cmp_dist`].
///
/// For sort keys and ordered collections; `OrdF64(NaN)` is a legal, largest
/// element rather than a logic error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_dist(self.0, other.0)
    }
}

impl From<f64> for OrdF64 {
    fn from(v: f64) -> Self {
        OrdF64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NaNs of both signs, one of them made at run time as a search would
    /// make it: on x86-64 `inf - inf` has its sign bit set.
    fn nans() -> [f64; 3] {
        let inf_minus_inf = std::hint::black_box(f64::INFINITY) - f64::INFINITY;
        [f64::NAN, -f64::NAN, inf_minus_inf]
    }

    #[test]
    fn nan_sorts_after_infinity() {
        for nan in nans() {
            assert_eq!(cmp_dist(f64::INFINITY, nan), Ordering::Less);
            assert_eq!(cmp_dist(nan, f64::INFINITY), Ordering::Greater);
            assert_eq!(cmp_dist(nan, 0.0), Ordering::Greater);
            assert_eq!(cmp_dist(nan, f64::NEG_INFINITY), Ordering::Greater);
            assert_eq!(cmp_dist(f64::NEG_INFINITY, nan), Ordering::Less);
            for other in nans() {
                assert_eq!(cmp_dist(nan, other), Ordering::Equal);
            }
        }
        assert!(nans()[1].is_sign_negative());
    }

    #[test]
    fn min_dist_never_picks_nan_over_a_real_value() {
        for nan in nans() {
            assert_eq!(min_dist(nan, 3.0), 3.0);
            assert_eq!(min_dist(3.0, nan), 3.0);
            assert_eq!(min_dist(nan, f64::NEG_INFINITY), f64::NEG_INFINITY);
            assert_eq!(min_dist(f64::INFINITY, nan), f64::INFINITY);
            assert!(min_dist(nan, f64::NAN).is_nan());
        }
        assert_eq!(min_dist(1.0, 2.0), 1.0);
        assert_eq!(min_dist(f64::INFINITY, 2.0), 2.0);
    }

    #[test]
    fn opt_len_prefers_present_routes() {
        assert_eq!(cmp_opt_len(Some(5.0), None), Ordering::Less);
        assert_eq!(cmp_opt_len(None, Some(5.0)), Ordering::Greater);
        assert_eq!(cmp_opt_len(None, None), Ordering::Equal);
        assert_eq!(cmp_opt_len(Some(1.0), Some(2.0)), Ordering::Less);
        // Even a NaN length beats "no route at all".
        assert_eq!(cmp_opt_len(Some(f64::NAN), None), Ordering::Less);
    }

    #[test]
    fn ordf64_sorts_with_nan_last() {
        for nan in nans() {
            let mut v = [
                OrdF64(nan),
                OrdF64(2.0),
                OrdF64(f64::NEG_INFINITY),
                OrdF64(1.0),
            ];
            v.sort();
            assert_eq!(v[0].0, f64::NEG_INFINITY);
            assert_eq!(v[1].0, 1.0);
            assert_eq!(v[2].0, 2.0);
            assert!(v[3].0.is_nan());
        }
    }

    #[test]
    fn negative_zero_sorts_before_positive_zero() {
        // total_cmp distinguishes the zeros; document it so nobody relies
        // on -0.0 == 0.0 equality through this module.
        assert_eq!(cmp_dist(-0.0, 0.0), Ordering::Less);
    }
}
