//! The harness's arithmetic: percentiles under a sample-count rule,
//! throughput, ratios, medians and the failure tally.

/// Samples that must lie beyond a percentile before it is reported: a p99
/// needs 1,000 samples, a median 20.
pub const TAIL_SAMPLES: usize = 10;

/// The `pct`-th percentile (1..=99) of ascending `sorted`, by nearest rank,
/// or `None` when fewer than [`TAIL_SAMPLES`] samples lie beyond it.
#[must_use]
pub fn percentile(sorted: &[u64], pct: usize) -> Option<u64> {
    if !(1..=99).contains(&pct) {
        return None;
    }
    let n = sorted.len();
    let rank = (pct * n).div_ceil(100);
    if rank == 0 || n - rank < TAIL_SAMPLES {
        return None;
    }
    sorted.get(rank - 1).copied()
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolated linearly
/// between the two nearest ranks, or `None` when empty. Sorts in place.
#[must_use]
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let last = values.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(values[lo] + (values[hi] - values[lo]) * (pos - lo as f64))
}

/// Median of `values` (the mean of the middle two for an even count), or
/// `None` when empty. Sorts in place.
#[must_use]
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The `q`-quantile over `parts` of each part's `pct`-th percentile, or
/// `None` when there are no parts or one is too small for the percentile.
#[must_use]
pub fn quantile_percentile(
    parts: impl IntoIterator<Item = Vec<u64>>,
    pct: usize,
    q: f64,
) -> Option<f64> {
    let mut per_part = Vec::new();
    for mut part in parts {
        part.sort_unstable();
        per_part.push(percentile(&part, pct)? as f64);
    }
    quantile(&mut per_part, q)
}

/// Items per second of busy time, or `None` when nothing was timed.
#[must_use]
pub fn per_second(items: u64, busy_nanos: u64) -> Option<f64> {
    (busy_nanos > 0).then(|| items as f64 / (busy_nanos as f64 / 1e9))
}

/// `num / den`, reading 0 when there is nothing to divide by (an idle layer).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Operations attempted and failed, in the contract's sense: an operation
/// fails when its answer fails any check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose answer failed a check.
    pub failed: u64,
}

impl Tally {
    /// Books one operation and whether its answer passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// True when something ran and nothing failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&ramp(1000), 99), Some(990));
        assert_eq!(percentile(&ramp(5000), 99), Some(4950));
    }

    #[test]
    fn median_needs_twenty_samples_and_uses_nearest_rank() {
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10));
        assert_eq!(percentile(&ramp(21), 50), Some(11));
        assert_eq!(percentile(&[7; 40], 50), Some(7));
    }

    #[test]
    fn percentile_rejects_degenerate_requests() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&ramp(5000), 0), None);
        assert_eq!(percentile(&ramp(5000), 100), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.1), Some(1.0));
        assert_eq!(quantile(&mut v, 0.9), Some(9.0));
        assert_eq!(quantile(&mut v, 0.25), Some(2.5));
        assert_eq!(quantile(&mut v, 0.0), Some(0.0));
        assert_eq!(quantile(&mut v, 1.0), Some(10.0));
        assert_eq!(quantile(&mut [4.0, 2.0], 0.1), Some(2.2));
        assert_eq!(quantile(&mut [7.0], 0.1), Some(7.0));
        assert_eq!(quantile(&mut [], 0.1), None);
    }

    #[test]
    fn quantile_percentile_takes_each_part_then_the_quantile() {
        // Parts arrive unsorted, in run order.
        let slow: Vec<u64> = (1001..=2000).rev().collect();
        let fast = ramp(1000);
        let parts = [fast.clone(), fast.clone(), slow.clone()];
        assert_eq!(quantile_percentile(parts.clone(), 99, 0.5), Some(990.0));
        assert_eq!(quantile_percentile(parts, 99, 1.0), Some(1990.0));
        let two = [fast.clone(), slow];
        assert_eq!(quantile_percentile(two.clone(), 50, 0.5), Some(1000.0));
        assert_eq!(quantile_percentile(two, 50, 0.1), Some(600.0));
        // One part too small for a p99 voids the figure.
        assert_eq!(quantile_percentile([fast, ramp(999)], 99, 0.1), None);
        assert_eq!(quantile_percentile([], 50, 0.5), None);
    }

    #[test]
    fn throughput_is_items_per_busy_second() {
        assert_eq!(per_second(500, 250_000_000), Some(2000.0));
        assert_eq!(per_second(3, 0), None);
    }

    #[test]
    fn ratios_read_zero_on_idle_layers() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert!(!t.correct(), "nothing attempted is not a pass");
        t.record(true);
        t.record(true);
        assert!(t.correct());
        t.record(false);
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert!(!t.correct());
    }
}
