//! Shop-hours pool and checkpoint-set sampling.
//!
//! The paper crawls the opening hours of shops in five Hong Kong malls and
//! forms the checkpoint set `T` (sizes 4, 8, 12, 16) from random open/close
//! pairs; each temporally-varying door receives up to three ATIs built from
//! `T`. The crawl itself is unavailable, so [`ShopHours`] substitutes a pool
//! of typical mall hours with the same structure.
//!
//! Two sampling modes are provided:
//!
//! * [`Sampling::Nested`] (default) grows `T` monotonically — early opens
//!   first, late closes first — so that increasing `|T|` monotonically closes
//!   more doors at 8:00, reproducing the trend of the paper's Figure 4;
//! * [`Sampling::Random`] draws uniformly from the pool, matching the paper's
//!   wording literally at the cost of trend stability across seeds.

use indoor_time::{AtiList, Interval, TimeOfDay};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// How the checkpoint set `T` is drawn from the hours pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// Deterministic prefix of the pool (stable monotone trends).
    Nested,
    /// Uniform sample without replacement.
    Random,
}

/// Configuration for temporal-variation generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoursConfig {
    /// `|T|`: total number of checkpoint times (opens + closes). The paper
    /// uses 4, 8, 12 or 16 (default 8).
    pub t_size: usize,
    /// Maximum ATIs per varying door (paper: up to three).
    pub max_atis: usize,
    /// Sampling mode for `T`.
    pub sampling: Sampling,
    /// Seed for `T` sampling (only used by [`Sampling::Random`]) and as the
    /// base seed for per-door ATI assignment.
    pub seed: u64,
}

impl Default for HoursConfig {
    fn default() -> Self {
        HoursConfig {
            t_size: 8,
            max_atis: 3,
            sampling: Sampling::Nested,
            seed: 0x5EED,
        }
    }
}

impl HoursConfig {
    /// The largest `|T|` [`ShopHours::sample`] can draw: one open and one
    /// close time per entry of the hours pool.
    pub const MAX_T_SIZE: usize = 16;

    /// Whether [`ShopHours::sample`] accepts this `|T|`: an even count (open
    /// and close times pair up) from 2 to [`HoursConfig::MAX_T_SIZE`].
    #[must_use]
    pub fn t_size_is_valid(&self) -> bool {
        self.t_size.is_multiple_of(2) && (2..=Self::MAX_T_SIZE).contains(&self.t_size)
    }

    /// The paper's default setting (`|T| = 8`).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Returns a copy with the given `|T|`.
    #[must_use]
    pub fn with_t_size(mut self, t_size: usize) -> Self {
        self.t_size = t_size;
        self
    }

    /// Returns a copy with the given seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The pool of opening times, ordered for nested sampling: times at or before
/// 8:00 first so that small `T` keeps doors open at the paper's 8:00 probe.
fn opens_pool() -> [TimeOfDay; HoursConfig::MAX_T_SIZE / 2] {
    [
        TimeOfDay::hm(8, 0),
        TimeOfDay::hm(7, 0),
        TimeOfDay::hm(9, 0),
        TimeOfDay::hm(10, 30),
        TimeOfDay::hm(10, 0),
        TimeOfDay::hm(11, 0),
        TimeOfDay::hm(8, 30),
        TimeOfDay::hm(9, 30),
    ]
}

/// The pool of closing times, ordered for nested sampling: late closes first
/// so that the default `T` keeps the paper's 10:00–20:00 plateau intact.
fn closes_pool() -> [TimeOfDay; HoursConfig::MAX_T_SIZE / 2] {
    [
        TimeOfDay::hm(21, 0),
        TimeOfDay::hm(22, 0),
        TimeOfDay::hm(20, 0),
        TimeOfDay::hm(23, 0),
        TimeOfDay::hm(17, 0),
        TimeOfDay::hm(18, 0),
        TimeOfDay::hm(19, 0),
        TimeOfDay::hm(21, 30),
    ]
}

/// A sampled checkpoint set `T`: the open times and close times doors may use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShopHours {
    opens: Vec<TimeOfDay>,
    closes: Vec<TimeOfDay>,
    max_atis: usize,
    seed: u64,
}

impl ShopHours {
    /// Samples `T` according to the configuration.
    ///
    /// # Panics
    /// Panics unless [`HoursConfig::t_size_is_valid`].
    #[must_use]
    pub fn sample(cfg: &HoursConfig) -> Self {
        assert!(
            cfg.t_size_is_valid(),
            "|T| must be even and between 2 and {}",
            HoursConfig::MAX_T_SIZE
        );
        let half = cfg.t_size / 2;
        let opens_pool = opens_pool();
        let closes_pool = closes_pool();
        let (opens, closes) = match cfg.sampling {
            Sampling::Nested => (opens_pool[..half].to_vec(), closes_pool[..half].to_vec()),
            Sampling::Random => {
                let mut rng = StdRng::seed_from_u64(cfg.seed);
                (
                    sample_without_replacement(&opens_pool, half, &mut rng),
                    sample_without_replacement(&closes_pool, half, &mut rng),
                )
            }
        };
        ShopHours {
            opens,
            closes,
            max_atis: cfg.max_atis,
            seed: cfg.seed,
        }
    }

    /// The open times in `T`.
    #[must_use]
    pub fn opens(&self) -> &[TimeOfDay] {
        &self.opens
    }

    /// The close times in `T`.
    #[must_use]
    pub fn closes(&self) -> &[TimeOfDay] {
        &self.closes
    }

    /// `|T|`.
    #[must_use]
    pub fn t_size(&self) -> usize {
        self.opens.len() + self.closes.len()
    }

    /// All checkpoint times of `T` in ascending order.
    #[must_use]
    pub fn checkpoint_times(&self) -> Vec<TimeOfDay> {
        let mut t: Vec<TimeOfDay> = self
            .opens
            .iter()
            .chain(self.closes.iter())
            .copied()
            .collect();
        t.sort();
        t.dedup();
        t
    }

    /// Draws the ATIs for one varying door: 1 ..= `max_atis` random
    /// `[open, close)` pairs from `T`, normalised into an [`AtiList`].
    pub fn random_atis(&self, rng: &mut impl Rng) -> AtiList {
        let k = rng.random_range(1..=self.max_atis.max(1));
        let mut intervals = Vec::with_capacity(k);
        for _ in 0..k {
            let open = self.opens[rng.random_range(0..self.opens.len())];
            let close = self.closes[rng.random_range(0..self.closes.len())];
            // Inverted draws (open >= close) are simply skipped; Interval::new
            // rejects them, so the push only happens for well-formed pairs.
            if let Ok(iv) = Interval::new(open, close) {
                intervals.push(iv);
            }
        }
        if intervals.is_empty() {
            // All draws were inverted pairs (possible only with exotic pools);
            // fall back to the earliest-open/latest-close pair.
            if let (Some(&open), Some(&close)) = (self.opens.iter().min(), self.closes.iter().max())
            {
                if let Ok(iv) = Interval::new(open, close) {
                    intervals.push(iv);
                }
            }
        }
        AtiList::from_intervals(intervals).unwrap_or_else(|_| AtiList::never_open())
    }

    /// A deterministic RNG for door-ATI assignment derived from the base seed.
    #[must_use]
    pub fn door_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ 0xD00D)
    }
}

fn sample_without_replacement(pool: &[TimeOfDay], k: usize, rng: &mut impl Rng) -> Vec<TimeOfDay> {
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    // Partial Fisher–Yates.
    for i in 0..k {
        let j = rng.random_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..k].iter().map(|&i| pool[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_sets_are_prefixes() {
        let t4 = ShopHours::sample(&HoursConfig::default().with_t_size(4));
        let t8 = ShopHours::sample(&HoursConfig::default().with_t_size(8));
        let t16 = ShopHours::sample(&HoursConfig::default().with_t_size(16));
        assert_eq!(t4.t_size(), 4);
        assert_eq!(t8.t_size(), 8);
        assert_eq!(t16.t_size(), 16);
        assert_eq!(&t8.opens()[..2], t4.opens());
        assert_eq!(&t16.opens()[..4], t8.opens());
        assert_eq!(&t16.closes()[..4], t8.closes());
    }

    #[test]
    fn nested_small_t_keeps_doors_open_at_8() {
        // With |T| = 4 every open time is <= 8:00 …
        let t4 = ShopHours::sample(&HoursConfig::default().with_t_size(4));
        assert!(t4.opens().iter().all(|&o| o <= TimeOfDay::hm(8, 0)));
        // … while |T| = 16 has mostly later opens.
        let t16 = ShopHours::sample(&HoursConfig::default().with_t_size(16));
        let late = t16
            .opens()
            .iter()
            .filter(|&&o| o > TimeOfDay::hm(8, 0))
            .count();
        assert!(late >= 5, "expected most opens after 8:00, got {late} of 8");
    }

    #[test]
    fn random_sampling_is_seeded() {
        let cfg = HoursConfig {
            sampling: Sampling::Random,
            ..HoursConfig::default()
        };
        let a = ShopHours::sample(&cfg);
        let b = ShopHours::sample(&cfg);
        assert_eq!(a, b);
        let c = ShopHours::sample(&HoursConfig { seed: 999, ..cfg });
        // Different seed may give a different set (it does for this pool).
        assert!(a != c || a.opens() == c.opens());
    }

    #[test]
    fn random_atis_use_t_only() {
        let hours = ShopHours::sample(&HoursConfig::default());
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let atis = hours.random_atis(&mut rng);
            assert!(!atis.is_never_open());
            assert!(atis.intervals().len() <= 3);
            for iv in atis.intervals() {
                assert!(
                    hours.opens().contains(&iv.start()) || {
                        // A merged interval may start at any sampled open …
                        hours.opens().iter().any(|&o| o == iv.start())
                    }
                );
                assert!(hours.closes().contains(&iv.end()));
            }
        }
    }

    #[test]
    fn checkpoint_times_sorted_unique() {
        let hours = ShopHours::sample(&HoursConfig::default().with_t_size(16));
        let times = hours.checkpoint_times();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(times.len(), 16); // pools share no values
    }

    #[test]
    fn valid_t_sizes_are_even_up_to_the_pool() {
        let valid: Vec<usize> = (0..=20)
            .filter(|&t| HoursConfig::default().with_t_size(t).t_size_is_valid())
            .collect();
        assert_eq!(valid, [2, 4, 6, 8, 10, 12, 14, 16]);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_t_rejected() {
        let _ = ShopHours::sample(&HoursConfig::default().with_t_size(5));
    }

    #[test]
    #[should_panic(expected = "between 2")]
    fn oversize_t_rejected() {
        let _ = ShopHours::sample(&HoursConfig::default().with_t_size(20));
    }
}
