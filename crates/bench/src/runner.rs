//! Workload construction and the crate's one per-query timing loop.

use std::sync::Arc;
use std::time::Instant;

use indoor_synthetic::{build_mall, HoursConfig, MallConfig, QueryGenConfig, ShopHours};
use indoor_time::TimeOfDay;
use itspq_core::{ItGraph, Query, QueryResult, SearchStats};

use crate::alloc_track::TrackingAllocator;

/// A built venue + graph for one `|T|` setting.
pub struct Workload {
    /// The IT-Graph over the generated mall, `Arc`-shared so every engine
    /// and server measured against it references one venue allocation.
    pub graph: Arc<ItGraph>,
    /// The sampled checkpoint set.
    pub hours: ShopHours,
    /// `|T|` used to build it.
    pub t_size: usize,
}

impl Workload {
    /// Builds the paper-default five-floor mall for a given `|T|`.
    #[must_use]
    pub fn paper(t_size: usize) -> Self {
        Self::with_mall(MallConfig::paper_default(), t_size)
    }

    /// Builds a venue with a custom mall configuration.
    #[must_use]
    pub fn with_mall(mall: MallConfig, t_size: usize) -> Self {
        let hours = ShopHours::sample(&HoursConfig::default().with_t_size(t_size));
        let space = build_mall(&mall, &hours);
        Workload {
            graph: ItGraph::shared(space),
            hours,
            t_size,
        }
    }

    /// Generates the paper's query instances on this venue.
    #[must_use]
    pub fn queries(&self, delta: f64, time: TimeOfDay, pairs: usize) -> Vec<Query> {
        indoor_synthetic::generate_queries(
            &self.graph,
            &QueryGenConfig::default()
                .with_delta(delta)
                .with_time(time)
                .with_count(pairs),
        )
        .into_iter()
        .map(|g| g.query)
        .collect()
    }
}

/// One method the timing loop runs: a row label and how it answers a query.
pub struct Method<'a> {
    /// The label of the method's rows in tables and baselines.
    pub label: String,
    run: Box<dyn Fn(&Query) -> Answer + 'a>,
}

impl<'a> Method<'a> {
    /// A method that answers each query with `run`.
    #[must_use]
    pub fn new(label: impl Into<String>, run: impl Fn(&Query) -> Answer + 'a) -> Self {
        Method {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

/// What one run of a method answered, as the timing loop counts it.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Whether the method found a route.
    pub found: bool,
    /// The search's counters; `None` for a method that reports none.
    pub stats: Option<SearchStats>,
}

impl From<QueryResult> for Answer {
    fn from(result: QueryResult) -> Self {
        Answer {
            found: result.path.is_some(),
            stats: Some(result.stats),
        }
    }
}

/// The distribution of a set of timings, ranked by the nearest-rank method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    /// Number of timings.
    pub samples: usize,
    /// Mean timing.
    pub mean: f64,
    /// Fastest timing.
    pub min: f64,
    /// Median timing.
    pub p50: f64,
    /// The highest whole percentile with at least ten timings beyond it,
    /// and its timing; `None` under 40 timings, where it would be no tail.
    pub tail: Option<(usize, f64)>,
    /// Slowest timing.
    pub max: f64,
}

impl Distribution {
    /// The distribution of `samples` (0 everywhere for none).
    #[must_use]
    pub fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let tail = (n >= 40).then(|| 100 * (n - 10) / n);
        Distribution {
            samples: n,
            mean: samples.iter().sum::<f64>() / n.max(1) as f64,
            min: samples.first().copied().unwrap_or(0.0),
            p50: nearest_rank(&samples, 0.50),
            tail: tail.map(|p| (p, nearest_rank(&samples, p as f64 / 100.0))),
            max: samples.last().copied().unwrap_or(0.0),
        }
    }
}

/// One method's per-query times over a query set, in microseconds, with
/// the queries it found a route for and those it found none for apart. A
/// query's time is the mean of its timed runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The method's label.
    pub label: String,
    /// Every query.
    pub all: Distribution,
    /// The queries the method found a route for.
    pub found: Distribution,
    /// The queries the method found no route for.
    pub no_route: Distribution,
    /// Each query's counters from a warm run; empty for a method that
    /// reports none.
    pub stats: Vec<SearchStats>,
    /// Mean allocator peak delta per query in KB: a warm query (its own
    /// warm-up run just finished) on a thread whose search state is pooled
    /// from earlier queries. 0 when the tracking allocator is not
    /// registered, e.g. in unit tests.
    pub alloc_peak_kb: f64,
}

impl Measurement {
    /// The mean of one counter per query; `None` for a method that reports
    /// no counters.
    #[must_use]
    pub fn mean(&self, counter: impl Fn(&SearchStats) -> usize) -> Option<f64> {
        let n = self.stats.len();
        (n > 0).then(|| self.stats.iter().map(counter).sum::<usize>() as f64 / n as f64)
    }
}

/// Times `methods` over `queries`, interleaved per query, so drift while
/// the set runs lands on every method alike. Each method in turn warms a
/// query once (filling ITG/A's views, faulting in code paths), runs it once
/// more for its counters and allocator peak, then times it `runs` times
/// (the paper runs each instance ten times and averages). Returns one
/// [`Measurement`] per method, in order.
#[must_use]
pub fn measure_query_set(
    queries: &[Query],
    methods: &[Method<'_>],
    runs: usize,
) -> Vec<Measurement> {
    let runs = runs.max(1);
    // Per method, per query: its time in µs, its answer and its allocator
    // peak in bytes.
    let mut tallies: Vec<Vec<(f64, Answer, usize)>> =
        vec![Vec::with_capacity(queries.len()); methods.len()];
    for q in queries {
        for (method, tally) in methods.iter().zip(&mut tallies) {
            let _ = (method.run)(q);
            let (answer, alloc) = TrackingAllocator::measure(|| (method.run)(q));
            let start = Instant::now();
            for _ in 0..runs {
                std::hint::black_box((method.run)(std::hint::black_box(q)));
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / runs as f64;
            tally.push((us, answer, alloc));
        }
    }
    methods
        .iter()
        .zip(tallies)
        .map(|(method, tally)| {
            let split = |keep: fn(bool) -> bool| {
                Distribution::of(
                    tally
                        .iter()
                        .filter(|t| keep(t.1.found))
                        .map(|t| t.0)
                        .collect(),
                )
            };
            let alloc_bytes: usize = tally.iter().map(|t| t.2).sum();
            Measurement {
                label: method.label.clone(),
                all: split(|_| true),
                found: split(|found| found),
                no_route: split(|found| !found),
                stats: tally.iter().filter_map(|t| t.1.stats).collect(),
                alloc_peak_kb: alloc_bytes as f64 / 1024.0 / queries.len().max(1) as f64,
            }
        })
        .collect()
}

/// The `q`-quantile (`0 < q ≤ 1`) of ascending `sorted` by the nearest-rank
/// method: the smallest sample with at least `q · n` samples at or below it
/// (0 for no samples).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_synthetic::MallConfig;
    use itspq_core::{AsynEngine, AsynMode, ItspqConfig, SynEngine};

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.50), 50.0);
        assert_eq!(nearest_rank(&xs, 0.99), 99.0);
        assert_eq!(nearest_rank(&xs[..3], 0.50), 2.0);
        assert_eq!(nearest_rank(&xs[..3], 0.99), 3.0);
        assert_eq!(nearest_rank(&xs[..1], 0.99), 1.0);
        assert_eq!(nearest_rank(&[], 0.50), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ranks = |n: usize| Distribution::of((1..=n).map(|i| i as f64).collect());
        assert_eq!(ranks(39).tail, None, "no tail under 40 samples");
        assert_eq!(ranks(40).tail, Some((75, 30.0)));
        assert_eq!(ranks(100).tail, Some((90, 90.0)));
        assert_eq!(ranks(1000).tail, Some((99, 990.0)));
        for n in 40..=2000 {
            let (p, at) = ranks(n).tail.unwrap();
            // Sample `at` has rank `at`: ten or more lie beyond it, and one
            // percentile up would leave fewer than ten.
            assert!(n - at as usize >= 10, "n = {n}: p{p} at rank {at}");
            assert!(
                p == 99 || (p + 1) * n > 100 * (n - 10),
                "n = {n}: p{p} is not the highest"
            );
        }
        let d = ranks(100);
        assert_eq!(
            (d.samples, d.min, d.p50, d.max, d.mean),
            (100, 1.0, 50.0, 100.0, 50.5)
        );
    }

    #[test]
    fn found_and_no_route_add_up_to_every_query() {
        let ex = indoor_space::paper_example::build();
        let syn = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::default());
        let queries = [
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)), // Example 1: no route
            Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)),
        ];
        let methods = [Method::new("ITG/S", |q| syn.query(q).into())];
        let [m] = <[Measurement; 1]>::try_from(measure_query_set(&queries, &methods, 2)).unwrap();
        assert_eq!(m.all.samples, 3);
        assert_eq!(m.found.samples + m.no_route.samples, m.all.samples);
        assert!(m.found.samples >= 1 && m.no_route.samples >= 1, "{m:?}");
        assert!(m.all.min > 0.0 && m.all.p50 <= m.all.max && m.all.mean <= m.all.max);
        assert!(m.found.max <= m.all.max && m.no_route.max <= m.all.max);
        assert_eq!(m.stats.len(), 3);
        assert!(m.mean(SearchStats::estimated_bytes).unwrap() > 0.0);
    }

    #[test]
    fn identical_methods_interleaved_give_equal_counters() {
        let w = Workload::with_mall(MallConfig::single_floor(), 8);
        let mut queries = w.queries(600.0, TimeOfDay::hm(12, 0), 4);
        queries.extend(w.queries(600.0, TimeOfDay::hm(21, 58), 4));
        let config = ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact);
        let (a, b) = (
            AsynEngine::new(w.graph.clone(), config),
            AsynEngine::new(w.graph.clone(), config),
        );
        let methods = [
            Method::new("a", |q| a.query(q).into()),
            Method::new("b", |q| b.query(q).into()),
            Method::new("no counters", |q| Answer {
                stats: None,
                ..a.query(q).into()
            }),
        ];
        let [ma, mb, mc] =
            <[Measurement; 3]>::try_from(measure_query_set(&queries, &methods, 2)).unwrap();
        assert_eq!(ma.all.samples, queries.len());
        assert_eq!(ma.stats, mb.stats);
        assert_eq!(
            (ma.found.samples, ma.no_route.samples),
            (mb.found.samples, mb.no_route.samples)
        );
        assert_eq!(ma.found.samples, mc.found.samples);
        assert_eq!(mc.mean(|s| s.doors_settled), None);
        assert!(ma.mean(|s| s.doors_settled).unwrap() > 0.0);
    }
}
