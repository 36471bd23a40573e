//! The workloads: venue, traffic, driver, and the pinned serving engine.
//!
//! Every workload serves the engine the roadmap converges on — ITG/A in
//! exact mode with full relaxation, exact-key batch sharing — so the
//! benchmark keeps measuring the same program as the code underneath
//! changes. The engine is set field by field, never taken from
//! `ServerConfig::default()`, whose defaults are expected to move.

use std::time::Instant;

use indoor_synthetic::{
    build_mall, generate_queries, GeneratedQuery, HoursConfig, MallConfig, QueryGenConfig,
    ShopHours, SourceDistribution,
};
use indoor_time::TimeOfDay;
use itspq_core::{
    AsynMode, BatchStrategy, ItGraph, ItspqConfig, Query, ServeMethod, ServerConfig, VenueServer,
};

use crate::trace::Tracer;

/// How the single client drives the server: a closed loop, the next call
/// sent only after the previous one returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One `VenueServer::try_query` at a time.
    Point,
    /// One `VenueServer::try_query_batch_with_stats` at a time.
    Batch,
}

/// How a run's timed calls become its latency and throughput figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    /// The median over bring-ups of each one's p50 and throughput, and the
    /// median over quarters of the run of each one's p99. Bring-ups differ
    /// by layout (see [`place`]), so the median keeps a typical layout.
    MedianBringUp,
    /// Each figure over slices of one traffic cycle: the fastest tenth of
    /// the slices' p50s and p99s, and the same rank of their throughputs.
    /// A slice serves every distinct operation once, so slices differ only
    /// in when they ran. On a shared 2-vCPU host, other tenants slowed the
    /// single-threaded `tall-point` loop by ~45% in episodes of seconds
    /// that could fill most of a run. They never speed it up, so the
    /// fastest tenth reads the program on a quiet host.
    FastestTenth,
}

/// One benchmark workload.
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses.
    pub why: &'static str,
    /// Floors of the comb-corridor mall it serves.
    pub floors: u16,
    /// Server worker threads.
    pub workers: usize,
    /// How the client calls the server.
    pub driver: Driver,
    /// Timed operations (queries or batches) per second of `--seconds`. A
    /// run makes a fixed number of operations, so a seed always yields the
    /// same run shape; the rate is sized so a run takes about `--seconds`
    /// on a 2-thread host.
    pub ops_per_second: usize,
    /// Timed bring-ups per pass. Each serves an equal share of the
    /// operations, so one server's luck with memory placement cannot set
    /// a run's figures; the median bring-up is `setup_s`.
    pub rounds: usize,
    /// How the run's timings are summarised.
    pub summary: Summary,
    /// The distinct operations the timed loop cycles through.
    traffic: fn(&ItGraph, u64) -> Vec<Vec<Query>>,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tall-point",
        why: "50-floor mall, one 100 m query at a time: a query settles ~6 doors, so per-query \
              O(doors) search set-up dominates; also the heaviest venue build",
        floors: 50,
        workers: 1,
        driver: Driver::Point,
        ops_per_second: 60_000,
        rounds: 16,
        summary: Summary::FastestTenth,
        traffic: tall_point,
    },
    Workload {
        name: "mall-uniform",
        why:
            "5-floor mall, batches of 32 fresh-source 1,500 m queries on 2 workers: long searches \
              and shared ITG/A view lookups, nothing to share (bypass case)",
        floors: 5,
        workers: 2,
        driver: Driver::Batch,
        ops_per_second: 150,
        rounds: 32,
        summary: Summary::MedianBringUp,
        traffic: mall_uniform,
    },
    Workload {
        name: "mall-kiosk",
        why: "5-floor mall, batches of 64: half identical kiosk requests at hot instants, half \
              phones nearby up to 3 min later, so plan, shared search and scatter all work",
        floors: 5,
        workers: 2,
        driver: Driver::Batch,
        ops_per_second: 55,
        rounds: 32,
        summary: Summary::MedianBringUp,
        traffic: mall_kiosk,
    },
];

/// The workload called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The pinned serving engine on `workers` threads.
#[must_use]
pub fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        method: ServeMethod::Asyn,
        strategy: BatchStrategy::Shared,
        itspq: ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact),
        ..ServerConfig::default()
    }
}

fn step<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    round: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, round, f),
        None => f(),
    }
}

impl Workload {
    /// Brings a venue up through the public API — build the mall, share
    /// its IT-Graph, start the server, warm every checkpoint view — and
    /// returns the warm server with the nanoseconds it took. With a tracer,
    /// each step is a span under one `setup.bring_up` span.
    pub fn bring_up(&self, mut tracer: Option<&mut Tracer>, round: u64) -> (VenueServer, u64) {
        let start = Instant::now();
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open("setup.bring_up", None, round));
        let mall = MallConfig::paper_default()
            .with_floors(self.floors)
            .with_comb_corridors();
        let hours = ShopHours::sample(&HoursConfig::default());
        let space = step(&mut tracer, "builder.build_mall", root, round, || {
            build_mall(&mall, &hours)
        });
        let graph = step(&mut tracer, "graph.shared", root, round, || {
            ItGraph::shared(space)
        });
        let server = step(&mut tracer, "server.with_config", root, round, || {
            VenueServer::with_config(graph, server_config(self.workers))
        });
        step(&mut tracer, "views.warm", root, round, || server.warm());
        let nanos = start.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (tracer, root) {
            t.close(id);
        }
        (server, nanos)
    }

    /// The distinct operations for `seed`: single-query units on a point
    /// workload, whole batches on a batch workload.
    #[must_use]
    pub fn traffic(&self, graph: &ItGraph, seed: u64) -> Vec<Vec<Query>> {
        (self.traffic)(graph, seed)
    }
}

/// A server stored `8 × WORDS` bytes into a 64-byte cache line.
#[repr(C, align(64))]
struct At<const WORDS: usize> {
    _pad: [u64; WORDS],
    server: VenueServer,
}

impl<const WORDS: usize> AsRef<VenueServer> for At<WORDS> {
    fn as_ref(&self) -> &VenueServer {
        &self.server
    }
}

/// Moves `server` to the heap at the cache-line offset `8 × (slot mod 8)`
/// bytes.
///
/// Where a server sits within its cache line decides how its read-mostly
/// fields share lines with the locks that workers write on every view
/// lookup: on a 2-thread host, two workers serve mall batches at about
/// 3.3k q/s at one offset and 5.0k q/s at another. A server kept on the
/// stack has one offset per process, set by stack randomisation, which
/// makes whole runs fast or slow. Rotating the offset over the bring-ups
/// of a run measures the mean over placements instead.
#[must_use]
pub fn place(server: VenueServer, slot: usize) -> Box<dyn AsRef<VenueServer>> {
    fn at<const WORDS: usize>(server: VenueServer) -> Box<dyn AsRef<VenueServer>> {
        Box::new(At::<WORDS> {
            _pad: [0; WORDS],
            server,
        })
    }
    match slot % 8 {
        0 => at::<0>(server),
        1 => at::<1>(server),
        2 => at::<2>(server),
        3 => at::<3>(server),
        4 => at::<4>(server),
        5 => at::<5>(server),
        6 => at::<6>(server),
        _ => at::<7>(server),
    }
}

#[inline(never)]
fn below_pad<const BYTES: usize, T>(f: impl FnOnce() -> T) -> T {
    let pad = [0u8; BYTES];
    std::hint::black_box(&pad);
    f()
}

/// Runs `f` with the stack `16 × (slot mod 4)` bytes deeper.
///
/// The batch call and the venue builder keep the counter their worker
/// threads race on in the caller's stack frame, beside data the workers
/// read. Whether they share a cache line depends on the stack's offset
/// within a line, which stack randomisation sets once per process.
/// Rotating it over the bring-ups of a run, as [`place`] does for the
/// server, measures the mean.
pub fn on_shifted_stack<T>(slot: usize, f: impl FnOnce() -> T) -> T {
    match slot % 4 {
        0 => below_pad::<0, T>(f),
        1 => below_pad::<16, T>(f),
        2 => below_pad::<32, T>(f),
        _ => below_pad::<48, T>(f),
    }
}

/// The layout slots of bring-up `round`: the server's cache-line offset
/// slot for [`place`] and the stack slot for [`on_shifted_stack`]. Every
/// 32 rounds cover each pair once; every 8 cover each offset once.
#[must_use]
pub fn layout(round: usize) -> (usize, usize) {
    (round % 8, (round + round / 8) % 4)
}

/// SplitMix64: the harness's own seeded stream for draws and shuffles.
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`; the modulo bias is below 2⁻⁵⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Rank in `0..n` with probability proportional to `1 / (rank + 1)`.
    pub fn zipf(&mut self, n: usize) -> usize {
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let mut u = self.unit() * total;
        for rank in 0..n {
            u -= 1.0 / (rank + 1) as f64;
            if u < 0.0 {
                return rank;
            }
        }
        n.saturating_sub(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Clock time `secs` after midnight (in range by construction).
fn at(secs: f64) -> TimeOfDay {
    TimeOfDay::from_seconds(secs).unwrap_or(TimeOfDay::MIDNIGHT)
}

fn pairs(graph: &ItGraph, delta: f64, count: usize, seed: u64) -> Vec<GeneratedQuery> {
    let cfg = QueryGenConfig::default()
        .with_delta(delta)
        .with_count(count)
        .with_seed(seed);
    generate_queries(graph, &cfg)
}

/// Source/target pairs of the point workload. The slowest 1% of queries
/// sets the p99, so the pool must be large enough that no handful of pairs
/// decides it: with 240 pairs, one seed's p99 sat 15% above another's.
/// Generation runs a full door Dijkstra per pair, about 10 ms on 50
/// floors, so the two halves of the pool are generated on two threads.
const POINT_PAIRS: usize = 960;
/// Departures of every point pair: four instants from 10:30 to 19:00, all
/// inside one checkpoint interval of the default |T| = 8.
const POINT_DEPARTURES: usize = 4;

fn tall_point(graph: &ItGraph, seed: u64) -> Vec<Vec<Query>> {
    let halves: Vec<Vec<GeneratedQuery>> = std::thread::scope(|scope| {
        let half = |h: u64| {
            scope.spawn(move || pairs(graph, 100.0, POINT_PAIRS / 2, seed.wrapping_mul(2) + h))
        };
        let (a, b) = (half(0), half(1));
        [a, b]
            .map(|t| t.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .into()
    });
    let mut units: Vec<Vec<Query>> = halves
        .iter()
        .flatten()
        .flat_map(|g| {
            (0..POINT_DEPARTURES).map(move |k| {
                let t = at((630 + 170 * k) as f64 * 60.0);
                vec![Query::new(g.query.source, g.query.target, t)]
            })
        })
        .collect();
    Rng::new(seed).shuffle(&mut units);
    units
}

/// Fresh-source queries dealt into the uniform batches.
const UNIFORM_POOL: usize = 1024;
const UNIFORM_BATCH: usize = 32;
/// Distinct uniform batches; the timed loop cycles through them.
const UNIFORM_BATCHES: usize = 64;

fn mall_uniform(graph: &ItGraph, seed: u64) -> Vec<Vec<Query>> {
    let departures = [(8, 50), (12, 0), (19, 30), (22, 40)].map(|(h, m)| TimeOfDay::hm(h, m));
    let mut rng = Rng::new(seed);
    let pool: Vec<Query> = pairs(graph, 1500.0, UNIFORM_POOL, seed)
        .iter()
        .map(|g| Query::new(g.query.source, g.query.target, departures[rng.below(4)]))
        .collect();
    // Deal shuffled decks, so a batch never holds one pool entry twice:
    // every source is fresh and nothing can be shared.
    let mut order: Vec<usize> = (0..pool.len()).collect();
    let mut batches = Vec::with_capacity(UNIFORM_BATCHES);
    while batches.len() < UNIFORM_BATCHES {
        rng.shuffle(&mut order);
        for deal in order
            .chunks_exact(UNIFORM_BATCH)
            .take(UNIFORM_BATCHES - batches.len())
        {
            batches.push(deal.iter().map(|&i| pool[i]).collect());
        }
    }
    batches
}

/// Kiosk points: the zipf-ranked pool of bit-identical sources.
const KIOSK_POINTS: usize = 8;
/// Generated kiosk and phone requests the batches draw from.
const KIOSK_POOL: usize = 256;
/// The kiosk site — kiosk points, the requests made at them and the phone
/// requests around them — is generated from this fixed seed, as the venue
/// is built without one: with a seeded site, which few points won the draw
/// moved the sharing ratio by ±7% between seeds. The run seed draws the
/// batches from the site.
const KIOSK_SITE_SEED: u64 = 0x6B10_5C5E;
/// Hot departure instants in zipf rank order: lunch, early afternoon and
/// evening, all inside one checkpoint interval. They are fixed rather than
/// drawn, because the hour sets how many doors are open and so how much a
/// search explores.
const HOT_INSTANTS: [(u32, u32); 3] = [(12, 15), (13, 40), (18, 45)];
/// Phones depart up to this long after their hot instant.
const PHONE_LAG_SECS: f64 = 180.0;
const KIOSK_BATCH: usize = 64;
const KIOSK_BATCHES: usize = 48;

fn mall_kiosk(graph: &ItGraph, seed: u64) -> Vec<Vec<Query>> {
    let base = QueryGenConfig::default()
        .with_delta(1500.0)
        .with_count(KIOSK_POOL)
        .with_seed(KIOSK_SITE_SEED);
    // Kiosk requests come evenly from every kiosk point here; the batches
    // below rank the points by zipf, so how much a batch can share does not
    // hang on how the generator happened to spread the pool.
    let even = SourceDistribution::Zipf {
        exponent: 0.0,
        pool: KIOSK_POINTS,
    };
    // The same seed and pool give `ZipfNear` the kiosks' partitions.
    let near = SourceDistribution::ZipfNear {
        exponent: 1.0,
        pool: KIOSK_POINTS,
    };
    let mut kiosks: Vec<Vec<Query>> = Vec::new();
    for g in generate_queries(graph, &base.with_source(even)) {
        let same_point = |k: &&mut Vec<Query>| k[0].source == g.query.source;
        match kiosks.iter_mut().find(same_point) {
            Some(k) => k.push(g.query),
            None => kiosks.push(vec![g.query]),
        }
    }
    let phones = generate_queries(graph, &base.with_source(near));
    let mut rng = Rng::new(seed);
    let hot = HOT_INSTANTS.map(|(h, m)| TimeOfDay::hm(h, m).seconds());
    (0..KIOSK_BATCHES)
        .map(|_| {
            let mut batch = Vec::with_capacity(KIOSK_BATCH);
            for _ in 0..KIOSK_BATCH / 2 {
                let point = &kiosks[rng.zipf(kiosks.len())];
                let g = &point[rng.below(point.len())];
                let t = at(hot[rng.zipf(hot.len())]);
                batch.push(Query::new(g.source, g.target, t));
            }
            for _ in 0..KIOSK_BATCH / 2 {
                let g = &phones[rng.below(phones.len())].query;
                let t = at(hot[rng.zipf(hot.len())] + rng.unit() * PHONE_LAG_SECS);
                batch.push(Query::new(g.source, g.target, t));
            }
            rng.shuffle(&mut batch);
            batch
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_in_range() {
        let draws = |seed| {
            let mut rng = Rng::new(seed);
            (0..100).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(9), draws(9));
        assert_ne!(draws(9), draws(10));
        let mut a = Rng::new(9);
        for _ in 0..100 {
            let u = a.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(a.below(7) < 7);
            assert!(a.zipf(3) < 3);
        }
        let mut v: Vec<u32> = (0..50).collect();
        a.shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let mut rng = Rng::new(1);
        let mut hits = [0u32; 3];
        for _ in 0..6000 {
            hits[rng.zipf(3)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[2], "{hits:?}");
    }

    #[test]
    fn workloads_pin_the_serving_engine() {
        let c = server_config(2);
        assert_eq!(c.workers, 2);
        assert_eq!(c.method, ServeMethod::Asyn);
        assert_eq!(c.strategy, BatchStrategy::Shared);
        assert_eq!(
            c.itspq,
            ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact)
        );
        assert!(find("mall-kiosk").is_some() && find("nope").is_none());
    }
}
