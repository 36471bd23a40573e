//! Golden digests of everything the search reports.
//!
//! Each digest is a 64-bit FNV-1a hash with the fixed standard offset basis
//! (stable across runs, builds and platforms, unlike `RandomState`) over the
//! `Debug` rendering of every answer and every `SearchStats` counter except
//! `peak_heap`, fed in corpus order. There is one digest per corpus × method
//! × expand policy:
//!
//! * corpora: the paper's running example (every ordered pair of p1–p4, a
//!   v15 point and a v1 point, at nine instants around its checkpoints) and
//!   a two-floor synthetic mall (`generate_queries` at several times and
//!   distances, plus a zipf-sourced set that forms shared groups);
//! * methods: ITG/S, ITG/A-Exact, ITG/A-Faithful and the static and
//!   snapshot baselines;
//! * per corpus also: the bit patterns of `reachability`'s door and
//!   partition distances, and `Shared` server batches (answers plus
//!   `BatchStats::timings_zeroed`) for ITG/S, ITG/A-Exact and
//!   ITG/A-Faithful. A batch's `search_bytes` sequence has a digest of its
//!   own, so a re-based memory estimate shows up apart from the answers.
//!
//! Two answers-only digests per corpus pin what ITG/A-Exact answers apart
//! from how it gets there: the `path` of every point answer under both
//! expand policies, and every `Shared` batch answer, with no `SearchStats`
//! or `BatchStats`. A change to the work Exact does (which doors it walks,
//! which it checks) moves the counter digests above and must leave these.
//!
//! A second table per corpus pins the extension entry points: Yen's
//! `k_shortest_paths` (k = 1 and 3; on the mall also over its eight
//! stair-lobby queries), `earliest_arrival` under each wait policy, a
//! departure profile over one window, `paths_to_many` (answers and
//! counters) and the bit patterns of `door_distances`.
//!
//! A change to the search that alters any answer, any counter, or their
//! order, changes a digest. On a mismatch the test prints the whole
//! computed table, so an intended change is re-pinned by copying it.

use std::fmt::Write as _;
use std::sync::Arc;

use itspq_repro::core::one_to_many::{paths_to_many, reachability};
use itspq_repro::core::profile::departure_profile;
use itspq_repro::core::waiting::{earliest_arrival, WaitPolicy};
use itspq_repro::core::{baselines, k_shortest_paths, QueryResult};
use itspq_repro::geom::Point;
use itspq_repro::prelude::*;
use itspq_repro::space::paper_example;
use itspq_repro::synthetic::{
    build_mall, generate_queries, HoursConfig, MallConfig, QueryGenConfig, ShopHours,
    SourceDistribution, TimeDistribution,
};

/// FNV-1a, 64-bit. Every written item is followed by a `0xff` separator
/// (never a byte of valid UTF-8), so item boundaries are part of the hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write(&mut self, s: &str) {
        s.bytes().for_each(|b| self.byte(b));
        self.byte(0xff);
    }
}

/// Every counter except `peak_heap` and `search_bytes` (hashed by the
/// callers). The exhaustive destructuring turns a new field into a compile
/// error here instead of a silent gap in the pin.
fn counters(s: &SearchStats) -> String {
    let SearchStats {
        heap_pushes,
        heap_pops,
        peak_heap: _,
        doors_settled,
        partitions_expanded,
        relaxations,
        improvements,
        tv_checks,
        tv_rejections,
        graph_updates,
        views_built,
        search_bytes: _,
        reduced_graph_bytes,
    } = *s;
    format!(
        "{heap_pushes} {heap_pops} {doors_settled} {partitions_expanded} {relaxations} \
         {improvements} {tv_checks} {tv_rejections} {graph_updates} {views_built} \
         {reduced_graph_bytes}"
    )
}

fn point_answer(h: &mut Fnv, r: &QueryResult) {
    h.write(&format!("{:?}", r.path));
    h.write(&counters(&r.stats));
    h.write(&r.stats.search_bytes.to_string());
}

struct Corpus {
    name: &'static str,
    graph: Arc<ItGraph>,
    queries: Vec<Query>,
    /// Extra queries only the `k_shortest_paths` digests run.
    ksp_extra: Vec<Query>,
    /// The departure window of the profile digest.
    window: (TimeOfDay, TimeOfDay),
}

fn paper_corpus() -> Corpus {
    let ex = paper_example::build();
    let v15 = IndoorPoint::new(ex.v(15), Point::new(5.0, 0.0));
    let v1 = IndoorPoint::new(ex.v(1), Point::new(5.0, 35.0));
    let points = [ex.p1, ex.p2, ex.p3, ex.p4, v15, v1];
    let times = [
        TimeOfDay::hm(0, 30),
        TimeOfDay::hm(4, 0),
        TimeOfDay::hm(5, 58),
        TimeOfDay::hm(9, 0),
        TimeOfDay::hm(12, 0),
        TimeOfDay::hm(15, 55),
        TimeOfDay::hms(15, 59, 50),
        TimeOfDay::hm(22, 58),
        TimeOfDay::hm(23, 30),
    ];
    let mut queries = Vec::new();
    for &t in &times {
        for &s in &points {
            for &d in &points {
                queries.push(Query::new(s, d, t));
            }
        }
    }
    Corpus {
        name: "paper",
        graph: ItGraph::shared(ex.space),
        queries,
        ksp_extra: Vec::new(),
        window: (TimeOfDay::hm(5, 30), TimeOfDay::hm(16, 30)),
    }
}

fn mall_corpus() -> Corpus {
    let hours = ShopHours::sample(&HoursConfig::default());
    let graph = ItGraph::shared(build_mall(
        &MallConfig::paper_default().with_floors(2),
        &hours,
    ));
    let mut queries = Vec::new();
    let mut seed = 11;
    for t in [
        TimeOfDay::hm(7, 45),
        TimeOfDay::hm(12, 0),
        TimeOfDay::hm(19, 58),
    ] {
        for delta in [300.0, 1500.0] {
            let cfg = QueryGenConfig::default()
                .with_delta(delta)
                .with_time(t)
                .with_count(4)
                .with_seed(seed);
            queries.extend(generate_queries(&graph, &cfg).iter().map(|g| g.query));
            seed += 1;
        }
    }
    // Popular sources and hot departure instants form shared groups in the
    // batch digests: exact duplicates and retimed members from the zipf
    // set. The partition-clustered set's fresh points each run their own
    // search.
    let hot = TimeDistribution::HotSpots {
        exponent: 1.0,
        pool: 2,
        spread_secs: 240.0,
    };
    for (source, time) in [
        (
            SourceDistribution::Zipf {
                exponent: 1.2,
                pool: 3,
            },
            TimeOfDay::hm(17, 30),
        ),
        (
            SourceDistribution::ZipfNear {
                exponent: 1.2,
                pool: 2,
            },
            TimeOfDay::hm(21, 50),
        ),
    ] {
        let cfg = QueryGenConfig::default()
            .with_delta(600.0)
            .with_time(time)
            .with_count(16)
            .with_seed(seed)
            .with_source(source)
            .with_times(hot);
        queries.extend(generate_queries(&graph, &cfg).iter().map(|g| g.query));
        seed += 1;
    }
    let ksp_extra = stair_lobby_queries(graph.space());
    Corpus {
        name: "mall",
        graph,
        queries,
        ksp_extra,
        window: (TimeOfDay::hm(7, 30), TimeOfDay::hm(12, 30)),
    }
}

/// One query per stair lobby at 12:00: from the centroid of the lobby's
/// hallway neighbour to the lobby's centroid + (1, 1), beside the stair door
/// in the lobby's middle. Walking to that stair door and turning back
/// without crossing it is shorter than the straight leg from the hallway
/// door, so these pin how Yen's spur searches treat a touch.
fn stair_lobby_queries(space: &IndoorSpace) -> Vec<Query> {
    let centroid = |p: PartitionId| {
        space
            .partition(p)
            .polygon
            .as_ref()
            .expect("mall partitions have polygons")
            .centroid()
    };
    let mut queries = Vec::new();
    for lobby in space
        .partitions()
        .iter()
        .filter(|p| p.name.contains("/stair"))
    {
        let door_name = format!("{}/door", lobby.name);
        let door = space
            .doors()
            .iter()
            .find(|d| d.name == door_name)
            .expect("every lobby has a hallway door");
        let hall = space
            .d2p(door.id)
            .into_iter()
            .find(|&p| p != lobby.id)
            .expect("the hallway door joins the lobby to a hallway");
        let c = centroid(lobby.id);
        queries.push(Query::new(
            IndoorPoint::new(hall, centroid(hall)),
            IndoorPoint::new(lobby.id, Point::new(c.x + 1.0, c.y + 1.0)),
            TimeOfDay::hm(12, 0),
        ));
    }
    queries
}

fn configs() -> [(&'static str, ItspqConfig); 2] {
    [
        ("PaperPruned", ItspqConfig::default()),
        ("FullRelax", ItspqConfig::full_relax()),
    ]
}

/// One point-query entry point under test.
type Method<'a> = dyn Fn(&Query) -> QueryResult + 'a;

/// Point-query digests: five methods × both expand policies. Each engine
/// answers the whole corpus in order, so ITG/A's `views_built` pins the
/// view cache's miss sequence too.
fn point_digests(c: &Corpus, out: &mut Vec<(String, u64)>) {
    for (policy, cfg) in configs() {
        let syn = SynEngine::new(Arc::clone(&c.graph), cfg);
        let exact = AsynEngine::new(Arc::clone(&c.graph), cfg.with_asyn_mode(AsynMode::Exact));
        let faithful =
            AsynEngine::new(Arc::clone(&c.graph), cfg.with_asyn_mode(AsynMode::Faithful));
        let methods: [(&str, &Method); 5] = [
            ("ITG/S", &|q| syn.query(q)),
            ("ITG/A-Exact", &|q| exact.query(q)),
            ("ITG/A-Faithful", &|q| faithful.query(q)),
            ("static", &|q| {
                baselines::static_shortest_path(&c.graph, q, &cfg)
            }),
            ("snapshot", &|q| {
                baselines::snapshot_shortest_path(&c.graph, q, &cfg)
            }),
        ];
        for (method, run) in methods {
            let mut h = Fnv::new();
            for q in &c.queries {
                point_answer(&mut h, &run(q));
            }
            out.push((format!("{}/{method}/{policy}", c.name), h.0));
        }
    }
}

/// Bit patterns of every distance of one map per distinct (source, time).
fn reachability_digest(c: &Corpus, out: &mut Vec<(String, u64)>) {
    let mut h = Fnv::new();
    let mut seen: Vec<(IndoorPoint, TimeOfDay)> = Vec::new();
    for q in &c.queries {
        if seen.contains(&(q.source, q.time)) {
            continue;
        }
        seen.push((q.source, q.time));
        let map = reachability(&c.graph, q.source, q.time, &ItspqConfig::default());
        let mut line = String::new();
        for d in map.door_distance.iter().chain(&map.partition_distance) {
            let _ = write!(line, "{:x},", d.to_bits());
        }
        h.write(&line);
    }
    out.push((format!("{}/reachability", c.name), h.0));
}

/// The whole corpus as one `Shared` batch per serving method, FullRelax so
/// that grouping engages.
fn batch_digests(c: &Corpus, out: &mut Vec<(String, u64)>) {
    let methods = [
        ("ITG/S", ServeMethod::Syn, AsynMode::Exact),
        ("ITG/A-Exact", ServeMethod::Asyn, AsynMode::Exact),
        ("ITG/A-Faithful", ServeMethod::Asyn, AsynMode::Faithful),
    ];
    for (name, method, mode) in methods {
        let config = ServerConfig {
            method,
            itspq: ItspqConfig::full_relax().with_asyn_mode(mode),
            ..ServerConfig::default()
        };
        let server = VenueServer::with_config(Arc::clone(&c.graph), config).with_workers(1);
        let (answers, stats) = server.try_query_batch_with_stats(&c.queries);
        let mut h = Fnv::new();
        let mut bytes = Fnv::new();
        for a in &answers {
            match a {
                Ok(r) => {
                    h.write(&format!("{:?}", r.path));
                    h.write(&counters(&r.stats));
                    bytes.write(&r.stats.search_bytes.to_string());
                }
                Err(e) => h.write(&format!("{e:?}")),
            }
        }
        h.write(&format!("{:?}", stats.timings_zeroed()));
        out.push((format!("{}/batch/{name}", c.name), h.0));
        out.push((format!("{}/batch/{name}/search_bytes", c.name), bytes.0));
    }
}

/// ITG/A-Exact's answers alone: one digest over the `path` of every point
/// answer under both expand policies, one over the `Shared` batch answers.
fn exact_answer_digests(c: &Corpus, out: &mut Vec<(String, u64)>) {
    let mut h = Fnv::new();
    for (_, cfg) in configs() {
        let exact = AsynEngine::new(Arc::clone(&c.graph), cfg.with_asyn_mode(AsynMode::Exact));
        for q in &c.queries {
            h.write(&format!("{:?}", exact.query(q).path));
        }
    }
    out.push((format!("{}/ITG/A-Exact/answers", c.name), h.0));

    let config = ServerConfig {
        method: ServeMethod::Asyn,
        itspq: ItspqConfig::full_relax().with_asyn_mode(AsynMode::Exact),
        ..ServerConfig::default()
    };
    let server = VenueServer::with_config(Arc::clone(&c.graph), config).with_workers(1);
    let mut h = Fnv::new();
    for a in server.try_query_batch(&c.queries) {
        match a {
            Ok(r) => h.write(&format!("{:?}", r.path)),
            Err(e) => h.write(&format!("{e:?}")),
        }
    }
    out.push((format!("{}/batch/ITG/A-Exact/answers", c.name), h.0));
}

/// Distinct items of `items` in first-appearance order.
fn distinct<T: PartialEq + Copy>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for x in items {
        if !seen.contains(&x) {
            seen.push(x);
        }
    }
    seen
}

/// Digests of the extension entry points over the corpus.
fn extension_digests(c: &Corpus, out: &mut Vec<(String, u64)>) {
    let g = &c.graph;
    let cfg = ItspqConfig::default();

    for k in [1, 3] {
        let mut h = Fnv::new();
        for q in c.queries.iter().chain(&c.ksp_extra) {
            h.write(&format!("{:?}", k_shortest_paths(g, q, &cfg, k)));
        }
        out.push((format!("{}/ksp/k{k}", c.name), h.0));
    }

    let policies = [
        ("None", WaitPolicy::None),
        (
            "UpTo5min",
            WaitPolicy::UpTo(DurationSecs::from_minutes(5.0)),
        ),
        ("Unlimited", WaitPolicy::Unlimited),
    ];
    for (name, policy) in policies {
        let mut h = Fnv::new();
        for q in &c.queries {
            h.write(&format!("{:?}", earliest_arrival(g, q, &cfg, policy)));
        }
        out.push((format!("{}/waiting/{name}", c.name), h.0));
    }

    let mut h = Fnv::new();
    let (from, to) = c.window;
    for (s, t) in distinct(c.queries.iter().map(|q| (q.source, q.target))) {
        let profile = departure_profile(g, s, t, from, to, DurationSecs::from_minutes(1.0), &cfg);
        h.write(&format!("{profile:?}"));
    }
    out.push((format!("{}/profile", c.name), h.0));

    let targets = distinct(c.queries.iter().map(|q| q.target));
    let mut h = Fnv::new();
    for (s, t) in distinct(c.queries.iter().map(|q| (q.source, q.time))) {
        let many = paths_to_many(g, s, t, &targets, &cfg);
        h.write(&format!("{:?}", many.paths));
        h.write(&counters(&many.stats));
        h.write(&many.stats.search_bytes.to_string());
    }
    out.push((format!("{}/paths_to_many", c.name), h.0));

    let mut h = Fnv::new();
    for s in distinct(c.queries.iter().map(|q| q.source)) {
        let mut line = String::new();
        for d in baselines::door_distances(g, &s) {
            let _ = write!(line, "{:x},", d.to_bits());
        }
        h.write(&line);
    }
    out.push((format!("{}/door_distances", c.name), h.0));
}

fn check(computed: &[(String, u64)], golden: &[(&str, u64)]) {
    let table: String = computed
        .iter()
        .map(|(k, v)| format!("        (\"{k}\", 0x{v:016x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = golden.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    assert!(
        computed == pinned.as_slice(),
        "search output changed; computed digests:\n{table}"
    );
}

#[test]
fn paper_example_corpus_matches_golden_digests() {
    let c = paper_corpus();
    let mut out = Vec::new();
    point_digests(&c, &mut out);
    reachability_digest(&c, &mut out);
    batch_digests(&c, &mut out);
    check(&out, PAPER_GOLDEN);
}

#[test]
fn mall_corpus_matches_golden_digests() {
    let c = mall_corpus();
    let mut out = Vec::new();
    point_digests(&c, &mut out);
    reachability_digest(&c, &mut out);
    batch_digests(&c, &mut out);
    check(&out, MALL_GOLDEN);
}

#[test]
fn paper_example_exact_answers_match_golden_digests() {
    let mut out = Vec::new();
    exact_answer_digests(&paper_corpus(), &mut out);
    check(&out, PAPER_EXACT_ANSWERS_GOLDEN);
}

#[test]
fn mall_exact_answers_match_golden_digests() {
    let mut out = Vec::new();
    exact_answer_digests(&mall_corpus(), &mut out);
    check(&out, MALL_EXACT_ANSWERS_GOLDEN);
}

#[test]
fn paper_example_extensions_match_golden_digests() {
    let mut out = Vec::new();
    extension_digests(&paper_corpus(), &mut out);
    check(&out, PAPER_EXTENSION_GOLDEN);
}

#[test]
fn mall_extensions_match_golden_digests() {
    let mut out = Vec::new();
    extension_digests(&mall_corpus(), &mut out);
    check(&out, MALL_EXTENSION_GOLDEN);
}

const PAPER_GOLDEN: &[(&str, u64)] = &[
    ("paper/ITG/S/PaperPruned", 0x79c495a1a2f786cc),
    ("paper/ITG/A-Exact/PaperPruned", 0xcacb1bee2c4830cd),
    ("paper/ITG/A-Faithful/PaperPruned", 0xdaad0e5663a6e456),
    ("paper/static/PaperPruned", 0xf0b36881cbd609bd),
    ("paper/snapshot/PaperPruned", 0xdb51be7cb8601d8f),
    ("paper/ITG/S/FullRelax", 0x6b7e1762de7269a6),
    ("paper/ITG/A-Exact/FullRelax", 0xcc78d6820fe7e4e8),
    ("paper/ITG/A-Faithful/FullRelax", 0x75f5fe513607520a),
    ("paper/static/FullRelax", 0x47f2fa89b8ec7488),
    ("paper/snapshot/FullRelax", 0xd9c4dd82bb84ec0d),
    ("paper/reachability", 0xccb3a8e4f30b6d65),
    ("paper/batch/ITG/S", 0x8b8e98371cf14e8e),
    ("paper/batch/ITG/S/search_bytes", 0x907f64da1dd43bb9),
    ("paper/batch/ITG/A-Exact", 0xe12d4b69a11e360d),
    ("paper/batch/ITG/A-Exact/search_bytes", 0xae5db9cd71293b8e),
    ("paper/batch/ITG/A-Faithful", 0x41a83e522e3174c5),
    (
        "paper/batch/ITG/A-Faithful/search_bytes",
        0x71cdac5ec68498b7,
    ),
];

const MALL_GOLDEN: &[(&str, u64)] = &[
    ("mall/ITG/S/PaperPruned", 0x55c5b6ef6b8e85dc),
    ("mall/ITG/A-Exact/PaperPruned", 0xde73620e34e90782),
    ("mall/ITG/A-Faithful/PaperPruned", 0x844b1821d44c9f0e),
    ("mall/static/PaperPruned", 0x82d82c156720235a),
    ("mall/snapshot/PaperPruned", 0x55fa52f1587ce075),
    ("mall/ITG/S/FullRelax", 0xb4ebb12d303dc7ec),
    ("mall/ITG/A-Exact/FullRelax", 0xf986a8e06b0f5e68),
    ("mall/ITG/A-Faithful/FullRelax", 0x2e381fef138a19e0),
    ("mall/static/FullRelax", 0xeb5da59b0b734def),
    ("mall/snapshot/FullRelax", 0x5967a017c4a4bf80),
    ("mall/reachability", 0xd40f68c496e96ad3),
    ("mall/batch/ITG/S", 0x134d2fe225cdb8be),
    ("mall/batch/ITG/S/search_bytes", 0x35ccd7d3a3746836),
    ("mall/batch/ITG/A-Exact", 0xb0a42151f613b5bc),
    ("mall/batch/ITG/A-Exact/search_bytes", 0x14a9ee1a78e21f4d),
    ("mall/batch/ITG/A-Faithful", 0xb51f6ab3f10b7058),
    ("mall/batch/ITG/A-Faithful/search_bytes", 0xbcd05e760eb2d001),
];

const PAPER_EXACT_ANSWERS_GOLDEN: &[(&str, u64)] = &[
    ("paper/ITG/A-Exact/answers", 0xf4c822b2dc0bde49),
    ("paper/batch/ITG/A-Exact/answers", 0x0363fd3f6d338f64),
];

const MALL_EXACT_ANSWERS_GOLDEN: &[(&str, u64)] = &[
    ("mall/ITG/A-Exact/answers", 0x60e4a148cea323d8),
    ("mall/batch/ITG/A-Exact/answers", 0x8bc3513551b2d0bd),
];

const PAPER_EXTENSION_GOLDEN: &[(&str, u64)] = &[
    ("paper/ksp/k1", 0xf83b346d826370df),
    ("paper/ksp/k3", 0x98c7b38ec6a38f19),
    ("paper/waiting/None", 0xf5fd0057e9305a6f),
    ("paper/waiting/UpTo5min", 0x622e1a4a0aefad35),
    ("paper/waiting/Unlimited", 0x332ae51a47bda3e6),
    ("paper/profile", 0x2fba54765deb43f6),
    ("paper/paths_to_many", 0xa60da1fe377a4d4b),
    ("paper/door_distances", 0xcd31070460a0bf65),
];

const MALL_EXTENSION_GOLDEN: &[(&str, u64)] = &[
    ("mall/ksp/k1", 0xe9abaa4a1d717e91),
    ("mall/ksp/k3", 0xafe9f68145f46480),
    ("mall/waiting/None", 0x4c3fba8a4f43d203),
    ("mall/waiting/UpTo5min", 0x4c3fba8a4f43d203),
    ("mall/waiting/Unlimited", 0x18c33eb26605598c),
    ("mall/profile", 0xf4f5e7a4a73c6937),
    ("mall/paths_to_many", 0x299a131d86787f38),
    ("mall/door_distances", 0xe94a855d80a11a51),
];
