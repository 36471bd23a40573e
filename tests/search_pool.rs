//! The search state a thread reuses across sweeps is invisible in every
//! answer and counter.
//!
//! One test thread runs, in order: a two-floor comb mall's query corpus
//! under ITG/S and ITG/A-Exact with both expand policies; the paper's
//! Example 1 (a much smaller venue, so any reused per-door state must
//! shrink); a reachability map on the mall; a `paths_to_many` call whose
//! private target forces a one-target fallback sweep after the shared
//! sweep; and the mall corpus again. Each call is then repeated on a fresh
//! scoped thread, whose state starts empty, and the two must agree on the
//! `Debug` rendering of every answer and every `SearchStats` (`peak_heap`
//! and `search_bytes` included) and on the bits of every reachability
//! distance.
//!
//! Every ITG/A engine warms all its interval views up front, so
//! `views_built` reads 0 on both threads and the comparison covers the rest
//! of each query's counters.

use std::fmt::Write as _;
use std::sync::Arc;

use itspq_repro::core::one_to_many::{paths_to_many, reachability};
use itspq_repro::core::QueryResult;
use itspq_repro::geom::Point;
use itspq_repro::prelude::*;
use itspq_repro::space::paper_example;
use itspq_repro::synthetic::{
    build_mall, generate_queries, HoursConfig, MallConfig, QueryGenConfig, ShopHours,
};

/// Runs `call` on this thread, then again on a fresh thread, and asserts
/// both renderings agree. Returns this thread's rendering.
fn warm_equals_cold(what: &str, call: impl Fn() -> String + Sync) -> String {
    let warm = call();
    let cold = std::thread::scope(|s| {
        s.spawn(&call)
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e))
    });
    assert_eq!(warm, cold, "{what}: the warm thread's answer differs");
    warm
}

fn render(r: &QueryResult) -> String {
    format!("{r:?}")
}

fn bits(values: &[f64]) -> String {
    let mut line = String::new();
    for d in values {
        let _ = write!(line, "{:x},", d.to_bits());
    }
    line
}

/// The paper-default mall cut to two floors, with comb service corridors.
fn comb_mall() -> Arc<ItGraph> {
    let hours = ShopHours::sample(&HoursConfig::default());
    ItGraph::shared(build_mall(
        &MallConfig::paper_default()
            .with_floors(2)
            .with_comb_corridors(),
        &hours,
    ))
}

fn mall_corpus(graph: &ItGraph) -> Vec<Query> {
    let mut queries = Vec::new();
    let mut seed = 31;
    for t in [TimeOfDay::hm(12, 0), TimeOfDay::hm(21, 58)] {
        for delta in [300.0, 1500.0] {
            let cfg = QueryGenConfig::default()
                .with_delta(delta)
                .with_time(t)
                .with_count(3)
                .with_seed(seed);
            queries.extend(generate_queries(graph, &cfg).iter().map(|g| g.query));
            seed += 1;
        }
    }
    queries
}

/// One point-query entry point under test.
type Method = Box<dyn Fn(&Query) -> QueryResult + Sync>;

/// ITG/S and ITG/A-Exact under both expand policies, views warmed.
fn engines(graph: &Arc<ItGraph>) -> Vec<(String, Method)> {
    let mut out: Vec<(String, Method)> = Vec::new();
    for (policy, cfg) in [
        ("PaperPruned", ItspqConfig::default()),
        ("FullRelax", ItspqConfig::full_relax()),
    ] {
        let syn = SynEngine::new(Arc::clone(graph), cfg);
        let exact = AsynEngine::new(Arc::clone(graph), cfg.with_asyn_mode(AsynMode::Exact));
        exact.precompute_all();
        out.push((format!("ITG/S/{policy}"), Box::new(move |q| syn.query(q))));
        out.push((
            format!("ITG/A-Exact/{policy}"),
            Box::new(move |q| exact.query(q)),
        ));
    }
    out
}

fn run_corpus(name: &str, graph: &Arc<ItGraph>, queries: &[Query]) {
    for (method, run) in engines(graph) {
        for (i, q) in queries.iter().enumerate() {
            warm_equals_cold(&format!("{name}/{method} query {i}"), || render(&run(q)));
        }
    }
}

/// A point inside the first private partition that carries a polygon.
fn private_point(space: &IndoorSpace) -> IndoorPoint {
    for p in space.partitions() {
        let (PartitionKind::Private, Some(poly)) = (p.kind, &p.polygon) else {
            continue;
        };
        let (min, max) = poly.bounding_box();
        for i in 1..40 {
            for j in 1..40 {
                let at = Point::new(
                    min.x + (max.x - min.x) * f64::from(i) / 40.0,
                    min.y + (max.y - min.y) * f64::from(j) / 40.0,
                );
                if poly.contains(at) {
                    return IndoorPoint::new(p.id, at);
                }
            }
        }
    }
    panic!("the mall has no private partition with a polygon");
}

#[test]
fn reused_search_state_is_invisible() {
    let mall = comb_mall();
    let corpus = mall_corpus(&mall);
    assert!(corpus.len() >= 8, "corpus too small: {}", corpus.len());

    // 1. The mall corpus: every sweep after the first reuses state.
    run_corpus("mall", &mall, &corpus);

    // 2. Example 1 on a venue two orders of magnitude smaller.
    let ex = paper_example::build();
    let paper = ItGraph::shared(ex.space.clone());
    let example = [
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)),
        Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)),
        Query::new(ex.p1, ex.p2, TimeOfDay::hms(15, 59, 50)),
    ];
    run_corpus("paper", &paper, &example);

    // 3. A reachability map: the zero-target sweep runs to exhaustion.
    let q0 = corpus[0];
    warm_equals_cold("mall reachability", || {
        let map = reachability(&mall, q0.source, q0.time, &ItspqConfig::default());
        format!(
            "{}|{}",
            bits(&map.door_distance),
            bits(&map.partition_distance)
        )
    });

    // 4. paths_to_many: a shared sweep, then the private target's own sweep.
    let mut targets: Vec<IndoorPoint> = corpus.iter().take(3).map(|q| q.target).collect();
    targets.push(private_point(mall.space()));
    let many = warm_equals_cold("mall paths_to_many", || {
        let tp = paths_to_many(&mall, q0.source, q0.time, &targets, &ItspqConfig::default());
        format!("{tp:?}")
    });
    assert!(many.contains("Some("), "no target was reached: {many}");

    // 5. The mall corpus again, after the arrays shrank and regrew.
    run_corpus("mall again", &mall, &corpus);
}

#[test]
fn back_to_back_queries_report_identical_stats() {
    let mall = comb_mall();
    let corpus = mall_corpus(&mall);
    for (method, run) in engines(&mall) {
        for q in &corpus {
            let first = run(q);
            let second = run(q);
            assert_eq!(render(&first), render(&second), "{method}");
        }
    }
}
