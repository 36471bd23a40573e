//! A warm point query allocates in proportion to the search, not the venue.
//!
//! A short (δ = 100 m) query settles a handful of doors on any floor count,
//! so once a thread has run one search, repeating it must not allocate
//! per-door state for the whole venue. The tracking allocator is this test
//! binary's global allocator and counts every thread, so the binary holds a
//! single test.

use indoor_synthetic::MallConfig;
use indoor_time::TimeOfDay;
use itspq_bench::{TrackingAllocator, Workload};
use itspq_core::{AsynEngine, AsynMode, ItspqConfig, Query, QueryResult, SynEngine};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Heap bytes a warm query may use: its answer and a little checker state.
const BUDGET_BYTES: usize = 1024;

/// One point-query entry point under test.
type Method<'a> = dyn Fn(&Query) -> QueryResult + 'a;

#[test]
fn warm_point_query_allocates_under_a_kib() {
    for floors in [1, 10] {
        let w = Workload::with_mall(
            MallConfig::paper_default()
                .with_floors(floors)
                .with_comb_corridors(),
            8,
        );
        let queries = w.queries(100.0, TimeOfDay::hm(12, 0), 4);
        let syn = SynEngine::new(w.graph.clone(), ItspqConfig::default());
        let exact = AsynEngine::new(
            w.graph.clone(),
            ItspqConfig::default().with_asyn_mode(AsynMode::Exact),
        );
        let methods: [(&str, &Method); 2] = [
            ("ITG/S", &|q| syn.query(q)),
            ("ITG/A-Exact", &|q| exact.query(q)),
        ];
        for (name, run) in methods {
            for (i, q) in queries.iter().enumerate() {
                let warm = run(q);
                let (again, bytes) = TrackingAllocator::measure(|| run(q));
                assert_eq!(warm.path, again.path, "{floors} floors, {name} query {i}");
                assert!(
                    bytes < BUDGET_BYTES,
                    "{floors} floors, {name} query {i}: a warm query allocated {bytes} bytes \
                     (settled {} doors)",
                    again.stats.doors_settled
                );
            }
        }
    }
}
