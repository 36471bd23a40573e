//! A warm point query allocates in proportion to the search, not the venue.
//!
//! A short (δ = 100 m) query settles a handful of doors on any floor count,
//! so once a thread has run one search, repeating it must not allocate
//! per-door state for the whole venue. The same holds for Yen's k shortest
//! paths, whose spur searches run on the same pooled search state. The
//! tracking allocator is this test binary's global allocator and counts
//! every thread, so the binary holds a single test.

use indoor_synthetic::MallConfig;
use indoor_time::TimeOfDay;
use itspq_bench::{TrackingAllocator, Workload};
use itspq_core::{
    k_shortest_paths, AsynEngine, AsynMode, ItspqConfig, Query, QueryResult, SynEngine,
};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Heap bytes a warm query may use: its answer and a little checker state.
const BUDGET_BYTES: usize = 1024;

/// Heap bytes a warm `k_shortest_paths(k = 3)` call may raise the peak by:
/// its candidate paths and each spur's small vectors, no per-spur label
/// arrays over the venue (2,240 doors on 10 floors).
const YEN_BUDGET_BYTES: usize = 8 * 1024;

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
        let full = ItspqConfig::full_relax();
        for (i, q) in queries.iter().enumerate() {
            let warm = k_shortest_paths(&w.graph, q, &full, 3);
            let (again, bytes) =
                TrackingAllocator::measure(|| k_shortest_paths(&w.graph, q, &full, 3));
            assert_eq!(warm, again, "{floors} floors, Yen query {i}");
            assert!(
                bytes < YEN_BUDGET_BYTES,
                "{floors} floors, Yen query {i}: a warm k = 3 call raised the heap peak by \
                 {bytes} bytes ({} paths)",
                again.len()
            );
        }
    }
}
