//! The concurrent batched front-end on the synthetic mall: worker-pool
//! answers must be identical to single-threaded ITG/S, answer for answer,
//! and the shared reduced-graph cache must be populated once per checkpoint
//! interval — never once per worker.

use std::sync::{Arc, Barrier};

use itspq_repro::core::server::{ServeMethod, VenueServer};
use itspq_repro::prelude::*;
use itspq_repro::synthetic::{
    build_mall, generate_queries, HoursConfig, MallConfig, QueryGenConfig, ShopHours,
    SourceDistribution,
};

fn mall_graph(cfg: MallConfig) -> Arc<ItGraph> {
    let hours = ShopHours::sample(&HoursConfig::default().with_t_size(8));
    ItGraph::shared(build_mall(&cfg, &hours))
}

/// A mixed-time workload: several departure times, some minutes before
/// checkpoints so walks cross interval boundaries mid-route.
fn mall_workload(graph: &ItGraph, per_time: usize, delta: f64) -> Vec<Query> {
    let mut queries = Vec::new();
    for (i, (h, m)) in [(8, 50), (12, 0), (15, 55), (19, 30), (22, 40)]
        .into_iter()
        .enumerate()
    {
        queries.extend(
            generate_queries(
                graph,
                &QueryGenConfig::default()
                    .with_count(per_time)
                    .with_delta(delta)
                    .with_time(TimeOfDay::hm(h, m))
                    .with_seed(40 + i as u64),
            )
            .into_iter()
            .map(|g| g.query),
        );
    }
    queries
}

#[test]
fn four_workers_match_sequential_itg_s_on_the_mall() {
    let graph = mall_graph(MallConfig::paper_default());
    let queries = mall_workload(&graph, 8, 1500.0);
    assert_eq!(queries.len(), 40);

    let server = VenueServer::new(graph.clone()).with_workers(4);
    let batch = server.query_batch(&queries);

    let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
    let mut found = 0;
    for (q, a) in queries.iter().zip(&batch) {
        let s = syn.query(q);
        assert_eq!(
            s.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
            a.path.as_ref().map(|p| p.doors().collect::<Vec<_>>()),
            "batched answer disagrees with ITG/S at {}",
            q.time
        );
        if let (Some(sp), Some(ap)) = (&s.path, &a.path) {
            assert!((sp.length - ap.length).abs() < 1e-9);
            found += 1;
        }
    }
    assert!(found > 20, "most mall queries should route, got {found}/40");
}

#[test]
fn external_threads_hammering_one_server_agree_with_itg_s() {
    // Not query_batch: four caller-managed threads all using `query(&self)`
    // on one shared server, the "many front-end handlers" deployment shape.
    // A barrier releases them together onto the cold server, so they race
    // for the same first views.
    let graph = mall_graph(MallConfig::single_floor());
    let queries = mall_workload(&graph, 6, 600.0);
    let server = VenueServer::new(graph.clone());
    let start = Barrier::new(4);

    let per_thread: Vec<Vec<(Option<f64>, usize)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    queries
                        .iter()
                        .map(|q| {
                            let r = server.query(q);
                            (r.path.map(|p| p.length), r.stats.views_built)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let syn = SynEngine::new(graph, ItspqConfig::default());
    let expected: Vec<Option<f64>> = queries
        .iter()
        .map(|q| syn.query(q).path.map(|p| p.length))
        .collect();
    for answers in &per_thread {
        let lengths: Vec<Option<f64>> = answers.iter().map(|a| a.0).collect();
        assert_eq!(lengths, expected);
    }
    // Every interval was built once, server-wide, however the race fell.
    let built: usize = per_thread.iter().flatten().map(|a| a.1).sum();
    assert_eq!(built, server.cached_views());
}

#[test]
fn reduced_graph_cache_is_populated_once_not_per_worker() {
    let graph = mall_graph(MallConfig::single_floor());
    let queries = mall_workload(&graph, 6, 600.0);
    let server = VenueServer::new(graph.clone()).with_pinned_workers(4);

    // Cold server: the batch builds each touched interval exactly once,
    // server-wide, even with four workers missing concurrently.
    let answers = server.query_batch(&queries);
    let built: usize = answers.iter().map(|r| r.stats.views_built).sum();
    assert!(built >= 2, "the mixed-time batch touches several intervals");
    assert_eq!(
        built,
        server.cached_views(),
        "views built across all workers must equal distinct cached intervals"
    );
    assert!(server.cached_views() <= graph.space().checkpoints().len());

    // Warm server: a second pass builds nothing at all.
    let again = server.query_batch(&queries);
    assert!(again.iter().all(|r| r.stats.views_built == 0));
}

#[test]
fn threads_submitting_overlapping_skewed_batches_stay_in_input_order() {
    // The shared-execution deployment shape: many front-end handlers each
    // submitting zipf-skewed batches to one server whose planner groups
    // duplicate (source, time) pairs into single multi-target searches.
    let graph = mall_graph(MallConfig::single_floor());
    let sharing_config = |workers| ServerConfig {
        workers,
        method: ServeMethod::Asyn,
        itspq: ItspqConfig::full_relax(),
        ..ServerConfig::default()
    };

    // Zipf-skewed sources from a hot pool of 3: heavy duplication makes the
    // planner form multi-member groups in every batch.
    let batches: Vec<Vec<Query>> = [(9, 0), (12, 0), (18, 30), (21, 15)]
        .into_iter()
        .enumerate()
        .map(|(i, (h, m))| {
            generate_queries(
                &graph,
                &QueryGenConfig::default()
                    .with_count(12)
                    .with_delta(600.0)
                    .with_time(TimeOfDay::hm(h, m))
                    .with_seed(90 + i as u64)
                    .with_source(SourceDistribution::Zipf {
                        exponent: 1.5,
                        pool: 3,
                    }),
            )
            .into_iter()
            .map(|g| g.query)
            .collect()
        })
        .collect();

    let server = VenueServer::with_config(graph.clone(), sharing_config(4));
    for b in &batches {
        assert!(
            server.plan(b, false).shared_queries() >= 2,
            "zipf-skewed batches must actually form shared groups"
        );
    }

    // Per-query reference answers, one per (batch, input index).
    let reference: Vec<Vec<Option<Path>>> = batches
        .iter()
        .map(|b| b.iter().map(|q| server.query(q).path).collect())
        .collect();

    // Four external threads hammer the one server with overlapping batches,
    // each starting at a different rotation so distinct batches are in
    // flight simultaneously; every result must land at its input index.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (server, batches, reference) = (&server, &batches, &reference);
            scope.spawn(move || {
                for round in 0..batches.len() {
                    let b = (t + round) % batches.len();
                    let got = server.query_batch(&batches[b]);
                    assert_eq!(got.len(), batches[b].len());
                    for (i, r) in got.iter().enumerate() {
                        assert_eq!(
                            r.path, reference[b][i],
                            "thread {t} batch {b} answer out of place at {i}"
                        );
                    }
                }
            });
        }
    });

    // Worker-count independence: 1 and 2 workers agree with the 4-worker
    // answers (and with the per-query reference) path for path.
    for workers in [1, 2] {
        let alt = VenueServer::with_config(graph.clone(), sharing_config(workers));
        for (b, expect) in batches.iter().zip(&reference) {
            let got = alt.query_batch(b);
            for (r, e) in got.iter().zip(expect) {
                assert_eq!(&r.path, e);
            }
        }
    }
}

#[test]
fn syn_method_needs_no_cache_and_still_agrees() {
    let graph = mall_graph(MallConfig::single_floor());
    let queries = mall_workload(&graph, 4, 600.0);
    let syn_server = VenueServer::new(graph.clone())
        .with_workers(4)
        .with_method(ServeMethod::Syn);
    let asyn_server = VenueServer::new(graph).with_workers(4);
    let s = syn_server.query_batch(&queries);
    let a = asyn_server.query_batch(&queries);
    for (x, y) in s.iter().zip(&a) {
        assert_eq!(
            x.path.as_ref().map(|p| p.length),
            y.path.as_ref().map(|p| p.length)
        );
    }
    assert_eq!(syn_server.cached_views(), 0);
    assert!(asyn_server.cached_views() > 0);
}
