//! Serving concurrent queries from one shared venue.
//!
//! Builds a synthetic mall floor, wraps it in one `Arc<ItGraph>`, and stands
//! up a [`VenueServer`]: a worker pool answering query batches over the
//! shared ITG/A reduced-graph cache. Demonstrates that the batch answers are
//! identical to single-threaded ITG/S and that the cache is built once,
//! server-wide.
//!
//! ```sh
//! cargo run --release --example concurrent_queries
//! ```

use itspq_repro::core::server::VenueServer;
use itspq_repro::prelude::*;
use itspq_repro::synthetic::{
    build_mall, generate_queries, HoursConfig, MallConfig, QueryGenConfig, ShopHours,
};

fn main() {
    // One venue, built once, shared by everything below.
    let hours = ShopHours::sample(&HoursConfig::default().with_t_size(8));
    let graph = ItGraph::shared(build_mall(&MallConfig::single_floor(), &hours));
    let stats = graph.space().stats();
    println!(
        "venue: {} partitions, {} doors, {} checkpoint intervals",
        stats.partitions,
        stats.doors,
        graph.space().checkpoints().len()
    );

    // A morning-to-night traffic mix of 64 queries.
    let mut batch = Vec::new();
    for (i, (h, m)) in [(8, 50), (12, 0), (19, 30), (22, 40)]
        .into_iter()
        .enumerate()
    {
        batch.extend(
            generate_queries(
                &graph,
                &QueryGenConfig::default()
                    .with_count(16)
                    .with_delta(600.0)
                    .with_time(TimeOfDay::hm(h, m))
                    .with_seed(7 + i as u64),
            )
            .into_iter()
            .map(|g| g.query),
        );
    }

    // The server: up to 4 workers (clamped to the host's cores) over one
    // Arc<ItGraph>. `warm()` precomputes the reduced graph of every
    // checkpoint interval up front.
    let server = VenueServer::new(graph.clone()).with_workers(4);
    server.warm();
    println!(
        "server: {} workers, {} reduced views cached ({} KB)",
        server.config().effective_workers(),
        server.cached_views(),
        server.cache_bytes() / 1024
    );

    let t0 = std::time::Instant::now();
    let answers = server.query_batch(&batch);
    let elapsed = t0.elapsed();
    let routed = answers.iter().filter(|r| r.path.is_some()).count();
    println!(
        "batch: {} queries in {:.2} ms ({:.0} queries/s), {} routed",
        batch.len(),
        elapsed.as_secs_f64() * 1e3,
        batch.len() as f64 / elapsed.as_secs_f64(),
        routed
    );

    // Every answer agrees with single-threaded ITG/S on the same graph.
    let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
    let agreeing = batch
        .iter()
        .zip(&answers)
        .filter(|(q, a)| syn.query(q).path.map(|p| p.length) == a.path.as_ref().map(|p| p.length))
        .count();
    println!(
        "agreement with single-threaded ITG/S: {agreeing}/{} answers",
        batch.len()
    );
    assert_eq!(agreeing, batch.len());

    // The warmed cache meant no worker built a view mid-batch.
    assert!(answers.iter().all(|r| r.stats.views_built == 0));
    println!("reduced-graph views built during the batch: 0 (cache was warm)");
}
