//! Smoke test of the bench harness on the paper's running example: the
//! runner and parameter grid must produce a non-empty result table, so the
//! figure pipeline cannot silently bit-rot between benchmark runs.

use indoor_space::paper_example;
use indoor_time::TimeOfDay;
use itspq_bench::figures::{FigRow, Figure};
use itspq_bench::{measure_query_set, Method, PaperParams};
use itspq_core::{AsynEngine, ItGraph, ItspqConfig, Query, SearchStats, SynEngine};

#[test]
fn runner_measures_paper_example_queries() {
    let ex = paper_example::build();
    let graph = ItGraph::new(ex.space.clone());
    let queries = vec![
        // Example 1 of the paper: feasible at 9:00.
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
        Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)),
    ];
    let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
    let asyn = AsynEngine::new(graph.clone(), ItspqConfig::default());
    let methods = [
        Method::new("ITG/S", |q| syn.query(q).into()),
        Method::new("ITG/A", |q| asyn.query(q).into()),
    ];
    for m in measure_query_set(&queries, &methods, 2) {
        let label = &m.label;
        assert_eq!(m.all.samples, 2, "{label}: wrong query count");
        assert!(m.found.samples >= 1, "{label}: found no paths at all");
        assert!(m.all.mean > 0.0, "{label}: no time measured");
        assert!(
            m.all.min <= m.all.p50 && m.all.p50 <= m.all.max,
            "{label}: percentiles out of order: {m:?}"
        );
        assert!(m.all.mean <= m.all.max, "{label}: mean above max: {m:?}");
        assert!(
            m.mean(SearchStats::estimated_bytes).unwrap_or(0.0) > 0.0,
            "{label}: no memory estimated"
        );
    }
}

#[test]
fn figure_table_is_non_empty_on_paper_example() {
    let ex = paper_example::build();
    let graph = ItGraph::new(ex.space.clone());
    let queries = vec![Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0))];
    let syn = SynEngine::new(graph.clone(), ItspqConfig::default());
    let asyn = AsynEngine::new(graph.clone(), ItspqConfig::default());
    let methods = [
        Method::new("ITG/S", |q| syn.query(q).into()),
        Method::new("ITG/A", |q| asyn.query(q).into()),
    ];
    let series = measure_query_set(&queries, &methods, 1);
    let fig = Figure {
        id: "smoke",
        title: "paper example smoke",
        x_name: "q",
        unit: "us",
        rows: vec![FigRow {
            x: "p3-p4@9:00".into(),
            series,
        }],
    };
    let table = fig.table();
    assert!(
        table.contains("ITG/S") && table.contains("ITG/A"),
        "{table}"
    );
    assert!(table.lines().count() >= 3, "table lost its rows:\n{table}");
}

#[test]
fn paper_params_grid_is_complete() {
    let full = PaperParams::default();
    let smoke = PaperParams::smoke();
    // The smoke grid must stay a subset of the paper grid so CI exercises
    // the same code paths the full experiments use.
    assert!(smoke.t_sizes.iter().all(|t| full.t_sizes.contains(t)));
    assert!(smoke.deltas.iter().all(|d| full.deltas.contains(d)));
    assert!(!smoke.times.is_empty() && smoke.pairs_per_setting > 0);
    let table2 = full.table2();
    assert!(table2.contains("TABLE II") && table2.contains("1500"));
}

#[test]
fn table1_matches_paper_atis() {
    let t = itspq_bench::figures::table1();
    assert!(t.contains("d9") && t.contains("[0:00, 6:00)"), "{t}");
}
