//! Smoke test of the bench harness on the paper's running example: the
//! runner and parameter grid must produce a non-empty result table, so the
//! figure pipeline cannot silently bit-rot between benchmark runs.

use indoor_space::paper_example;
use indoor_time::TimeOfDay;
use itspq_bench::figures::{FigRow, Figure};
use itspq_bench::{measure_query_set, MethodKind, PaperParams};
use itspq_core::{ItGraph, ItspqConfig, Query};

#[test]
fn runner_measures_paper_example_queries() {
    let ex = paper_example::build();
    let graph = ItGraph::new(ex.space.clone());
    let queries = vec![
        // Example 1 of the paper: feasible at 9:00.
        Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
        Query::new(ex.p1, ex.p2, TimeOfDay::hm(12, 0)),
    ];
    for method in [MethodKind::ItgS, MethodKind::ItgA] {
        let m = measure_query_set(&graph, method, ItspqConfig::default(), &queries, 2);
        assert_eq!(m.total, 2, "{}: wrong query count", method.label());
        assert!(m.found >= 1, "{}: found no paths at all", method.label());
        assert!(m.mean_time_us > 0.0, "{}: no time measured", method.label());
        assert!(
            m.p50_us <= m.p99_us && m.p99_us <= m.max_us,
            "{}: percentiles out of order: {m:?}",
            method.label()
        );
        assert!(
            m.mean_time_us <= m.max_us,
            "{}: mean above max: {m:?}",
            method.label()
        );
        assert!(
            m.mean_mem_kb > 0.0,
            "{}: no memory estimated",
            method.label()
        );
    }
}

#[test]
fn figure_table_is_non_empty_on_paper_example() {
    let ex = paper_example::build();
    let graph = ItGraph::new(ex.space.clone());
    let queries = vec![Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0))];
    let series = [MethodKind::ItgS, MethodKind::ItgA]
        .into_iter()
        .map(|m| {
            let meas = measure_query_set(&graph, m, ItspqConfig::default(), &queries, 1);
            (m.label().to_owned(), meas)
        })
        .collect();
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
