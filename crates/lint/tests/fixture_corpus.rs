//! Integration tests driving [`itspq_lint::lint_source`] over the fixture
//! corpus in `tests/fixtures/`.
//!
//! The workspace walker deliberately skips directories named `fixtures`, so
//! these files never pollute a real `itspq-lint` run — each test feeds one to
//! the engine with an explicit [`FileCtx`] instead.

use itspq_lint::{classify, lint_source, FileOutcome, Severity, ALLOW_RULE};

/// Lints fixture `src` as if it lived at `path` inside the workspace.
fn lint_as(path: &str, src: &str) -> FileOutcome {
    lint_source(&classify(path), src)
}

/// Rule names of the unsuppressed findings, in source order.
fn rules(outcome: &FileOutcome) -> Vec<&str> {
    outcome.diagnostics.iter().map(|d| d.rule).collect()
}

#[test]
fn bad_panic_flags_every_family_member() {
    let out = lint_as(
        "crates/core/src/bad_panic.rs",
        include_str!("fixtures/bad_panic.rs"),
    );
    assert_eq!(rules(&out), vec!["no-panic-in-lib"; 6]);
    // unwrap, expect, panic!, unreachable!, todo!, unimplemented! in order.
    let lines: Vec<u32> = out.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![4, 8, 13, 15, 19, 23]);
    assert!(out
        .diagnostics
        .iter()
        .all(|d| d.severity == Severity::Error));
}

#[test]
fn bad_panic_is_exempt_outside_lib_discipline() {
    let src = include_str!("fixtures/bad_panic.rs");
    // Integration tests, benches, examples and non-disciplined crates may
    // panic freely.
    for path in [
        "crates/core/tests/bad_panic.rs",
        "crates/core/benches/bad_panic.rs",
        "crates/core/examples/bad_panic.rs",
        "crates/bench/src/bad_panic.rs",
        "crates/vendor/serde/src/bad_panic.rs",
    ] {
        let out = lint_as(path, src);
        assert!(
            out.diagnostics.is_empty(),
            "{path} should be exempt, got {:?}",
            rules(&out)
        );
    }
}

#[test]
fn bad_float_flags_partial_cmp_chains_and_literal_equality() {
    let out = lint_as(
        "crates/indoor-geom/src/bad_float.rs",
        include_str!("fixtures/bad_float.rs"),
    );
    // partial_cmp().unwrap() and partial_cmp().expect() each produce one
    // float-total-order finding (the chain) and one no-panic-in-lib finding
    // (the unwrap itself); the two literal comparisons one each.
    let float_findings = out
        .diagnostics
        .iter()
        .filter(|d| d.rule == "float-total-order")
        .count();
    assert_eq!(float_findings, 4);
    assert!(rules(&out).contains(&"no-panic-in-lib"));
}

#[test]
fn bad_clock_flags_core_only() {
    let src = include_str!("fixtures/bad_clock.rs");
    let out = lint_as("crates/core/src/bad_clock.rs", src);
    let clock_findings = out
        .diagnostics
        .iter()
        .filter(|d| d.rule == "no-wall-clock-in-core")
        .count();
    // `Instant` appears twice (import + use), `SystemTime` once.
    assert_eq!(clock_findings, 3);
    // Outside crates/core the same source is fine (bench measures time).
    assert!(lint_as("crates/bench/src/bad_clock.rs", src)
        .diagnostics
        .is_empty());
}

#[test]
fn bad_allows_are_themselves_findings() {
    let out = lint_as(
        "crates/core/src/bad_allows.rs",
        include_str!("fixtures/bad_allows.rs"),
    );
    let allow_errors = out
        .diagnostics
        .iter()
        .filter(|d| d.rule == ALLOW_RULE)
        .count();
    // Unjustified, unknown-rule and stale: three allow-discipline errors.
    assert_eq!(allow_errors, 3);
    // The unwraps shielded by the malformed/unknown allows still surface.
    assert_eq!(
        out.diagnostics
            .iter()
            .filter(|d| d.rule == "no-panic-in-lib")
            .count(),
        2
    );
    assert_eq!(out.suppressed, 0);
}

#[test]
fn ok_suppressed_is_clean_and_counts_the_allow() {
    let out = lint_as(
        "crates/core/src/ok_suppressed.rs",
        include_str!("fixtures/ok_suppressed.rs"),
    );
    assert!(out.diagnostics.is_empty(), "got {:?}", rules(&out));
    assert_eq!(out.suppressed, 1);
    assert_eq!(out.allows_used, 1);
}

#[test]
fn ok_clean_has_no_findings() {
    let out = lint_as(
        "crates/core/src/ok_clean.rs",
        include_str!("fixtures/ok_clean.rs"),
    );
    assert!(out.diagnostics.is_empty(), "got {:?}", out.diagnostics);
    assert_eq!(out.suppressed, 0);
}

#[test]
fn bad_nondet_iter_flags_both_enumerations_on_the_answer_path() {
    // The fixture is linted as `server.rs`, a parity-critical module.
    let out = lint_as(
        "crates/core/src/server.rs",
        include_str!("fixtures/bad_nondet_iter.rs"),
    );
    assert_eq!(
        rules(&out),
        vec!["nondet-iteration"; 2],
        "{:?}",
        out.diagnostics
    );
    // `.values()` in `summary`, `.keys()` in `replay_plans`; the keyed
    // `.get(..)` lookup in `hits` must NOT be flagged.
    assert!(out.diagnostics[0].message.contains(".values()"));
    assert!(out.diagnostics[1].message.contains(".keys()"));
}

#[test]
fn ok_nondet_iter_btreemap_twin_is_clean() {
    let out = lint_as(
        "crates/core/src/server.rs",
        include_str!("fixtures/ok_nondet_iter.rs"),
    );
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
}

#[test]
fn bad_float_det_flags_fma_partial_cmp_and_unordered_sum() {
    // The fixture is linted as `framework.rs`, a parity-critical module.
    let out = lint_as(
        "crates/core/src/framework.rs",
        include_str!("fixtures/bad_float_det.rs"),
    );
    assert_eq!(
        rules(&out),
        vec!["float-determinism"; 3],
        "{:?}",
        out.diagnostics
    );
    assert!(out.diagnostics[0].message.contains("mul_add"));
    assert!(out.diagnostics[1].message.contains("sort_by"));
    assert!(out.diagnostics[2].message.contains("sum"));
}

#[test]
fn ok_float_det_twin_is_clean_and_rule_is_scoped_to_parity_modules() {
    let fixed = include_str!("fixtures/ok_float_det.rs");
    let out = lint_as("crates/core/src/framework.rs", fixed);
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    // The *bad* twin outside the parity-critical set is also out of scope:
    // float-determinism guards the answer path, not every float in the repo.
    let elsewhere = lint_as(
        "crates/indoor-geom/src/bad_float_det.rs",
        include_str!("fixtures/bad_float_det.rs"),
    );
    assert!(
        !elsewhere
            .diagnostics
            .iter()
            .any(|d| d.rule == "float-determinism"),
        "{:?}",
        elsewhere.diagnostics
    );
}

#[test]
fn tricky_lexer_text_in_strings_comments_and_tests_is_invisible() {
    let out = lint_as(
        "crates/core/src/tricky_lexer.rs",
        include_str!("fixtures/tricky_lexer.rs"),
    );
    assert!(out.diagnostics.is_empty(), "got {:?}", out.diagnostics);
}
