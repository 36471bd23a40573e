//! # itspq-lint — workspace static analysis for the ITSPQ reproduction
//!
//! A self-contained lexical analysis pass that enforces the invariants the
//! serving roadmap depends on: library code that cannot panic a worker pool,
//! float orderings that survive NaN, deterministic iteration and float
//! reductions on the answer path, and wall-clock-free algorithm code. Locks
//! and detached threads are banned outright by `clippy.toml`, so no rule
//! here reasons about them.
//!
//! ## Pipeline
//!
//! One pass per file:
//!
//! 1. [`lexer`] tokenises the file (comments, strings and raw strings are
//!    skipped *correctly* — a `unwrap()` inside a string is not a finding);
//! 2. [`source`] classifies it (crate, lib/test/bench/example/vendor) and
//!    computes `#[cfg(test)]` regions so inline test modules are exempt;
//! 3. every [`rules::Rule`] scans it and emits [`diag::Diagnostic`]s with
//!    `file:line:col` positions;
//! 4. [`allow`] parses `// itspq-lint: allow(<rule>, "<justification>")`
//!    directives — themselves checked: no justification, unknown rule or a
//!    stale (unused) allow is an `allow-discipline` error;
//! 5. [`engine`] suppresses and aggregates into a workspace [`Report`].
//!
//! ## Rules
//!
//! | rule | invariant |
//! |---|---|
//! | `no-panic-in-lib` | no `unwrap`/`expect`/`panic!`-family in library code of the algorithm crates |
//! | `float-total-order` | no `partial_cmp(..).unwrap()` chains, no `==`/`!=` against float literals |
//! | `no-wall-clock-in-core` | no `Instant`/`SystemTime` in `crates/core` library code |
//! | `nondet-iteration` | no `HashMap`/`HashSet` iteration in parity-critical modules |
//! | `float-determinism` | no `mul_add`, `partial_cmp` comparators or unordered float sums there |
//!
//! No rule follows calls: `no-panic-in-lib` already covers every non-test
//! library function of a disciplined crate. See `ARCHITECTURE.md`
//! (§ *Static analysis & invariants*) for the policy and
//! `cargo run -p itspq-lint -- --list-rules` for the live catalogue.

#![forbid(unsafe_code)]

pub mod allow;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;

pub use allow::{collect_allows, Allow, ALLOW_RULE};
pub use diag::{Diagnostic, Severity};
pub use engine::{
    audit_allows, audit_workspace_allows, collect_workspace_allows, lint_files, lint_source,
    lint_workspace, AllowAudit, FileOutcome, Report,
};
pub use lexer::{lex, Token, TokenKind};
pub use rules::{all_rules, is_known_rule, Rule};
pub use source::{
    classify, FileCtx, FileKind, FileView, LIB_DISCIPLINE_CRATES, PARITY_CRITICAL_FILES,
};
