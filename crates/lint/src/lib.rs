//! # itspq-lint — workspace static analysis for the ITSPQ reproduction
//!
//! A self-contained lexical analysis pass that enforces the invariants the
//! serving roadmap depends on: library code that cannot panic a worker pool,
//! float orderings that survive NaN, deterministic iteration and float
//! reductions on the answer path, scoped threads, and wall-clock-free
//! algorithm code. Locks are banned outright by `clippy.toml`, so no rule
//! here reasons about them.
//!
//! ## Pipeline
//!
//! 1. [`lexer`] tokenises each file (comments, strings and raw strings are
//!    skipped *correctly* — a `unwrap()` inside a string is not a finding);
//! 2. [`source`] classifies the file (crate, lib/test/bench/example/vendor)
//!    and computes `#[cfg(test)]` regions so inline test modules are exempt;
//! 3. [`parser`] builds a brace-matched item tree (modules, fns, impls,
//!    imports) over the token stream;
//! 4. every token-layer [`rules::Rule`] scans the file and emits
//!    [`diag::Diagnostic`]s with `file:line:col` positions;
//! 5. [`graph`] distils each file into function facts — calls and panic
//!    sites — and aggregates them into a workspace symbol table and
//!    approximate call graph over which the graph-layer
//!    [`rules::WorkspaceRule`]s run;
//! 6. [`allow`] parses `// itspq-lint: allow(<rule>, "<justification>")`
//!    directives — themselves checked: no justification, unknown rule or a
//!    stale (unused) allow is an `allow-discipline` error;
//! 7. [`engine`] suppresses and aggregates into a workspace [`Report`].
//!
//! ## Rules
//!
//! Token layer (per file):
//!
//! | rule | invariant |
//! |---|---|
//! | `no-panic-in-lib` | no `unwrap`/`expect`/`panic!`-family in library code of the algorithm crates |
//! | `float-total-order` | no `partial_cmp(..).unwrap()` chains, no `==`/`!=` against float literals |
//! | `scoped-threads-only` | no `std::thread::spawn` outside `crates/bench` |
//! | `no-wall-clock-in-core` | no `Instant`/`SystemTime` in `crates/core` library code |
//! | `nondet-iteration` | no `HashMap`/`HashSet` iteration in parity-critical modules |
//! | `float-determinism` | no `mul_add`, `partial_cmp` comparators or unordered float sums there |
//!
//! Graph layer (whole workspace):
//!
//! | rule | invariant |
//! |---|---|
//! | `panic-reachability` | disciplined lib fns cannot transitively reach a panic site |
//!
//! See `ARCHITECTURE.md` (§ *Static analysis & invariants*) for the policy
//! and `cargo run -p itspq-lint -- --list-rules` for the live catalogue.

#![forbid(unsafe_code)]

pub mod allow;
pub mod diag;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;

pub use allow::{collect_allows, Allow, ALLOW_RULE};
pub use diag::{Diagnostic, Severity};
pub use engine::{
    audit_allows, audit_workspace_allows, collect_workspace_allows, lint_files, lint_source,
    lint_workspace, AllowAudit, FileOutcome, Report,
};
pub use graph::{extract_facts, FnFact, Workspace};
pub use lexer::{lex, Token, TokenKind};
pub use parser::{parse, Item, ItemKind, ItemTree};
pub use rules::{all_rules, is_known_rule, workspace_rules, Rule, WorkspaceRule};
pub use source::{
    classify, FileCtx, FileKind, FileView, LIB_DISCIPLINE_CRATES, PARITY_CRITICAL_FILES,
};
