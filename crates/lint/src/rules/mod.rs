//! The rule engine: one module per rule, two common traits, and the
//! registry.
//!
//! Rules come in two layers:
//!
//! * **Token rules** ([`Rule`]) are per-file and lexical: they match token
//!   patterns against one [`FileView`] (with the parsed [`ItemTree`] on
//!   hand for scoping). Fast, honest about their approximations, and every
//!   finding can be silenced per-site with a justified
//!   `// itspq-lint: allow(<rule>, "<why>")`.
//! * **Graph rules** ([`WorkspaceRule`]) run once over the aggregated
//!   [`Workspace`] — the symbol table and approximate call graph — and
//!   report cross-file facts a single file cannot show: transitive panic
//!   reachability.

use crate::diag::{Diagnostic, Severity};
use crate::graph::Workspace;
use crate::lexer::Token;
use crate::parser::ItemTree;
use crate::source::FileView;

mod float_determinism;
mod float_total_order;
mod no_panic_in_lib;
mod no_wall_clock_in_core;
mod nondet_iteration;
mod panic_reachability;
mod scoped_threads_only;

pub use float_determinism::FloatDeterminism;
pub use float_total_order::FloatTotalOrder;
pub use no_panic_in_lib::NoPanicInLib;
pub use no_wall_clock_in_core::NoWallClockInCore;
pub use nondet_iteration::NondetIteration;
pub use panic_reachability::PanicReachability;
pub use scoped_threads_only::ScopedThreadsOnly;

/// A per-file (token-layer) lint rule.
pub trait Rule {
    /// Kebab-case rule name, as used in allow directives.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Scans one file and appends findings.
    fn check(&self, view: &FileView<'_>, tree: &ItemTree, out: &mut Vec<Diagnostic>);
}

/// A workspace (graph-layer) lint rule.
pub trait WorkspaceRule {
    /// Kebab-case rule name, as used in allow directives.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Scans the aggregated workspace and appends findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// All shipped per-file rules, in reporting order.
#[must_use]
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoPanicInLib),
        Box::new(FloatTotalOrder),
        Box::new(ScopedThreadsOnly),
        Box::new(NoWallClockInCore),
        Box::new(NondetIteration),
        Box::new(FloatDeterminism),
    ]
}

/// All shipped workspace rules, in reporting order.
#[must_use]
pub fn workspace_rules() -> Vec<Box<dyn WorkspaceRule>> {
    vec![Box::new(PanicReachability)]
}

/// Whether `name` is a shipped rule name (either layer). The
/// `allow-discipline` meta-rule is deliberately *not* allowable.
#[must_use]
pub fn is_known_rule(name: &str) -> bool {
    all_rules().iter().any(|r| r.name() == name)
        || workspace_rules().iter().any(|r| r.name() == name)
}

/// Shared constructor for rule findings.
pub(crate) fn diag(
    view: &FileView<'_>,
    rule: &'static str,
    tok: &Token,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        path: view.ctx.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
    }
}
