//! The rule engine: one module per rule, the common trait, and the
//! registry.
//!
//! Every rule is per-file and lexical: it matches token patterns against
//! one [`FileView`]. Rules are fast, honest about their approximations, and
//! every finding can be silenced per-site with a justified
//! `// itspq-lint: allow(<rule>, "<why>")`.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::Token;
use crate::source::FileView;

mod float_determinism;
mod float_total_order;
mod no_panic_in_lib;
mod no_wall_clock_in_core;
mod nondet_iteration;

pub use float_determinism::FloatDeterminism;
pub use float_total_order::FloatTotalOrder;
pub use no_panic_in_lib::NoPanicInLib;
pub use no_wall_clock_in_core::NoWallClockInCore;
pub use nondet_iteration::NondetIteration;

/// A per-file lint rule.
pub trait Rule {
    /// Kebab-case rule name, as used in allow directives.
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Scans one file and appends findings.
    fn check(&self, view: &FileView<'_>, out: &mut Vec<Diagnostic>);
}

/// All shipped rules, in reporting order.
#[must_use]
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoPanicInLib),
        Box::new(FloatTotalOrder),
        Box::new(NoWallClockInCore),
        Box::new(NondetIteration),
        Box::new(FloatDeterminism),
    ]
}

/// Whether `name` is a shipped rule name. The `allow-discipline` meta-rule
/// is deliberately *not* allowable.
#[must_use]
pub fn is_known_rule(name: &str) -> bool {
    all_rules().iter().any(|r| r.name() == name)
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
