//! `float-total-order`: float comparisons must survive NaN.
//!
//! The query engines order doors by `f64` distances. `partial_cmp` returns
//! `None` on NaN — so `partial_cmp(..).unwrap()` panics the worker, and a
//! `PartialOrd`-based heap silently mis-orders. The workspace idiom is
//! `f64::total_cmp` (or `itspq_core::ord::{cmp_dist, OrdF64}` above the core
//! crate), which is total over every bit pattern.
//!
//! Flags, in library code of the disciplined crates outside test regions:
//!
//! * `.partial_cmp(..)` immediately followed by `.unwrap()` / `.expect(..)`
//!   — the NaN panic waiting to happen;
//! * `==` / `!=` where either side is a floating-point *literal* (the
//!   lexical proxy for float equality; identifier-typed floats are invisible
//!   to a lexer and are covered by clippy's `float_cmp` instead).

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::{diag, Rule};
use crate::source::FileView;

/// See the module docs.
pub struct FloatTotalOrder;

impl Rule for FloatTotalOrder {
    fn name(&self) -> &'static str {
        "float-total-order"
    }

    fn description(&self) -> &'static str {
        "no NaN-unsafe partial_cmp().unwrap() chains or ==/!= against float literals"
    }

    fn check(&self, view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
        if !view.ctx.lib_discipline() {
            return;
        }
        for i in 0..view.code_len() {
            if view.in_test_region(i) {
                continue;
            }
            let Some(tok) = view.ct(i) else { continue };
            let text = view.ctext(i);

            // `.partial_cmp(x).unwrap()` / `.expect(..)`.
            if text == "partial_cmp"
                && i > 0
                && view.ctext(i.wrapping_sub(1)) == "."
                && view.ctext(i + 1) == "("
            {
                let after_args = view.skip_balanced(i + 1);
                let method = view.ctext(after_args + 1);
                if view.ctext(after_args) == "."
                    && (method == "unwrap" || method == "expect")
                    && view.ctext(after_args + 2) == "("
                {
                    out.push(diag(
                        view,
                        self.name(),
                        tok,
                        format!(
                            "`partial_cmp(..).{method}(..)` panics (or lies) on NaN; \
                             use `f64::total_cmp` or `itspq_core::ord::cmp_dist`"
                        ),
                    ));
                }
            }

            // `x == 1.0` / `1.0 != y`.
            if text == "==" || text == "!=" {
                let float_left = view.ckind(i.wrapping_sub(1)) == Some(TokenKind::Float) && i > 0;
                let float_right = view.ckind(i + 1) == Some(TokenKind::Float);
                if float_left || float_right {
                    out.push(diag(
                        view,
                        self.name(),
                        tok,
                        format!(
                            "bare `{text}` against a float literal is NaN- and \
                             rounding-hostile; compare with an epsilon or a total order"
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::classify;

    fn run(src: &str) -> Vec<Diagnostic> {
        let ctx = classify("crates/core/src/a.rs");
        let view = FileView::new(&ctx, src);
        let mut out = Vec::new();
        FloatTotalOrder.check(&view, &mut out);
        out
    }

    #[test]
    fn flags_partial_cmp_unwrap_and_expect() {
        let out = run(
            "fn f() { v.min_by(|a, b| a.partial_cmp(&b.len).expect(\"finite\")); \
             x.partial_cmp(&y).unwrap(); }\n",
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.rule == "float-total-order"));
    }

    #[test]
    fn bare_partial_cmp_is_fine() {
        // Returning the Option, or defaulting it, is NaN-aware.
        assert!(run("fn f() { a.partial_cmp(&b).unwrap_or(Ordering::Equal); }\n").is_empty());
        assert!(run("fn partial_cmp(&self, o: &Self) -> Option<Ordering> { None }\n").is_empty());
    }

    #[test]
    fn flags_float_literal_equality_both_sides() {
        assert_eq!(run("fn f() -> bool { x == 1.0 }\n").len(), 1);
        assert_eq!(run("fn f() -> bool { 0.5 != y }\n").len(), 1);
        assert_eq!(run("fn f() -> bool { x == 1e-3 }\n").len(), 1);
    }

    #[test]
    fn integer_equality_and_comparisons_are_fine() {
        assert!(run("fn f() -> bool { x == 1 && y != 2 && z <= 3.0 }\n").is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src =
            "#[cfg(test)]\nmod t { fn g() { assert!(x == 1.0); a.partial_cmp(&b).unwrap(); } }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn total_cmp_is_the_blessed_idiom() {
        assert!(run("fn f() { xs.sort_by(|a, b| a.total_cmp(b)); }\n").is_empty());
    }
}
