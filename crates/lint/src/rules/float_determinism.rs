//! `float-determinism`: float arithmetic on the answer path must be
//! bit-reproducible and totally ordered.
//!
//! The parity certificates promise byte-identical batch answers across
//! worker counts and plan shapes. Three float idioms silently break that:
//!
//! * **`mul_add`** — fused multiply-add rounds once where `a * b + c`
//!   rounds twice; whether the two agree depends on the target's FMA
//!   codegen, so the same plan can produce different bytes on different
//!   machines. Write the two-rounding form explicitly.
//! * **comparator closures built on `partial_cmp`** — `sort_by`,
//!   `min_by`, `max_by` with a partial order are non-total on NaN and can
//!   reorder equal-keyed elements differently depending on input order.
//!   Use `f64::total_cmp` or the workspace's `core::ord` helpers.
//! * **unordered float reductions** — `.sum::<f32|f64>()` /
//!   `.product::<…>()` over an iterator whose order is not pinned
//!   re-associates rounding. Reduce in a deterministic order (sorted keys,
//!   `fold` over a slice) or keep the quantity integral.
//!
//! Scope: parity-critical modules only (see
//! [`crate::source::PARITY_CRITICAL_FILES`]), outside test regions.

use crate::diag::Diagnostic;
use crate::rules::{diag, Rule};
use crate::source::FileView;

/// Comparator-taking methods checked for `partial_cmp` closures.
const BY_METHODS: &[&str] = &["sort_by", "sort_unstable_by", "min_by", "max_by"];

/// See the module docs.
pub struct FloatDeterminism;

impl Rule for FloatDeterminism {
    fn name(&self) -> &'static str {
        "float-determinism"
    }

    fn description(&self) -> &'static str {
        "no mul_add, partial_cmp comparators or unordered float sums in parity-critical modules"
    }

    fn check(&self, view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
        if !view.ctx.parity_critical() {
            return;
        }
        for i in 0..view.code_len() {
            if view.in_test_region(i) {
                continue;
            }
            let text = view.ctext(i);
            let after_dot = i > 0 && view.ctext(i - 1) == ".";
            let Some(tok) = view.ct(i) else { continue };

            if text == "mul_add" && after_dot && view.ctext(i + 1) == "(" {
                out.push(diag(
                    view,
                    self.name(),
                    tok,
                    "`mul_add` fuses to one rounding only where the target emits FMA; \
                     answers would differ across machines — write `a * b + c` so every \
                     build rounds twice"
                        .to_string(),
                ));
                continue;
            }

            if BY_METHODS.contains(&text) && after_dot && view.ctext(i + 1) == "(" {
                let end = view.skip_balanced(i + 1);
                if (i + 1..end).any(|j| view.ctext(j) == "partial_cmp") {
                    out.push(diag(
                        view,
                        self.name(),
                        tok,
                        format!(
                            "`{text}` with a `partial_cmp` comparator is not a total order \
                             (NaN) and is input-order-sensitive; use `total_cmp` or the \
                             `core::ord` helpers"
                        ),
                    ));
                }
                continue;
            }

            if (text == "sum" || text == "product")
                && after_dot
                && view.ctext(i + 1) == "::"
                && view.ctext(i + 2) == "<"
                && matches!(view.ctext(i + 3), "f32" | "f64")
            {
                out.push(diag(
                    view,
                    self.name(),
                    tok,
                    format!(
                        "unordered float `.{text}::<{}>()` re-associates rounding; reduce \
                         in a pinned order (sorted keys, slice fold) or keep the quantity \
                         integral",
                        view.ctext(i + 3)
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::classify;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = classify(path);
        let view = FileView::new(&ctx, src);
        let mut out = Vec::new();
        FloatDeterminism.check(&view, &mut out);
        out
    }

    const PARITY: &str = "crates/core/src/framework.rs";

    #[test]
    fn flags_mul_add() {
        let src = "fn f(a: f64, b: f64, c: f64) -> f64 { a.mul_add(b, c) }\n";
        let out = run(PARITY, src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("FMA"));
    }

    #[test]
    fn flags_partial_cmp_comparators() {
        let src = "\
fn f(xs: &mut [f64]) {\n\
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
    let m = xs.iter().min_by(|a, b| a.partial_cmp(b).unwrap());\n\
}\n";
        let out = run(PARITY, src);
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn total_cmp_comparators_are_fine() {
        let src = "fn f(xs: &mut [f64]) { xs.sort_by(f64::total_cmp); }\n";
        assert!(run(PARITY, src).is_empty());
    }

    #[test]
    fn flags_float_turbofish_sum_but_not_integer_sum() {
        let src = "\
fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n\
fn g(xs: &[u64]) -> u64 { xs.iter().sum::<u64>() }\n";
        let out = run(PARITY, src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("f64"));
    }

    #[test]
    fn non_parity_files_are_out_of_scope() {
        let src = "fn f(a: f64, b: f64, c: f64) -> f64 { a.mul_add(b, c) }\n";
        assert!(run("crates/bench/src/runner.rs", src).is_empty());
        assert!(run("crates/core/src/heap.rs", src).is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "\
#[cfg(test)]\n\
mod tests {\n\
    fn close(a: f64, b: f64, c: f64) -> f64 { a.mul_add(b, c) }\n\
}\n";
        assert!(run(PARITY, src).is_empty());
    }
}
