//! `no-panic-in-lib`: library code must not reserve the right to abort the
//! process.
//!
//! Behind a long-running [`VenueServer`] a single `.unwrap()` on a malformed
//! query or a poisoned invariant takes a whole worker pool down. Library
//! code of the algorithm crates therefore returns typed errors; the places
//! where an invariant really is locally provable carry a justified allow
//! instead.
//!
//! Flags, outside tests/benches/examples and `#[cfg(test)]` regions of
//! [`crate::source::LIB_DISCIPLINE_CRATES`]:
//!
//! * `.unwrap()` / `.expect(..)` method calls (lexical — the receiver's type
//!   is unknown, so `Result`, `Option` and anything else shaped like them
//!   are all flagged);
//! * the diverging macros `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`.
//!
//! `assert!`/`debug_assert!` are deliberately *not* flagged: stating an
//! invariant is encouraged, silently unwrapping past one is not.
//!
//! [`VenueServer`]: ../../itspq_core/server/struct.VenueServer.html

use crate::diag::Diagnostic;
use crate::rules::{diag, Rule};
use crate::source::FileView;

/// See the module docs.
pub struct NoPanicInLib;

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

impl Rule for NoPanicInLib {
    fn name(&self) -> &'static str {
        "no-panic-in-lib"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/unreachable! in library code of the algorithm crates"
    }

    fn check(&self, view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
        if !view.ctx.lib_discipline() {
            return;
        }
        for i in 0..view.code_len() {
            if view.in_test_region(i) {
                continue;
            }
            let text = view.ctext(i);
            let Some(tok) = view.ct(i) else { continue };
            if PANIC_MACROS.contains(&text) && view.ctext(i + 1) == "!" {
                out.push(diag(
                    view,
                    self.name(),
                    tok,
                    format!(
                        "`{text}!` in library code of `{}` aborts the caller; \
                         return a typed error instead",
                        view.ctx.crate_name
                    ),
                ));
            } else if PANIC_METHODS.contains(&text)
                && view.ctext(i.wrapping_sub(1)) == "."
                && view.ctext(i + 1) == "("
                && i > 0
            {
                out.push(diag(
                    view,
                    self.name(),
                    tok,
                    format!(
                        "`.{text}(..)` in library code of `{}` panics on the error path; \
                         propagate a typed error, or prove the invariant in a justified allow",
                        view.ctx.crate_name
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
        NoPanicInLib.check(&view, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_expect_and_macros_in_lib() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); unreachable!(); }\n";
        let out = run("crates/core/src/a.rs", src);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|d| d.rule == "no-panic-in-lib"));
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn ignores_tests_benches_examples_vendor_and_bench_crate() {
        let src = "fn f() { x.unwrap(); }\n";
        for path in [
            "crates/core/tests/t.rs",
            "crates/bench/src/runner.rs",
            "crates/bench/benches/b.rs",
            "examples/e.rs",
            "crates/vendor/serde/src/lib.rs",
        ] {
            assert!(run(path, src).is_empty(), "{path}");
        }
    }

    #[test]
    fn ignores_cfg_test_region_and_comments_and_strings() {
        let src = "\
// a comment mentioning x.unwrap()\n\
const S: &str = \"panic!\";\n\
#[cfg(test)]\nmod tests { fn t() { x.unwrap(); panic!(); } }\n";
        assert!(run("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(f); x.unwrap_or_default(); }\n";
        assert!(run("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn asserts_are_fine() {
        let src = "fn f() { assert!(a); assert_eq!(a, b); debug_assert!(c); }\n";
        assert!(run("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn field_named_unwrap_is_not_a_call() {
        let src = "fn f() { let a = s.unwrap; g(unwrap()); }\n";
        assert!(run("crates/core/src/a.rs", src).is_empty());
    }
}
