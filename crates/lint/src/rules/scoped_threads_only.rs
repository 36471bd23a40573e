//! `scoped-threads-only`: no detached threads outside the bench crate.
//!
//! The workspace concurrency idiom is `std::thread::scope`: workers borrow
//! the `Arc<ItGraph>` and the query slice, the scope joins them, and a
//! panicking worker surfaces at the join instead of detaching and leaking.
//! `std::thread::spawn` escapes that discipline — a spawned worker outlives
//! the batch, cannot borrow, and dies silently.
//!
//! Flags `thread::spawn` paths everywhere except `crates/bench` (whose
//! harnesses may reasonably background work) and vendored stubs. Scope
//! method calls (`scope.spawn(..)`) are the idiom and are not flagged.

use crate::diag::Diagnostic;
use crate::parser::ItemTree;
use crate::rules::{diag, Rule};
use crate::source::{FileKind, FileView};

/// See the module docs.
pub struct ScopedThreadsOnly;

impl Rule for ScopedThreadsOnly {
    fn name(&self) -> &'static str {
        "scoped-threads-only"
    }

    fn description(&self) -> &'static str {
        "no std::thread::spawn outside crates/bench; thread::scope is the idiom"
    }

    fn check(&self, view: &FileView<'_>, _tree: &ItemTree, out: &mut Vec<Diagnostic>) {
        if view.ctx.kind == FileKind::Vendor || view.ctx.crate_name == "bench" {
            return;
        }
        for i in 0..view.code_len() {
            if view.ctext(i) == "thread"
                && view.ctext(i + 1) == "::"
                && view.ctext(i + 2) == "spawn"
            {
                let Some(tok) = view.ct(i) else { continue };
                out.push(diag(
                    view,
                    self.name(),
                    tok,
                    "`thread::spawn` detaches from the batch lifecycle; \
                     use `std::thread::scope` (the workspace idiom) or move the \
                     harness into `crates/bench`"
                        .to_string(),
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
        ScopedThreadsOnly.check(&view, &crate::parser::parse(&view), &mut out);
        out
    }

    #[test]
    fn flags_thread_spawn_in_lib_and_tests() {
        let src = "fn f() { std::thread::spawn(move || work()); }\n";
        assert_eq!(run("crates/core/src/server.rs", src).len(), 1);
        assert_eq!(run("tests/concurrent_server.rs", src).len(), 1);
    }

    #[test]
    fn scope_spawn_is_the_idiom() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| work()); }); }\n";
        assert!(run("crates/core/src/server.rs", src).is_empty());
    }

    #[test]
    fn bench_crate_and_vendor_are_exempt() {
        let src = "fn f() { std::thread::spawn(move || work()); }\n";
        assert!(run("crates/bench/src/runner.rs", src).is_empty());
        assert!(run("crates/vendor/rand/src/lib.rs", src).is_empty());
    }
}
