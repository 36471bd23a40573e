//! `no-wall-clock-in-core`: algorithm code never reads the machine clock.
//!
//! Query semantics in `itspq-core` are functions of the *query's* departure
//! time, never of when the process happens to run: determinism is what makes
//! worker-count-independence and the sequential-parity tests meaningful.
//! Timing lives in `crates/bench`.
//!
//! Flags any use of the identifiers `Instant` or `SystemTime` (imports
//! included) in library code of `crates/core` outside test regions. Temporal
//! *model* types (`TimeOfDay`, `Timestamp`) are of course untouched.

use crate::diag::Diagnostic;
use crate::rules::{diag, Rule};
use crate::source::{FileKind, FileView};

/// See the module docs.
pub struct NoWallClockInCore;

impl Rule for NoWallClockInCore {
    fn name(&self) -> &'static str {
        "no-wall-clock-in-core"
    }

    fn description(&self) -> &'static str {
        "no Instant/SystemTime in crates/core library code; timing belongs in bench"
    }

    fn check(&self, view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
        if view.ctx.crate_name != "core" || view.ctx.kind != FileKind::Lib {
            return;
        }
        for i in 0..view.code_len() {
            if view.in_test_region(i) {
                continue;
            }
            let text = view.ctext(i);
            if text == "Instant" || text == "SystemTime" {
                let Some(tok) = view.ct(i) else { continue };
                out.push(diag(
                    view,
                    self.name(),
                    tok,
                    format!(
                        "`{text}` in core algorithm code breaks determinism; answers \
                         depend only on the query's departure time — measure in `crates/bench`"
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
        NoWallClockInCore.check(&view, &mut out);
        out
    }

    #[test]
    fn flags_instant_and_systemtime_in_core_lib() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(run("crates/core/src/engine_syn.rs", src).len(), 2);
        let src = "fn f() { let t = std::time::SystemTime::now(); }\n";
        assert_eq!(run("crates/core/src/engine_syn.rs", src).len(), 1);
    }

    #[test]
    fn bench_and_other_crates_keep_the_clock() {
        let src = "use std::time::Instant;\n";
        assert!(run("crates/bench/src/runner.rs", src).is_empty());
        assert!(run("crates/lint/src/main.rs", src).is_empty());
        assert!(run("crates/core/tests/timing.rs", src).is_empty());
    }

    #[test]
    fn temporal_model_types_are_untouched() {
        let src = "use indoor_time::{TimeOfDay, Timestamp};\nfn f(t: TimeOfDay) {}\n";
        assert!(run("crates/core/src/engine_syn.rs", src).is_empty());
    }

    #[test]
    fn core_test_regions_may_time() {
        let src = "#[cfg(test)]\nmod t { use std::time::Instant; }\n";
        assert!(run("crates/core/src/engine_syn.rs", src).is_empty());
    }
}
