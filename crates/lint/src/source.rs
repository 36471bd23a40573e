//! File classification and the token view rules run against.
//!
//! The rules are scoped: panic-discipline applies to *library* code of the
//! algorithm crates but not to tests, benches, examples or vendored stubs.
//! [`classify`] derives that scope from the workspace-relative path, and
//! [`FileView`] augments the token stream with `#[cfg(test)]` region
//! information so inline test modules are exempt as well.

use crate::lexer::{lex, Token, TokenKind};

/// What role a file plays in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`crates/<x>/src/**`, root `src/**`).
    Lib,
    /// A binary target (`src/main.rs`, `src/bin/**`, `build.rs`).
    Bin,
    /// Integration tests (`tests/**`).
    Test,
    /// Benchmarks (`benches/**`).
    Bench,
    /// Examples (`examples/**`).
    Example,
    /// Vendored third-party stubs (`crates/vendor/**`) — never linted.
    Vendor,
}

/// The crates whose *library* code is held to panic- and float-discipline.
/// `bench` is deliberately absent (it owns the wall clock
/// and the documented `unsafe` allocator); vendored stubs are out of scope.
pub const LIB_DISCIPLINE_CRATES: &[&str] = &[
    "core",
    "indoor-geom",
    "indoor-space",
    "indoor-time",
    "synthetic",
    "lint",
    "itspq-repro",
];

/// The files whose code sits on the byte-identical answer path: batch
/// planning and scatter, shared execution, certified replay and the
/// one-to-many lattice. Determinism rules (`nondet-iteration`,
/// `float-determinism`) fire only here — everywhere else, iteration order
/// and float reductions cannot reach an answer or a `BatchStats` field.
///
/// To extend the set, add the workspace-relative path here and justify the
/// addition in `ARCHITECTURE.md` (§ *Static analysis & invariants*).
pub const PARITY_CRITICAL_FILES: &[&str] = &[
    "crates/core/src/framework.rs",
    "crates/core/src/replay.rs",
    "crates/core/src/server.rs",
    "crates/core/src/one_to_many.rs",
    "crates/core/src/engine_syn.rs",
    "crates/core/src/engine_asyn.rs",
];

/// Where a file sits: path, owning crate and role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCtx {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The owning crate's directory name (`core`, `indoor-geom`, …);
    /// `itspq-repro` for the root umbrella crate.
    pub crate_name: String,
    /// The file's role.
    pub kind: FileKind,
}

impl FileCtx {
    /// Whether library-discipline rules (panic/float) apply here.
    #[must_use]
    pub fn lib_discipline(&self) -> bool {
        self.kind == FileKind::Lib && LIB_DISCIPLINE_CRATES.contains(&self.crate_name.as_str())
    }

    /// Whether determinism rules (`nondet-iteration`, `float-determinism`)
    /// apply here — exact-path membership in [`PARITY_CRITICAL_FILES`].
    #[must_use]
    pub fn parity_critical(&self) -> bool {
        PARITY_CRITICAL_FILES.contains(&self.path.as_str())
    }
}

/// Classifies a workspace-relative path (forward slashes).
#[must_use]
pub fn classify(rel: &str) -> FileCtx {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_string()
    } else {
        "itspq-repro".to_string()
    };
    let kind = if rel.starts_with("crates/vendor/") {
        FileKind::Vendor
    } else if parts.contains(&"tests") {
        FileKind::Test
    } else if parts.contains(&"benches") {
        FileKind::Bench
    } else if parts.contains(&"examples") {
        FileKind::Example
    } else if parts.last() == Some(&"build.rs")
        || parts.last() == Some(&"main.rs")
        || parts.contains(&"bin")
    {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    FileCtx {
        path: rel.to_string(),
        crate_name,
        kind,
    }
}

/// A lexed file plus everything rules need: the comment-free token indices
/// and the byte ranges covered by `#[cfg(test)]`-gated items.
pub struct FileView<'a> {
    /// Classification of the file.
    pub ctx: &'a FileCtx,
    /// The raw source.
    pub src: &'a str,
    /// All tokens, comments included (the allow scanner needs them).
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Byte ranges of `#[cfg(test)]` items (inline test modules etc.).
    pub test_regions: Vec<(usize, usize)>,
}

impl<'a> FileView<'a> {
    /// Lexes `src` and computes the code index and test regions.
    #[must_use]
    pub fn new(ctx: &'a FileCtx, src: &'a str) -> Self {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut view = FileView {
            ctx,
            src,
            tokens,
            code,
            test_regions: Vec::new(),
        };
        view.test_regions = view.find_test_regions();
        view
    }

    /// The `i`-th code token (comments skipped), if any.
    #[must_use]
    pub fn ct(&self, i: usize) -> Option<&Token> {
        self.code.get(i).and_then(|&j| self.tokens.get(j))
    }

    /// Text of the `i`-th code token ("" past the end).
    #[must_use]
    pub fn ctext(&self, i: usize) -> &str {
        self.ct(i).map_or("", |t| t.text(self.src))
    }

    /// Kind of the `i`-th code token.
    #[must_use]
    pub fn ckind(&self, i: usize) -> Option<TokenKind> {
        self.ct(i).map(|t| t.kind)
    }

    /// Number of code tokens.
    #[must_use]
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Whether the `i`-th code token sits inside a `#[cfg(test)]` region.
    #[must_use]
    pub fn in_test_region(&self, i: usize) -> bool {
        self.ct(i).is_some_and(|t| {
            self.test_regions
                .iter()
                .any(|&(s, e)| t.start >= s && t.start < e)
        })
    }

    /// Advances past a balanced bracket group: `open` is the code index of a
    /// `(`, `[` or `{`; returns the code index just past its matching closer
    /// (or the end of the stream for unbalanced input).
    #[must_use]
    pub fn skip_balanced(&self, open: usize) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < self.code_len() {
            match self.ctext(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Finds `#[cfg(test)]`-gated items: returns byte ranges from the `#` of
    /// the attribute to the end of the gated item (matching `}` or `;`).
    fn find_test_regions(&self) -> Vec<(usize, usize)> {
        let mut regions = Vec::new();
        let mut i = 0;
        while i < self.code_len() {
            if self.ctext(i) == "#" && self.ctext(i + 1) == "[" {
                let after_attr = self.skip_balanced(i + 1);
                if self.attr_is_test_gate(i + 2, after_attr.saturating_sub(1)) {
                    let start = self.ct(i).map_or(0, |t| t.start);
                    let end = self.item_end(after_attr);
                    regions.push((start, end));
                    i = after_attr;
                    continue;
                }
                i = after_attr;
                continue;
            }
            i += 1;
        }
        regions
    }

    /// Whether the attribute tokens in `[from, to)` read as a test gate:
    /// first identifier exactly `cfg`, containing `test` and no `not`.
    fn attr_is_test_gate(&self, from: usize, to: usize) -> bool {
        if self.ctext(from) != "cfg" {
            return false;
        }
        let mut saw_test = false;
        for i in from..to {
            match self.ctext(i) {
                "not" => return false,
                "test" => saw_test = true,
                _ => {}
            }
        }
        saw_test
    }

    /// End (byte offset) of the item starting at code index `i`: skips any
    /// further attributes, then runs to the first `;` at relative depth 0 or
    /// past the matching `}` of the first `{` at relative depth 0.
    fn item_end(&self, mut i: usize) -> usize {
        while self.ctext(i) == "#" && self.ctext(i + 1) == "[" {
            i = self.skip_balanced(i + 1);
        }
        let mut depth = 0i64;
        while i < self.code_len() {
            match self.ctext(i) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" => {
                    if depth == 0 {
                        let past = self.skip_balanced(i);
                        return self
                            .ct(past.saturating_sub(1))
                            .map_or(self.src.len(), |t| t.end);
                    }
                    depth += 1;
                }
                "}" => depth -= 1,
                ";" if depth == 0 => {
                    return self.ct(i).map_or(self.src.len(), |t| t.end);
                }
                _ => {}
            }
            i += 1;
        }
        self.src.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let cases = [
            ("crates/core/src/heap.rs", "core", FileKind::Lib, true),
            ("crates/lint/src/main.rs", "lint", FileKind::Bin, false),
            ("crates/lint/src/lexer.rs", "lint", FileKind::Lib, true),
            (
                "crates/indoor-geom/tests/proptest_geom.rs",
                "indoor-geom",
                FileKind::Test,
                false,
            ),
            ("crates/bench/src/runner.rs", "bench", FileKind::Lib, false),
            (
                "crates/bench/benches/search.rs",
                "bench",
                FileKind::Bench,
                false,
            ),
            (
                "crates/vendor/serde/src/lib.rs",
                "vendor",
                FileKind::Vendor,
                false,
            ),
            ("src/lib.rs", "itspq-repro", FileKind::Lib, true),
            (
                "tests/paper_example.rs",
                "itspq-repro",
                FileKind::Test,
                false,
            ),
            (
                "examples/quickstart.rs",
                "itspq-repro",
                FileKind::Example,
                false,
            ),
        ];
        for (path, krate, kind, disciplined) in cases {
            let ctx = classify(path);
            assert_eq!(ctx.crate_name, krate, "{path}");
            assert_eq!(ctx.kind, kind, "{path}");
            assert_eq!(ctx.lib_discipline(), disciplined, "{path}");
        }
    }

    #[test]
    fn cfg_test_region_covers_inline_module() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let ctx = classify("crates/core/src/x.rs");
        let view = FileView::new(&ctx, src);
        assert_eq!(view.test_regions.len(), 1);
        let unwrap_idx = (0..view.code_len())
            .find(|&i| view.ctext(i) == "unwrap")
            .expect("token present");
        assert!(view.in_test_region(unwrap_idx));
        let after_idx = (0..view.code_len())
            .find(|&i| view.ctext(i) == "after")
            .expect("token present");
        assert!(!view.in_test_region(after_idx));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod real { fn f() { x.unwrap(); } }\n";
        let ctx = classify("crates/core/src/x.rs");
        let view = FileView::new(&ctx, src);
        assert!(view.test_regions.is_empty());
    }

    #[test]
    fn cfg_attr_is_not_a_test_region() {
        let src = "#[cfg_attr(test, allow(dead_code))]\nfn f() {}\n";
        let ctx = classify("crates/core/src/x.rs");
        let view = FileView::new(&ctx, src);
        assert!(view.test_regions.is_empty());
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod m { }\n";
        let ctx = classify("crates/core/src/x.rs");
        let view = FileView::new(&ctx, src);
        assert_eq!(view.test_regions.len(), 1);
    }
}
