//! Inline suppressions: `// itspq-lint: allow(<rule>, "<justification>")`.
//!
//! A suppression is itself checked code:
//!
//! * it must carry a **non-empty justification string** — an allow without
//!   one is an `allow-discipline` error, not a suppression;
//! * the rule name must exist;
//! * it must actually suppress something — stale allows are errors too, so
//!   the suppression inventory can never silently outlive the hazards it
//!   was written for.
//!
//! A trailing allow (code earlier on the same line) applies to its own line;
//! an allow on a line of its own applies to the next code line.

use crate::diag::{Diagnostic, Severity};
use crate::source::FileView;

/// The rule name used for problems with suppressions themselves.
pub const ALLOW_RULE: &str = "allow-discipline";

/// A parsed, well-formed allow directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule being suppressed.
    pub rule: String,
    /// Why the suppression is sound (shown in `--list-allows`).
    pub justification: String,
    /// The source line whose diagnostics this allow suppresses.
    pub target_line: u32,
    /// The line the directive itself is on.
    pub comment_line: u32,
    /// Column of the directive.
    pub col: u32,
}

/// Scans a file's comments for allow directives. Returns the well-formed
/// allows and an `allow-discipline` diagnostic for each malformed one.
#[must_use]
pub fn collect_allows(view: &FileView<'_>) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut errors = Vec::new();
    for (idx, tok) in view.tokens.iter().enumerate() {
        if !tok.is_comment() {
            continue;
        }
        let text = tok.text(view.src);
        // Doc comments are rendered documentation — they *describe* the
        // directive syntax, they don't issue directives.
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| text.starts_with(p))
        {
            continue;
        }
        let Some(marker) = text.find("itspq-lint:") else {
            continue;
        };
        let rest = text[marker + "itspq-lint:".len()..].trim_start();
        let err = |message: String| Diagnostic {
            rule: ALLOW_RULE,
            severity: Severity::Error,
            path: view.ctx.path.clone(),
            line: tok.line,
            col: tok.col,
            message,
        };
        match parse_allow(rest) {
            Ok((rule, justification)) => {
                let target_line = if code_earlier_on_line(view, idx) {
                    tok.line
                } else {
                    next_code_line(view, idx).unwrap_or(tok.line)
                };
                allows.push(Allow {
                    rule,
                    justification,
                    target_line,
                    comment_line: tok.line,
                    col: tok.col,
                });
            }
            Err(why) => errors.push(err(format!(
                "malformed `itspq-lint:` directive ({why}); expected \
                 `itspq-lint: allow(<rule>, \"<justification>\")`"
            ))),
        }
    }
    (allows, errors)
}

/// Parses `allow(<rule>, "<justification>")`. The justification must be a
/// non-empty double-quoted string.
fn parse_allow(s: &str) -> Result<(String, String), &'static str> {
    let s = s.trim_start();
    let Some(inner) = s.strip_prefix("allow") else {
        return Err("unknown directive, only `allow` is supported");
    };
    let inner = inner.trim_start();
    let Some(inner) = inner.strip_prefix('(') else {
        return Err("missing `(` after `allow`");
    };
    let Some((rule, rest)) = inner.split_once(',') else {
        return Err("missing justification: an allow must explain itself");
    };
    let rule = rule.trim();
    if rule.is_empty() || !rule.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
        return Err("rule name must be a kebab-case identifier");
    }
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('"') else {
        return Err("justification must be a double-quoted string");
    };
    let Some((justification, tail)) = rest.split_once('"') else {
        return Err("unterminated justification string");
    };
    if justification.trim().is_empty() {
        return Err("empty justification: an allow must explain itself");
    }
    if !tail.trim_start().starts_with(')') {
        return Err("missing closing `)`");
    }
    Ok((rule.to_string(), justification.to_string()))
}

/// Whether a code token precedes token `idx` on the same line.
fn code_earlier_on_line(view: &FileView<'_>, idx: usize) -> bool {
    let line = view.tokens[idx].line;
    view.tokens[..idx]
        .iter()
        .rev()
        .take_while(|t| t.line == line)
        .any(|t| !t.is_comment())
}

/// Line of the first code token after token `idx`.
fn next_code_line(view: &FileView<'_>, idx: usize) -> Option<u32> {
    view.tokens[idx + 1..]
        .iter()
        .find(|t| !t.is_comment())
        .map(|t| t.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::classify;

    fn allows_of(src: &str) -> (Vec<Allow>, Vec<Diagnostic>) {
        let ctx = classify("crates/core/src/x.rs");
        let view = FileView::new(&ctx, src);
        collect_allows(&view)
    }

    #[test]
    fn trailing_allow_targets_its_own_line() {
        let (a, e) = allows_of(
            "fn f() {\n    x.unwrap(); // itspq-lint: allow(no-panic-in-lib, \"x is set above\")\n}\n",
        );
        assert!(e.is_empty());
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].rule, "no-panic-in-lib");
        assert_eq!(a[0].target_line, 2);
    }

    #[test]
    fn own_line_allow_targets_next_code_line() {
        let (a, e) = allows_of(
            "fn f() {\n    // itspq-lint: allow(no-panic-in-lib, \"seeded above\")\n    x.unwrap();\n}\n",
        );
        assert!(e.is_empty());
        assert_eq!(a[0].comment_line, 2);
        assert_eq!(a[0].target_line, 3);
    }

    #[test]
    fn missing_justification_is_an_error() {
        let (a, e) = allows_of("// itspq-lint: allow(no-panic-in-lib)\nfn f() {}\n");
        assert!(a.is_empty());
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].rule, ALLOW_RULE);
        assert!(e[0].message.contains("missing justification"));
    }

    #[test]
    fn empty_justification_is_an_error() {
        let (a, e) = allows_of("// itspq-lint: allow(float-total-order, \"  \")\nfn f() {}\n");
        assert!(a.is_empty());
        assert_eq!(e.len(), 1);
        assert!(e[0].message.contains("empty justification"));
    }

    #[test]
    fn gibberish_directive_is_an_error() {
        let (a, e) = allows_of("// itspq-lint: disable-everything\nfn f() {}\n");
        assert!(a.is_empty());
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn doc_comments_describe_but_do_not_direct() {
        let (a, e) = allows_of(
            "/// Write `// itspq-lint: allow(<rule>, \"<why>\")` next to the site.\nfn f() {}\n//! itspq-lint: allow(no-panic-in-lib)\n",
        );
        assert!(a.is_empty());
        assert!(e.is_empty());
    }

    #[test]
    fn directive_inside_string_literal_is_ignored() {
        let (a, e) = allows_of("const S: &str = \"// itspq-lint: allow(x)\";\n");
        assert!(a.is_empty());
        assert!(e.is_empty());
    }

    #[test]
    fn block_comment_directive_works() {
        let (a, e) = allows_of(
            "/* itspq-lint: allow(no-panic-in-lib, \"seeded above\") */\nlet v = x.unwrap();\n",
        );
        assert!(e.is_empty());
        assert_eq!(a[0].target_line, 2);
    }
}
