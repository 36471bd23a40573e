//! The driver: lint one source string, a set of in-memory files, or the
//! whole workspace.
//!
//! Linting is one pass per file: lex, classify, run every rule, collect the
//! allow directives, then suppress the findings they cover and flag the
//! stale ones. Every rule sees one file at a time, so a file's outcome
//! depends only on its bytes and its path; [`lint_files`] and
//! [`lint_workspace`] add the outcomes up.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::allow::{collect_allows, Allow, ALLOW_RULE};
use crate::diag::{Diagnostic, Severity};
use crate::rules::{all_rules, is_known_rule};
use crate::source::{classify, FileCtx, FileView};

/// Directory names never descended into. `fixtures` holds the linter's own
/// known-bad corpus; `target` and `results` are build/bench artefacts;
/// `vendor` is third-party and exempt by policy.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    "vendor",
    "fixtures",
    "results",
    "node_modules",
];

/// Outcome of linting one file.
#[derive(Debug, Clone, Default)]
pub struct FileOutcome {
    /// Unsuppressed findings, including `allow-discipline` errors.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings silenced by a justified allow.
    pub suppressed: usize,
    /// Justified allows that silenced at least one finding.
    pub allows_used: usize,
}

/// Aggregate over a workspace run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every unsuppressed finding, sorted by file and position.
    pub diagnostics: Vec<Diagnostic>,
    /// Files scanned (vendor/fixtures excluded).
    pub files: usize,
    /// Findings silenced by justified allows, workspace-wide.
    pub suppressed: usize,
    /// Justified allows that fired.
    pub allows_used: usize,
}

impl Report {
    /// Whether the run found nothing (the `--deny` success condition).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }
}

/// Lints one file under an explicit classification. Returns its outcome
/// and each well-formed allow directive paired with whether it fired (for
/// the staleness audit).
fn lint_file(ctx: &FileCtx, src: &str) -> (FileOutcome, Vec<(Allow, bool)>) {
    let view = FileView::new(ctx, src);
    let mut raw: Vec<Diagnostic> = Vec::new();
    for rule in all_rules() {
        rule.check(&view, &mut raw);
    }
    let (allows, mut diagnostics) = collect_allows(&view);

    // Unknown rule names are errors, and such allows never match anything.
    for a in &allows {
        if !is_known_rule(&a.rule) {
            diagnostics.push(Diagnostic {
                rule: ALLOW_RULE,
                severity: Severity::Error,
                path: ctx.path.clone(),
                line: a.comment_line,
                col: a.col,
                message: format!("allow names unknown rule `{}` (see --list-rules)", a.rule),
            });
        }
    }

    let mut used = vec![false; allows.len()];
    let mut suppressed = 0;
    for d in raw {
        match allows
            .iter()
            .position(|al| al.rule == d.rule && al.target_line == d.line)
        {
            Some(i) => {
                used[i] = true;
                suppressed += 1;
            }
            None => diagnostics.push(d),
        }
    }
    // A suppression that suppresses nothing is stale and must go.
    for (al, &u) in allows.iter().zip(&used) {
        if !u && is_known_rule(&al.rule) {
            diagnostics.push(Diagnostic {
                rule: ALLOW_RULE,
                severity: Severity::Error,
                path: ctx.path.clone(),
                line: al.comment_line,
                col: al.col,
                message: format!(
                    "unused allow for `{}`: nothing on line {} triggers it — remove the stale \
                     suppression",
                    al.rule, al.target_line
                ),
            });
        }
    }
    diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    let outcome = FileOutcome {
        diagnostics,
        suppressed,
        allows_used: used.iter().filter(|&&u| u).count(),
    };
    (outcome, allows.into_iter().zip(used).collect())
}

/// Lints one source string through the whole pipeline. Fixtures and
/// proptests call this directly.
#[must_use]
pub fn lint_source(ctx: &FileCtx, src: &str) -> FileOutcome {
    lint_file(ctx, src).0
}

/// Lints a set of in-memory files and adds up their outcomes.
#[must_use]
pub fn lint_files(files: &[(FileCtx, String)]) -> Report {
    let mut report = Report {
        files: files.len(),
        ..Report::default()
    };
    for (ctx, src) in files {
        let (mut outcome, _) = lint_file(ctx, src);
        report.suppressed += outcome.suppressed;
        report.allows_used += outcome.allows_used;
        report.diagnostics.append(&mut outcome.diagnostics);
    }
    report
        .diagnostics
        .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    report
}

/// Walks `root` and lints every `.rs` file outside the skipped directories
/// (`target`, `vendor`, `fixtures`, …).
///
/// # Errors
/// Propagates I/O errors from the directory walk; unreadable individual
/// files are skipped (the build would have failed on them first).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    Ok(lint_files(&read_workspace(root)?))
}

/// One allow directive with its workspace location and whether it fired on
/// the current sources — the staleness audit behind `--list-allows`.
#[derive(Debug, Clone)]
pub struct AllowAudit {
    /// Workspace-relative path of the file carrying the directive.
    pub path: String,
    /// The directive.
    pub allow: Allow,
    /// Whether it suppressed at least one finding this run. A `false` here
    /// is reported as stale even without `--deny`.
    pub used: bool,
}

/// Audits every allow in a set of in-memory files: lints each file and
/// marks each directive used or stale.
#[must_use]
pub fn audit_allows(files: &[(FileCtx, String)]) -> Vec<AllowAudit> {
    files
        .iter()
        .flat_map(|(ctx, src)| {
            lint_file(ctx, src)
                .1
                .into_iter()
                .map(|(allow, used)| AllowAudit {
                    path: ctx.path.clone(),
                    allow,
                    used,
                })
        })
        .collect()
}

/// [`audit_allows`] over the workspace on disk.
///
/// # Errors
/// Propagates I/O errors from the directory walk.
pub fn audit_workspace_allows(root: &Path) -> io::Result<Vec<AllowAudit>> {
    Ok(audit_allows(&read_workspace(root)?))
}

/// Walks `root` and returns every well-formed allow directive as
/// `(workspace-relative path, allow)` pairs, in file order.
///
/// # Errors
/// Propagates I/O errors from the directory walk.
pub fn collect_workspace_allows(root: &Path) -> io::Result<Vec<(String, Allow)>> {
    Ok(audit_workspace_allows(root)?
        .into_iter()
        .map(|a| (a.path, a.allow))
        .collect())
}

/// Every `.rs` file under `root` outside the skipped directories, in path
/// order, classified by its workspace-relative path. Unreadable files are
/// skipped (the build would have failed on them first).
fn read_workspace(root: &Path) -> io::Result<Vec<(FileCtx, String)>> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((classify(&rel), src));
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::classify;

    #[test]
    fn justified_allow_suppresses_and_counts() {
        let ctx = classify("crates/core/src/a.rs");
        let src = "fn f() {\n    x.unwrap() // itspq-lint: allow(no-panic-in-lib, \"x seeded above\")\n}\n";
        let out = lint_source(&ctx, src);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert_eq!(out.suppressed, 1);
        assert_eq!(out.allows_used, 1);
    }

    #[test]
    fn allow_for_the_wrong_rule_does_not_suppress() {
        let ctx = classify("crates/core/src/a.rs");
        let src =
            "fn f() {\n    x.unwrap() // itspq-lint: allow(float-total-order, \"wrong rule\")\n}\n";
        let out = lint_source(&ctx, src);
        // The unwrap still fires AND the allow is reported unused.
        assert_eq!(out.diagnostics.len(), 2);
        assert!(out.diagnostics.iter().any(|d| d.rule == "no-panic-in-lib"));
        assert!(out.diagnostics.iter().any(|d| d.rule == ALLOW_RULE));
    }

    #[test]
    fn unknown_rule_in_allow_is_an_error() {
        let ctx = classify("crates/core/src/a.rs");
        let src = "// itspq-lint: allow(no-such-rule, \"hm\")\nfn f() {}\n";
        let out = lint_source(&ctx, src);
        assert_eq!(out.diagnostics.len(), 1);
        assert!(out.diagnostics[0].message.contains("unknown rule"));
    }

    #[test]
    fn unused_allow_is_an_error() {
        let ctx = classify("crates/core/src/a.rs");
        let src = "// itspq-lint: allow(no-panic-in-lib, \"stale\")\nfn f() { clean(); }\n";
        let out = lint_source(&ctx, src);
        assert_eq!(out.diagnostics.len(), 1);
        assert!(out.diagnostics[0].message.contains("unused allow"));
    }

    #[test]
    fn diagnostics_are_sorted_by_position() {
        let ctx = classify("crates/core/src/a.rs");
        let src = "fn f() { b.unwrap(); }\nfn g() { a.unwrap(); panic!(); }\n";
        let out = lint_source(&ctx, src);
        let lines: Vec<u32> = out.diagnostics.iter().map(|d| d.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn audit_reports_stale_allows_without_deny() {
        let files = vec![(
            classify("crates/core/src/a.rs"),
            "// itspq-lint: allow(no-panic-in-lib, \"was needed once\")\nfn f() { clean(); }\n"
                .to_string(),
        )];
        let audits = audit_allows(&files);
        assert_eq!(audits.len(), 1);
        assert!(!audits[0].used);
    }
}
