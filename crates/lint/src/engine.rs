//! The driver: lint one source string, a set of in-memory files, or the
//! whole workspace.
//!
//! Linting is two-phase:
//!
//! 1. **analyze** ([`analyze_source`]) — per file, pure: lex, parse the
//!    item tree, run every token-layer rule, collect allow directives and
//!    extract the function facts the graph layer needs. The result
//!    ([`FileAnalysis`]) depends only on the file's bytes.
//! 2. **finish** ([`lint_files`] / [`lint_workspace`]) — once: aggregate
//!    all facts into a [`Workspace`], run the graph-layer rules, then
//!    suppress both layers' findings against the allows and flag the stale
//!    ones. Suppression must come *after* the workspace pass — an allow for
//!    a graph rule is only "used" once the graph has been consulted.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::allow::{collect_allows, Allow, ALLOW_RULE};
use crate::diag::{Diagnostic, Severity};
use crate::graph::{extract_facts, FnFact, Workspace};
use crate::parser::parse;
use crate::rules::{all_rules, is_known_rule, workspace_rules};
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

/// Everything phase 1 learns about one file. Pure function of the file's
/// bytes (plus its path classification).
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Classification of the file.
    pub ctx: FileCtx,
    /// Raw token-layer findings, pre-suppression.
    pub raw: Vec<Diagnostic>,
    /// Well-formed allow directives.
    pub allows: Vec<Allow>,
    /// `allow-discipline` errors (malformed or unknown-rule directives).
    pub allow_errors: Vec<Diagnostic>,
    /// Function facts for the graph layer.
    pub fns: Vec<FnFact>,
}

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

/// Phase 1: analyzes one source string under an explicit classification.
#[must_use]
pub fn analyze_source(ctx: &FileCtx, src: &str) -> FileAnalysis {
    let view = FileView::new(ctx, src);
    let tree = parse(&view);
    let mut raw: Vec<Diagnostic> = Vec::new();
    for rule in all_rules() {
        rule.check(&view, &tree, &mut raw);
    }
    let (allows, mut allow_errors) = collect_allows(&view);

    // Unknown rule names are errors, and such allows never match anything.
    for a in &allows {
        if !is_known_rule(&a.rule) {
            allow_errors.push(Diagnostic {
                rule: ALLOW_RULE,
                severity: Severity::Error,
                path: ctx.path.clone(),
                line: a.comment_line,
                col: a.col,
                message: format!("allow names unknown rule `{}` (see --list-rules)", a.rule),
            });
        }
    }

    let fns = extract_facts(&view, &tree, &allows);
    FileAnalysis {
        ctx: ctx.clone(),
        raw,
        allows,
        allow_errors,
        fns,
    }
}

/// Phase 2: aggregates analyses into a workspace, runs the graph rules,
/// suppresses and reports. Also returns, per analysis, which of its allows
/// fired (for the staleness audit).
fn finish(analyses: &[FileAnalysis]) -> (Report, Vec<Vec<bool>>) {
    let all_fns: Vec<FnFact> = analyses.iter().flat_map(|a| a.fns.clone()).collect();
    let ws = Workspace::build(all_fns);
    let mut ws_by_path: BTreeMap<&str, Vec<Diagnostic>> = BTreeMap::new();
    for rule in workspace_rules() {
        let mut out = Vec::new();
        rule.check(&ws, &mut out);
        for d in out {
            ws_by_path
                .entry(match analyses.iter().find(|a| a.ctx.path == d.path) {
                    Some(a) => a.ctx.path.as_str(),
                    None => continue,
                })
                .or_default()
                .push(d);
        }
    }

    let mut report = Report {
        files: analyses.len(),
        ..Report::default()
    };
    let mut used_per_file: Vec<Vec<bool>> = Vec::with_capacity(analyses.len());
    for a in analyses {
        let mut used = vec![false; a.allows.len()];
        let mut diagnostics = a.allow_errors.clone();
        let findings = a.raw.iter().chain(
            ws_by_path
                .get(a.ctx.path.as_str())
                .map(Vec::as_slice)
                .unwrap_or_default(),
        );
        for d in findings {
            let matched = a
                .allows
                .iter()
                .enumerate()
                .find(|(_, al)| al.rule == d.rule && al.target_line == d.line);
            match matched {
                Some((i, _)) => {
                    used[i] = true;
                    report.suppressed += 1;
                }
                None => diagnostics.push(d.clone()),
            }
        }
        // A suppression that suppresses nothing is stale and must go.
        for (al, &u) in a.allows.iter().zip(&used) {
            if !u && is_known_rule(&al.rule) {
                diagnostics.push(Diagnostic {
                    rule: ALLOW_RULE,
                    severity: Severity::Error,
                    path: a.ctx.path.clone(),
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
        report.allows_used += used.iter().filter(|&&u| u).count();
        report.diagnostics.append(&mut diagnostics);
        used_per_file.push(used);
    }
    report
        .diagnostics
        .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    (report, used_per_file)
}

/// Lints one source string through the whole pipeline — both layers, with
/// the workspace consisting of just this file. Fixtures and proptests call
/// this directly.
#[must_use]
pub fn lint_source(ctx: &FileCtx, src: &str) -> FileOutcome {
    let analysis = analyze_source(ctx, src);
    let (report, _) = finish(std::slice::from_ref(&analysis));
    FileOutcome {
        diagnostics: report.diagnostics,
        suppressed: report.suppressed,
        allows_used: report.allows_used,
    }
}

/// Lints a set of in-memory files as one workspace — the multi-file fixture
/// entry point: the cross-file rule (transitive panics) sees all of them at
/// once.
#[must_use]
pub fn lint_files(files: &[(FileCtx, String)]) -> Report {
    let analyses: Vec<FileAnalysis> = files
        .iter()
        .map(|(ctx, src)| analyze_source(ctx, src))
        .collect();
    finish(&analyses).0
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

/// Audits every allow in a set of in-memory files: runs the full two-layer
/// pipeline and marks each directive used or stale.
#[must_use]
pub fn audit_allows(files: &[(FileCtx, String)]) -> Vec<AllowAudit> {
    let analyses: Vec<FileAnalysis> = files
        .iter()
        .map(|(ctx, src)| analyze_source(ctx, src))
        .collect();
    let (_, used) = finish(&analyses);
    let mut out = Vec::new();
    for (a, flags) in analyses.iter().zip(&used) {
        for (al, &u) in a.allows.iter().zip(flags) {
            out.push(AllowAudit {
                path: a.ctx.path.clone(),
                allow: al.clone(),
                used: u,
            });
        }
    }
    out
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
    fn workspace_rule_allow_is_used_not_stale() {
        // An allow on a panic-reachability call line must count as used —
        // which requires suppression to run after the workspace pass. The
        // call crosses from library to binary code inside one crate, since
        // calls do not resolve across crates.
        let lib = "\
pub fn entry() {\n\
    helper(); // itspq-lint: allow(panic-reachability, \"helper's input is validated\")\n\
}\n";
        let bin = "fn helper() { x.unwrap(); }\n";
        let files = vec![
            (classify("crates/core/src/lib.rs"), lib.to_string()),
            (classify("crates/core/src/main.rs"), bin.to_string()),
        ];
        let report = lint_files(&files);
        // The one finding is suppressed; no stale-allow error.
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressed, 1);
        let audits = audit_allows(&files);
        assert_eq!(audits.len(), 1);
        assert!(audits[0].used);
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
