//! The workspace symbol table and approximate call graph.
//!
//! [`extract_facts`] distils each library/binary file into [`FnFact`]s — per
//! function: the calls it makes and its unallowed panic sites.
//! [`Workspace`] aggregates the facts of every file, resolves calls against
//! the symbol table and answers the interprocedural question the
//! `panic-reachability` rule asks: *which functions can transitively panic*.
//!
//! ## Resolution model (approximate, conservative by construction)
//!
//! Calls resolve **within the defining crate** only, by name:
//!
//! * `foo(..)` → every free `fn foo` in the crate (snake_case only —
//!   uppercase initials are tuple-struct/variant constructors, not calls);
//! * `Type::foo(..)` → `fn foo` in any `impl Type`/`trait Type` block;
//! * `path::foo(..)` with a lowercase qualifier → free `fn foo` (module
//!   qualifier, approximated away);
//! * `self.foo(..)` → `fn foo` in any impl of the enclosing type;
//! * `expr.foo(..)` on anything else does **not** resolve — the receiver's
//!   type is unknown to a parser.
//!
//! Ambiguity resolves to *all* candidates, so reachability over-approximates
//! (a finding can be silenced with a justified allow, a missed panic path
//! cannot be un-shipped). Test files, examples, benches, vendored stubs and
//! `#[cfg(test)]` items contribute no facts at all.

use std::collections::BTreeMap;

use crate::allow::Allow;
use crate::lexer::TokenKind;
use crate::parser::ItemTree;
use crate::source::{FileKind, FileView};

/// The diverging macros counted as panic sites.
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The panicking methods counted as panic sites.
pub const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalleeKind {
    /// `foo(..)` or `module::foo(..)`.
    Free,
    /// `Type::foo(..)`.
    Method,
    /// `self.foo(..)` — resolved against the enclosing impl type.
    SelfMethod,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallFact {
    /// How the callee is named.
    pub kind: CalleeKind,
    /// The type qualifier for [`CalleeKind::Method`] (`""` otherwise).
    pub ty: String,
    /// The callee's simple name.
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
    /// 1-based column of the call.
    pub col: u32,
    /// Whether the line carries an `allow(panic-reachability, ..)` — such a
    /// call is reported (so the allow is exercised) but does not propagate
    /// panickiness to its caller.
    pub allowed_panic: bool,
}

/// One unallowed panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicFact {
    /// What panics (`unwrap`, `expect`, `panic!`, …).
    pub what: String,
    /// 1-based line of the site.
    pub line: u32,
    /// 1-based column of the site.
    pub col: u32,
}

/// Everything the graph rules need to know about one function.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// The defining crate.
    pub crate_name: String,
    /// File-local qualified name (`module::Type::method`).
    pub qual: String,
    /// Simple name.
    pub simple: String,
    /// Enclosing impl/trait type, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Whether the function is `#[cfg(test)]`-gated.
    pub is_test: bool,
    /// Whether `no-panic-in-lib` applies to this function (library code of a
    /// disciplined crate, outside test regions) — such functions are held to
    /// panic-reachability and are never panic *sources* themselves (their
    /// direct sites are already reported or allowed).
    pub discipline: bool,
    /// Call sites, in source order.
    pub calls: Vec<CallFact>,
    /// Unallowed panic sites, in source order.
    pub panics: Vec<PanicFact>,
}

/// Extracts [`FnFact`]s from one parsed file. Only library and binary files
/// outside `crates/vendor` contribute; `#[cfg(test)]` functions are carried
/// (marked) but never act as panic sources or reachability roots.
#[must_use]
pub fn extract_facts(view: &FileView<'_>, tree: &ItemTree, allows: &[Allow]) -> Vec<FnFact> {
    if !matches!(view.ctx.kind, FileKind::Lib | FileKind::Bin) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for item in tree.fns() {
        let Some((body_open, body_end)) = item.body else {
            continue;
        };
        let mut fact = FnFact {
            path: view.ctx.path.clone(),
            crate_name: view.ctx.crate_name.clone(),
            qual: item.qual_name(),
            simple: item.name.clone(),
            owner: item.owner.clone(),
            line: item.line,
            col: item.col,
            is_test: item.cfg_test,
            discipline: view.ctx.lib_discipline() && !item.cfg_test,
            calls: Vec::new(),
            panics: Vec::new(),
        };
        scan_body(view, body_open, body_end, allows, &mut fact);
        out.push(fact);
    }
    out
}

/// Walks one function body token by token, recording call and panic facts.
fn scan_body(
    view: &FileView<'_>,
    body_open: usize,
    body_end: usize,
    allows: &[Allow],
    fact: &mut FnFact,
) {
    let end = body_end.saturating_sub(1).min(view.code_len());
    for i in body_open + 1..end {
        scan_token(view, i, allows, fact);
    }
}

/// Handles one token: a call or a panic site, if it is one.
fn scan_token(view: &FileView<'_>, i: usize, allows: &[Allow], fact: &mut FnFact) {
    let text = view.ctext(i);
    if view.ckind(i) != Some(TokenKind::Ident)
        || view.ctext(i + 1) != "(" && view.ctext(i + 1) != "!"
    {
        return;
    }
    let Some(tok) = view.ct(i) else { return };

    // Panic macros: `panic!(…)`, `unreachable!(…)`, …
    if view.ctext(i + 1) == "!" {
        if PANIC_MACROS.contains(&text) && !panic_allowed(allows, tok.line) {
            fact.panics.push(PanicFact {
                what: format!("{text}!"),
                line: tok.line,
                col: tok.col,
            });
        }
        return;
    }

    let after_dot = view.ctext(i.wrapping_sub(1)) == "." && i > 0;

    // Panic methods: `.unwrap()`, `.expect(…)`.
    if after_dot && PANIC_METHODS.contains(&text) {
        if !panic_allowed(allows, tok.line) {
            fact.panics.push(PanicFact {
                what: text.to_string(),
                line: tok.line,
                col: tok.col,
            });
        }
        return;
    }

    // Call sites.
    let allowed_panic = allows
        .iter()
        .any(|a| a.rule == "panic-reachability" && a.target_line == tok.line);
    let call = |kind, ty: &str| CallFact {
        kind,
        ty: ty.to_string(),
        name: text.to_string(),
        line: tok.line,
        col: tok.col,
        allowed_panic,
    };
    let found = if after_dot {
        // Method call: resolve only `self.foo(..)`.
        (view.ctext(i.wrapping_sub(2)) == "self" && i >= 2)
            .then(|| call(CalleeKind::SelfMethod, ""))
    } else if view.ctext(i.wrapping_sub(1)) == "::" && i > 0 {
        // Path call: `Type::foo(..)` or `module::foo(..)`.
        let quald = view.ctext(i.wrapping_sub(2));
        if i >= 2 && view.ckind(i - 2) == Some(TokenKind::Ident) && !starts_upper(text) {
            Some(if starts_upper(quald) {
                call(CalleeKind::Method, quald)
            } else {
                call(CalleeKind::Free, "")
            })
        } else {
            None
        }
    } else if !starts_upper(text) && !is_expr_keyword(text) {
        Some(call(CalleeKind::Free, ""))
    } else {
        None
    };
    if let Some(c) = found {
        fact.calls.push(c);
    }
}

fn panic_allowed(allows: &[Allow], line: u32) -> bool {
    allows
        .iter()
        .any(|a| a.rule == "no-panic-in-lib" && a.target_line == line)
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(char::is_uppercase)
}

fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "in"
            | "as"
            | "move"
            | "else"
            | "let"
            | "fn"
            | "pub"
            | "mut"
            | "ref"
            | "break"
            | "continue"
            | "await"
            | "dyn"
            | "where"
            | "impl"
            | "use"
            | "self"
            | "super"
            | "crate"
            | "assert"
            | "assert_eq"
            | "assert_ne"
            | "debug_assert"
            | "debug_assert_eq"
            | "debug_assert_ne"
            | "drop"
    )
}

/// The aggregated workspace: every function fact plus the symbol table the
/// resolver uses.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All function facts, in deterministic (file, source) order.
    pub fns: Vec<FnFact>,
    free: BTreeMap<(String, String), Vec<usize>>,
    methods: BTreeMap<(String, String, String), Vec<usize>>,
}

impl Workspace {
    /// Builds the symbol table over `fns` (which must already be in
    /// deterministic order — the engine sorts files by path).
    #[must_use]
    pub fn build(fns: Vec<FnFact>) -> Self {
        let mut ws = Workspace {
            fns,
            free: BTreeMap::new(),
            methods: BTreeMap::new(),
        };
        for (i, f) in ws.fns.iter().enumerate() {
            match &f.owner {
                Some(ty) => ws
                    .methods
                    .entry((f.crate_name.clone(), ty.clone(), f.simple.clone()))
                    .or_default()
                    .push(i),
                None => ws
                    .free
                    .entry((f.crate_name.clone(), f.simple.clone()))
                    .or_default()
                    .push(i),
            }
        }
        ws
    }

    /// Resolves a call made from `caller` to the indices of every candidate
    /// callee (same crate, by name; empty when unresolvable — std, vendor,
    /// field-typed method receivers).
    #[must_use]
    pub fn resolve(&self, caller: usize, call: &CallFact) -> &[usize] {
        let krate = &self.fns[caller].crate_name;
        static EMPTY: [usize; 0] = [];
        let found = match call.kind {
            CalleeKind::Free => self.free.get(&(krate.clone(), call.name.clone())),
            CalleeKind::Method => {
                self.methods
                    .get(&(krate.clone(), call.ty.clone(), call.name.clone()))
            }
            CalleeKind::SelfMethod => match &self.fns[caller].owner {
                Some(ty) => self
                    .methods
                    .get(&(krate.clone(), ty.clone(), call.name.clone())),
                None => None,
            },
        };
        found.map_or(&EMPTY[..], Vec::as_slice)
    }

    /// For every function: can it (transitively, through resolved calls
    /// whose edges are not `panic-reachability`-allowed) reach an unallowed
    /// panic site *outside* `no-panic-in-lib` scope? Functions inside that
    /// scope are never sources — their direct sites are already reported or
    /// locally proven — so this is exactly the interprocedural lift.
    #[must_use]
    pub fn can_panic(&self) -> Vec<bool> {
        let mut can: Vec<bool> = self
            .fns
            .iter()
            .map(|f| !f.discipline && !f.is_test && !f.panics.is_empty())
            .collect();
        // Fixpoint: tiny graphs, a few rounds in practice.
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                if can[i] {
                    continue;
                }
                let reaches = self.fns[i]
                    .calls
                    .iter()
                    .filter(|c| !c.allowed_panic)
                    .any(|c| self.resolve(i, c).iter().any(|&j| can[j]));
                if reaches {
                    can[i] = true;
                    changed = true;
                }
            }
            if !changed {
                return can;
            }
        }
    }

    /// A witness chain from `start` to a panic site: function indices ending
    /// at one with a direct panic, following non-allowed resolved calls.
    /// `None` when `start` cannot panic (or only via allowed edges).
    #[must_use]
    pub fn panic_witness(&self, start: usize, can: &[bool]) -> Option<Vec<usize>> {
        let mut prev: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut seen = vec![false; self.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[start] = true;
        queue.push_back(start);
        while let Some(i) = queue.pop_front() {
            if !self.fns[i].discipline && !self.fns[i].is_test && !self.fns[i].panics.is_empty() {
                let mut path = vec![i];
                let mut cur = i;
                while let Some(p) = prev[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for c in &self.fns[i].calls {
                if c.allowed_panic {
                    continue;
                }
                for &j in self.resolve(i, c) {
                    if !seen[j] && can[j] {
                        seen[j] = true;
                        prev[j] = Some(i);
                        queue.push_back(j);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::source::classify;

    fn facts_of(path: &str, src: &str) -> Vec<FnFact> {
        let ctx = classify(path);
        let view = FileView::new(&ctx, src);
        let tree = parse(&view);
        let (allows, _) = crate::allow::collect_allows(&view);
        extract_facts(&view, &tree, &allows)
    }

    #[test]
    fn records_calls_and_panics() {
        let src = "\
struct S;\n\
impl S {\n\
    fn f(&self) {\n\
        let n = self.cache.len();\n\
        self.probe();\n\
        helper(n);\n\
    }\n\
    fn probe(&self) {}\n\
}\n\
fn helper(n: usize) { n.to_string().parse().unwrap(); }\n";
        let facts = facts_of("crates/core/src/a.rs", src);
        assert_eq!(facts.len(), 3);
        let f = &facts[0];
        assert_eq!(f.qual, "S::f");
        // The self-method and the free call are recorded; `self.cache.len()`
        // has an unresolvable receiver and is not.
        let calls: Vec<(&str, CalleeKind)> =
            f.calls.iter().map(|c| (c.name.as_str(), c.kind)).collect();
        assert_eq!(
            calls,
            vec![
                ("probe", CalleeKind::SelfMethod),
                ("helper", CalleeKind::Free)
            ]
        );
        assert!(f.panics.is_empty());
        // helper's unwrap is a panic fact.
        assert_eq!(facts[2].panics.len(), 1);
        assert_eq!(facts[2].panics[0].what, "unwrap");
    }

    #[test]
    fn can_panic_propagates_three_deep_but_not_into_discipline_scope() {
        // bench-crate helpers (no panic discipline) panic three deep.
        let helpers = "\
pub fn level1() { level2(); }\n\
fn level2() { level3(); }\n\
fn level3() { boom.unwrap(); }\n\
fn clean() {}\n";
        let fns = facts_of("crates/bench/src/helpers.rs", helpers);
        let ws = Workspace::build(fns);
        let can = ws.can_panic();
        let by_name = |n: &str| {
            ws.fns
                .iter()
                .position(|f| f.simple == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        assert!(can[by_name("level1")]);
        assert!(can[by_name("level2")]);
        assert!(can[by_name("level3")]);
        assert!(!can[by_name("clean")]);
        let witness = ws.panic_witness(by_name("level1"), &can).unwrap();
        assert_eq!(witness.len(), 3);
    }

    #[test]
    fn discipline_fns_are_not_sources_and_allowed_sites_are_excluded() {
        // In discipline scope an unwrap is a *direct* finding, not a source;
        // an allowed unwrap is proven and excluded everywhere.
        let src = "\
fn direct() { x.unwrap(); }\n\
fn proven() { y.unwrap() } // itspq-lint: allow(no-panic-in-lib, \"y seeded\")\n";
        let ws = Workspace::build(facts_of("crates/core/src/a.rs", src));
        let can = ws.can_panic();
        assert!(can.iter().all(|&c| !c), "{:?}", ws.fns);
        assert!(
            ws.fns[1].panics.is_empty(),
            "allowed site leaked into facts"
        );
    }

    #[test]
    fn test_files_and_cfg_test_fns_contribute_nothing() {
        let src = "fn t() { x.unwrap(); }\n";
        assert!(facts_of("crates/core/tests/t.rs", src).is_empty());
        let gated = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n";
        let facts = facts_of("crates/core/src/a.rs", gated);
        assert!(facts.iter().all(|f| f.is_test));
        let ws = Workspace::build(facts);
        assert!(ws.can_panic().iter().all(|&c| !c));
    }

    #[test]
    fn self_method_resolution_uses_the_enclosing_impl_type() {
        let src = "\
struct A;\n\
struct B;\n\
impl A { fn go(&self) { self.helper(); } fn helper(&self) { x.unwrap(); } }\n\
impl B { fn helper(&self) {} }\n";
        let ws = Workspace::build(facts_of("crates/bench/src/a.rs", src));
        let go = ws.fns.iter().position(|f| f.qual == "A::go").unwrap();
        let call = &ws.fns[go].calls[0];
        let resolved = ws.resolve(go, call);
        assert_eq!(resolved.len(), 1);
        assert_eq!(ws.fns[resolved[0]].qual, "A::helper");
    }
}
