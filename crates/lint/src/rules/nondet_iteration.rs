//! `nondet-iteration`: no result-affecting hash-order iteration on the
//! answer path.
//!
//! `HashMap`/`HashSet` iteration order is unspecified and varies run-to-run
//! (`RandomState`), so any loop over one that feeds an answer, a plan, or a
//! `BatchStats` field silently breaks the byte-identical-batch and
//! worker-count-independence certificates. In the parity-critical modules
//! (see [`crate::source::PARITY_CRITICAL_FILES`]) this rule bans iterating
//! hash containers at all: keyed *lookup* is fine, *enumeration* is not.
//! Use `BTreeMap`/`BTreeSet`, or collect-and-sort before the result matters.
//!
//! ## Approximation
//!
//! A hash container is recognised where the file itself says so: an
//! identifier annotated `: …HashMap…`/`: …HashSet…` (struct field, `let`,
//! or parameter) or bound by `let x = HashMap::new()/with_capacity(..)`.
//! Iteration is a call to an enumerating method (`iter`, `keys`, `values`,
//! `drain`, `retain`, `into_iter`, …) whose receiver chain mentions a
//! tainted identifier, or a `for … in` header mentioning one. Hash
//! containers smuggled in behind type aliases or function returns are not
//! seen — keep the annotation near the use, as the workspace style already
//! does.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::rules::{diag, Rule};
use crate::source::FileView;

/// Methods that enumerate a container in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "into_iter",
    "drain",
    "retain",
];

/// The hash container type names that taint an identifier.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// See the module docs.
pub struct NondetIteration;

impl Rule for NondetIteration {
    fn name(&self) -> &'static str {
        "nondet-iteration"
    }

    fn description(&self) -> &'static str {
        "no HashMap/HashSet iteration in parity-critical modules; use BTreeMap or sort first"
    }

    fn check(&self, view: &FileView<'_>, out: &mut Vec<Diagnostic>) {
        if !view.ctx.parity_critical() {
            return;
        }
        let tainted = tainted_idents(view);
        if tainted.is_empty() {
            return;
        }
        let mut i = 0;
        while i < view.code_len() {
            if view.in_test_region(i) {
                i += 1;
                continue;
            }
            let text = view.ctext(i);
            // `.iter()` etc. on a tainted receiver chain.
            if ITER_METHODS.contains(&text)
                && view.ctext(i.wrapping_sub(1)) == "."
                && i > 0
                && view.ctext(i + 1) == "("
            {
                if let Some(name) = chain_hits(view, i - 1, &tainted) {
                    let Some(tok) = view.ct(i) else { break };
                    out.push(diag(
                        view,
                        self.name(),
                        tok,
                        format!(
                            "`.{text}()` on hash container `{name}` iterates in unspecified \
                             order in a parity-critical module; use a BTreeMap/BTreeSet or \
                             sort before the result can reach an answer"
                        ),
                    ));
                    i += 1;
                    continue;
                }
            }
            // `for pat in <header> {` mentioning a tainted ident without an
            // explicit enumerating method (that case is flagged above).
            if text == "for" {
                if let Some((hit, line_tok)) = for_header_hits(view, i, &tainted) {
                    out.push(diag(
                        view,
                        self.name(),
                        line_tok,
                        format!(
                            "`for` loop over hash container `{hit}` iterates in unspecified \
                             order in a parity-critical module; use a BTreeMap/BTreeSet or \
                             sort before the result can reach an answer"
                        ),
                    ));
                }
            }
            i += 1;
        }
    }
}

/// Identifiers the file declares with a hash-container type.
fn tainted_idents(view: &FileView<'_>) -> Vec<String> {
    let mut tainted: Vec<String> = Vec::new();
    let mut i = 0;
    while i < view.code_len() {
        // `name : … HashMap< … >` — struct field, let annotation, parameter.
        if view.ckind(i) == Some(TokenKind::Ident) && view.ctext(i + 1) == ":" {
            let name = view.ctext(i).to_string();
            let mut j = i + 2;
            let mut depth = 0i64;
            while j < view.code_len() {
                match view.ctext(j) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" if depth > 0 => depth -= 1,
                    ")" | "]" | "}" | ";" | "=" => break,
                    "," if depth == 0 => break,
                    t if HASH_TYPES.contains(&t) => {
                        if !tainted.contains(&name) {
                            tainted.push(name.clone());
                        }
                        break;
                    }
                    _ => {}
                }
                j = j.saturating_add(1);
                if j > i + 40 {
                    break; // type annotations are short; don't scan forever
                }
            }
        }
        // `let [mut] name = HashMap::new()` / `HashSet::with_capacity(..)`.
        if view.ctext(i) == "let" {
            let mut j = i + 1;
            if view.ctext(j) == "mut" {
                j += 1;
            }
            if view.ckind(j) == Some(TokenKind::Ident)
                && view.ctext(j + 1) == "="
                && HASH_TYPES.contains(&view.ctext(j + 2))
            {
                let name = view.ctext(j).to_string();
                if !tainted.contains(&name) {
                    tainted.push(name);
                }
            }
        }
        i += 1;
    }
    tainted
}

/// Walks the dotted receiver chain backwards from `dot_idx` and returns the
/// first tainted identifier it mentions. Call parentheses are hopped over,
/// so `self.cache.read().values()` sees `cache` through the `.read()`.
fn chain_hits(view: &FileView<'_>, dot_idx: usize, tainted: &[String]) -> Option<String> {
    let mut j = dot_idx;
    loop {
        let mut prev = j.checked_sub(1)?;
        if view.ctext(prev) == ")" {
            // Hop the argument list of an intermediate call; the method
            // name sits just before the matching `(`.
            prev = backward_match(view, prev)?.checked_sub(1)?;
        }
        if view.ckind(prev) != Some(TokenKind::Ident) {
            return None;
        }
        let t = view.ctext(prev);
        if tainted.iter().any(|x| x == t) {
            return Some(t.to_string());
        }
        if prev >= 1 && view.ctext(prev - 1) == "." {
            j = prev - 1;
            continue;
        }
        return None;
    }
}

/// Code index of the `(` matching the `)` at `close`, scanning backwards.
fn backward_match(view: &FileView<'_>, close: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut j = close;
    loop {
        match view.ctext(j) {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        j = j.checked_sub(1)?;
    }
}

/// Scans a `for … in <expr> {` header starting at the `for` keyword; returns
/// the tainted identifier and the `for` token when the iterated expression
/// mentions one *without* an explicit `ITER_METHODS` call (those sites are
/// already flagged at the method).
fn for_header_hits<'a>(
    view: &'a FileView<'_>,
    for_idx: usize,
    tainted: &[String],
) -> Option<(String, &'a crate::lexer::Token)> {
    // Find the `in` at depth 0, then the `{` opening the body.
    let mut j = for_idx + 1;
    let mut depth = 0i64;
    while j < view.code_len() && !(depth == 0 && view.ctext(j) == "in") {
        match view.ctext(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" => return None, // not a for-loop header after all
            _ => {}
        }
        j += 1;
    }
    let mut hit: Option<String> = None;
    let mut has_iter_method = false;
    let mut k = j + 1;
    while k < view.code_len() && !(depth == 0 && view.ctext(k) == "{") {
        match view.ctext(k) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            t if ITER_METHODS.contains(&t) && view.ctext(k.wrapping_sub(1)) == "." => {
                has_iter_method = true;
            }
            t if hit.is_none() && tainted.iter().any(|x| x == t) => {
                hit = Some(t.to_string());
            }
            _ => {}
        }
        k += 1;
    }
    match (hit, has_iter_method) {
        (Some(name), false) => view.ct(for_idx).map(|tok| (name, tok)),
        _ => None,
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
        NondetIteration.check(&view, &mut out);
        out
    }

    const PARITY: &str = "crates/core/src/server.rs";

    #[test]
    fn flags_values_iteration_on_declared_hash_field() {
        let src = "\
struct S { group_of: HashMap<Key, usize> }\n\
impl S { fn f(&self) -> usize { self.group_of.values().sum() } }\n";
        let out = run(PARITY, src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("group_of"));
    }

    #[test]
    fn flags_for_loop_over_hash_let_binding() {
        let src = "\
fn f() {\n\
    let seen = HashMap::new();\n\
    for (k, v) in &seen { touch(k, v); }\n\
}\n";
        let out = run(PARITY, src);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn keyed_lookup_is_fine() {
        let src = "\
struct S { group_of: HashMap<Key, usize> }\n\
impl S { fn f(&self, k: &Key) -> Option<usize> { self.group_of.get(k).copied() } }\n";
        assert!(run(PARITY, src).is_empty());
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let src = "\
struct S { group_of: BTreeMap<Key, usize> }\n\
impl S { fn f(&self) -> usize { self.group_of.values().sum() } }\n";
        assert!(run(PARITY, src).is_empty());
    }

    #[test]
    fn non_parity_files_are_out_of_scope() {
        let src = "\
struct S { m: HashMap<u32, u32> }\n\
impl S { fn f(&self) -> u32 { self.m.values().sum() } }\n";
        assert!(run("crates/core/src/heap.rs", src).is_empty());
    }

    #[test]
    fn for_loop_with_explicit_iter_method_is_flagged_once() {
        let src = "\
fn f() {\n\
    let seen = HashMap::new();\n\
    for k in seen.keys() { touch(k); }\n\
}\n";
        let out = run(PARITY, src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains(".keys()"));
    }

    #[test]
    fn guard_method_between_container_and_iteration_is_seen_through() {
        let src = "\
struct S { cache: RwLock<HashMap<usize, Slot>> }\n\
impl S { fn n(&self) -> usize { self.cache.read().values().count() } }\n";
        let out = run(PARITY, src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("cache"));
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "\
#[cfg(test)]\n\
mod tests {\n\
    fn f() { let m = HashMap::new(); for k in m.keys() { touch(k); } }\n\
}\n";
        assert!(run(PARITY, src).is_empty());
    }
}
