//! A brace-matched item-tree parser over the token stream.
//!
//! The token rules are single-file and flat; the graph rule
//! (`panic-reachability`) needs to know *which function* a token belongs
//! to, and the symbol table needs names with their nesting
//! (`module::Type::method`). This parser recovers exactly that much
//! structure — modules, functions, `impl`/`trait` blocks, `use` paths, each
//! with spans — and nothing more: no expressions, no types, no macro
//! expansion. It is infallible like the lexer: unparseable stretches are
//! skipped token-by-token (balanced-bracket groups as a unit), so a file
//! that confuses it degrades to *fewer* items, never to a crash.
//!
//! ## Approximations (documented, load-bearing)
//!
//! * Functions nested inside function bodies are not items — the fact
//!   extractor attributes their tokens to the enclosing function, which is
//!   conservative for panic reachability.
//! * `impl` type names are the last path segment before generics
//!   (`impl<'a> Iterator for Iter<'a>` → `Iter`), which is how the call
//!   resolver keys methods.
//! * `#[cfg(test)]` gating is inherited from [`FileView::in_test_region`],
//!   so an item inside a test-gated module is test-gated too.

use crate::lexer::TokenKind;
use crate::source::FileView;

/// What kind of item a tree node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` or `mod name;`.
    Module,
    /// `fn name(…) { … }` (or a bodyless trait method).
    Fn,
    /// `impl [Trait for] Type { … }`.
    Impl,
    /// `trait Name { … }`.
    Trait,
    /// `struct` / `enum` / `union` definitions.
    Struct,
    /// `use path::to::thing;` (leaves recorded in [`ItemTree::imports`]).
    Use,
    /// `const NAME: … = …;` or `static NAME: … = …;`.
    Const,
    /// `type Alias = …;`.
    TypeAlias,
    /// `macro_rules! name { … }` or `macro name { … }`.
    MacroDef,
    /// `extern "C" { … }` foreign block.
    ExternBlock,
}

/// One node of the item tree.
#[derive(Debug, Clone)]
pub struct Item {
    /// The node's kind.
    pub kind: ItemKind,
    /// Simple name (`""` for anonymous items such as `impl` blocks keep the
    /// *type* name instead).
    pub name: String,
    /// For functions inside an `impl`/`trait` block: the owning type name.
    pub owner: Option<String>,
    /// Inline-module path from the file root down to this item.
    pub module_path: Vec<String>,
    /// 1-based line of the introducing keyword.
    pub line: u32,
    /// 1-based column of the introducing keyword.
    pub col: u32,
    /// Code-token index of the introducing keyword.
    pub sig_start: usize,
    /// Code-token index range of the `{ … }` body: `(open, one_past_close)`.
    pub body: Option<(usize, usize)>,
    /// Byte span of the whole item (first attribute to closing token).
    pub span: (usize, usize),
    /// Whether the item sits in a `#[cfg(test)]` region (directly gated or
    /// inside a gated module).
    pub cfg_test: bool,
    /// Child items (modules, `impl`/`trait` members).
    pub children: Vec<Item>,
}

impl Item {
    /// `module::sub::Type::name` — the symbol-table key of this item within
    /// its file.
    #[must_use]
    pub fn qual_name(&self) -> String {
        let mut parts: Vec<&str> = self.module_path.iter().map(String::as_str).collect();
        if let Some(o) = &self.owner {
            parts.push(o);
        }
        parts.push(&self.name);
        parts.join("::")
    }
}

/// One leaf of a `use` declaration, groups flattened:
/// `use std::collections::{HashMap, HashSet};` yields two imports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    /// The name the import binds locally (the alias after `as`, the last
    /// segment otherwise; `"*"` for globs).
    pub leaf: String,
    /// The full path as written, `::`-joined.
    pub path: String,
    /// 1-based line of the `use` keyword.
    pub line: u32,
}

/// The parsed file: top-level items plus the flattened import list.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Every `use` leaf in the file.
    pub imports: Vec<Import>,
}

impl ItemTree {
    /// All function items, depth-first, bodies included wherever they nest.
    #[must_use]
    pub fn fns(&self) -> Vec<&Item> {
        fn rec<'a>(items: &'a [Item], out: &mut Vec<&'a Item>) {
            for it in items {
                if it.kind == ItemKind::Fn {
                    out.push(it);
                }
                rec(&it.children, out);
            }
        }
        let mut out = Vec::new();
        rec(&self.items, &mut out);
        out
    }

    /// Whether `name` is imported (directly or via a group) from a path
    /// whose rendering contains `needle` — e.g.
    /// `imports_from("HashMap", "std::collections")`.
    #[must_use]
    pub fn imports_from(&self, name: &str, needle: &str) -> bool {
        self.imports
            .iter()
            .any(|im| im.leaf == name && im.path.contains(needle))
    }
}

/// Parses the file's item tree. Infallible; see the module docs for the
/// recovery strategy.
#[must_use]
pub fn parse(view: &FileView<'_>) -> ItemTree {
    let mut parser = Parser {
        view,
        imports: Vec::new(),
    };
    let mut module_path = Vec::new();
    let items = parser.items_in(0, view.code_len(), &mut module_path, None);
    ItemTree {
        items,
        imports: parser.imports,
    }
}

/// Keywords that may prefix an item before its introducing keyword.
const QUALIFIERS: &[&str] = &["default", "unsafe", "async"];

struct Parser<'a, 'b> {
    view: &'b FileView<'a>,
    imports: Vec<Import>,
}

impl Parser<'_, '_> {
    fn text(&self, i: usize) -> &str {
        self.view.ctext(i)
    }

    /// Parses the items in code-token range `[from, to)`.
    fn items_in(
        &mut self,
        from: usize,
        to: usize,
        module_path: &mut Vec<String>,
        owner: Option<&str>,
    ) -> Vec<Item> {
        let mut out = Vec::new();
        let mut i = from;
        while i < to {
            i = self.item_at(i, to, module_path, owner, &mut out);
        }
        out
    }

    /// Parses (or skips past) one item starting at code index `i`; returns
    /// the index just past it.
    #[allow(clippy::too_many_lines)]
    fn item_at(
        &mut self,
        start: usize,
        to: usize,
        module_path: &mut Vec<String>,
        owner: Option<&str>,
        out: &mut Vec<Item>,
    ) -> usize {
        let view = self.view;
        let mut i = start;

        // Attributes (outer `#[…]` and inner `#![…]`).
        loop {
            if self.text(i) == "#" && self.text(i + 1) == "[" {
                i = view.skip_balanced(i + 1);
            } else if self.text(i) == "#" && self.text(i + 1) == "!" && self.text(i + 2) == "[" {
                i = view.skip_balanced(i + 2);
            } else {
                break;
            }
            if i >= to {
                return to;
            }
        }

        // Visibility and qualifiers.
        loop {
            let t = self.text(i);
            if t == "pub" {
                i += 1;
                if self.text(i) == "(" {
                    i = view.skip_balanced(i);
                }
            } else if QUALIFIERS.contains(&t) {
                i += 1;
            } else if t == "const" && self.text(i + 1) == "fn" {
                i += 1; // `const fn` — the `fn` is the item keyword
            } else if t == "extern" {
                // `extern "C" fn` prefix, or an `extern "C" { … }` block.
                let after_abi = if view.ckind(i + 1) == Some(TokenKind::Str) {
                    i + 2
                } else {
                    i + 1
                };
                if self.text(after_abi) == "{" {
                    let end = view.skip_balanced(after_abi);
                    out.push(self.leaf(
                        ItemKind::ExternBlock,
                        String::new(),
                        start,
                        i,
                        end,
                        owner,
                        module_path,
                    ));
                    return end;
                }
                i = after_abi;
            } else {
                break;
            }
            if i >= to {
                return to;
            }
        }

        let kw_at = i;
        match self.text(i) {
            "mod" => {
                let name = self.ident_at(i + 1);
                if self.text(i + 2) == "{" {
                    let end = view.skip_balanced(i + 2);
                    module_path.push(name.clone());
                    let children = self.items_in(i + 3, end.saturating_sub(1), module_path, None);
                    module_path.pop();
                    let mut item =
                        self.leaf(ItemKind::Module, name, start, kw_at, end, None, module_path);
                    item.body = Some((i + 2, end));
                    item.children = children;
                    out.push(item);
                    end
                } else {
                    // `mod name;` — out-of-line, the walker lints its file.
                    let end = self.to_semicolon(i + 1, to);
                    out.push(self.leaf(
                        ItemKind::Module,
                        name,
                        start,
                        kw_at,
                        end,
                        None,
                        module_path,
                    ));
                    end
                }
            }
            "fn" => {
                let name = self.ident_at(i + 1);
                let (body, end) = self.body_or_semicolon(i + 2, to);
                let mut item = self.leaf(ItemKind::Fn, name, start, kw_at, end, owner, module_path);
                item.body = body;
                out.push(item);
                end
            }
            "impl" | "trait" => {
                let is_impl = self.text(i) == "impl";
                let (type_name, header_end) = if is_impl {
                    self.impl_type_name(i + 1, to)
                } else {
                    (self.ident_at(i + 1), self.find_body_open(i + 1, to))
                };
                if self.text(header_end) != "{" {
                    // `trait X = …;` alias or malformed: skip to `;`.
                    let end = self.to_semicolon(i + 1, to);
                    out.push(self.leaf(
                        if is_impl {
                            ItemKind::Impl
                        } else {
                            ItemKind::Trait
                        },
                        type_name,
                        start,
                        kw_at,
                        end,
                        None,
                        module_path,
                    ));
                    return end;
                }
                let end = view.skip_balanced(header_end);
                let children = self.items_in(
                    header_end + 1,
                    end.saturating_sub(1),
                    module_path,
                    Some(&type_name),
                );
                let mut item = self.leaf(
                    if is_impl {
                        ItemKind::Impl
                    } else {
                        ItemKind::Trait
                    },
                    type_name,
                    start,
                    kw_at,
                    end,
                    None,
                    module_path,
                );
                item.body = Some((header_end, end));
                item.children = children;
                out.push(item);
                end
            }
            "struct" | "enum" | "union" => {
                let name = self.ident_at(i + 1);
                let (body, end) = self.body_or_semicolon(i + 2, to);
                let mut item =
                    self.leaf(ItemKind::Struct, name, start, kw_at, end, None, module_path);
                item.body = body;
                out.push(item);
                end
            }
            "use" => {
                let end = self.to_semicolon(i + 1, to);
                self.flatten_use(i + 1, end.saturating_sub(1));
                out.push(self.leaf(
                    ItemKind::Use,
                    String::new(),
                    start,
                    kw_at,
                    end,
                    None,
                    module_path,
                ));
                end
            }
            "const" | "static" => {
                let name_at = if self.text(i + 1) == "mut" {
                    i + 2
                } else {
                    i + 1
                };
                let name = self.ident_at(name_at);
                let end = self.to_semicolon(i + 1, to);
                out.push(self.leaf(ItemKind::Const, name, start, kw_at, end, None, module_path));
                end
            }
            "type" => {
                let name = self.ident_at(i + 1);
                let end = self.to_semicolon(i + 1, to);
                out.push(self.leaf(
                    ItemKind::TypeAlias,
                    name,
                    start,
                    kw_at,
                    end,
                    None,
                    module_path,
                ));
                end
            }
            "macro_rules" | "macro" => {
                let name_at = if self.text(i + 1) == "!" {
                    i + 2
                } else {
                    i + 1
                };
                let name = self.ident_at(name_at);
                let open = self.find_body_open(name_at, to);
                let end = if self.text(open) == "{" {
                    view.skip_balanced(open)
                } else {
                    self.to_semicolon(i + 1, to)
                };
                out.push(self.leaf(
                    ItemKind::MacroDef,
                    name,
                    start,
                    kw_at,
                    end,
                    None,
                    module_path,
                ));
                end
            }
            ";" => i + 1,
            "{" => view.skip_balanced(i), // stray block: skip as a unit
            _ => i + 1,                   // unknown token: shed one and resync
        }
    }

    /// Builds a body-less item node spanning code tokens `[start, end)`.
    #[allow(clippy::too_many_arguments)]
    fn leaf(
        &self,
        kind: ItemKind,
        name: String,
        start: usize,
        kw_at: usize,
        end: usize,
        owner: Option<&str>,
        module_path: &[String],
    ) -> Item {
        let view = self.view;
        let (line, col) = view.ct(kw_at).map_or((0, 0), |t| (t.line, t.col));
        let span_start = view.ct(start).map_or(0, |t| t.start);
        let span_end = view
            .ct(end.saturating_sub(1))
            .map_or(view.src.len(), |t| t.end);
        Item {
            kind,
            name,
            owner: owner.map(str::to_string),
            module_path: module_path.to_vec(),
            line,
            col,
            sig_start: kw_at,
            body: None,
            span: (span_start, span_end),
            cfg_test: view.in_test_region(kw_at),
            children: Vec::new(),
        }
    }

    /// The identifier at code index `i`, or `""` when the token is not one.
    fn ident_at(&self, i: usize) -> String {
        match self.view.ckind(i) {
            Some(TokenKind::Ident) => self.text(i).to_string(),
            _ => String::new(),
        }
    }

    /// Index just past the `;` ending the current item (bracket groups
    /// skipped whole), or `to` when none is found.
    fn to_semicolon(&self, from: usize, to: usize) -> usize {
        let mut i = from;
        while i < to {
            match self.text(i) {
                "(" | "[" | "{" => i = self.view.skip_balanced(i),
                ";" => return i + 1,
                "}" => return i, // enclosing block closed first
                _ => i += 1,
            }
        }
        to
    }

    /// Scans a signature for its body: returns
    /// `(Some((open, one_past_close)), one_past_close)` for `{ … }` bodies,
    /// `(None, one_past_semicolon)` for `;`-terminated (trait methods).
    fn body_or_semicolon(&self, from: usize, to: usize) -> (Option<(usize, usize)>, usize) {
        let open = self.find_body_open(from, to);
        if self.text(open) == "{" {
            let end = self.view.skip_balanced(open);
            (Some((open, end)), end)
        } else {
            (None, self.to_semicolon(from, to))
        }
    }

    /// Code index of the first `{` at top level after `from` (paren/bracket
    /// groups skipped), stopping at `;` or a closing `}` of the enclosing
    /// scope. Returns the index of the stopping token either way.
    fn find_body_open(&self, from: usize, to: usize) -> usize {
        let mut i = from;
        while i < to {
            match self.text(i) {
                "(" | "[" => i = self.view.skip_balanced(i),
                "{" | ";" | "}" => return i,
                _ => i += 1,
            }
        }
        to
    }

    /// `impl` headers: skips leading generics, then takes the last path
    /// segment before generic arguments — of the type after `for` when the
    /// header has one (`impl Trait for Type`), of the first type otherwise.
    /// Returns the name and the index of the body `{`.
    fn impl_type_name(&self, from: usize, to: usize) -> (String, usize) {
        let body_open = self.find_body_open(from, to);
        let mut start = from;
        // Leading generic parameters `impl<…>`: angle-match, minding `>>`.
        if self.text(start) == "<" {
            let mut depth = 0i64;
            let mut j = start;
            while j < body_open {
                match self.text(j) {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "<<" => depth += 2,
                    ">>" => depth -= 2,
                    _ => {}
                }
                j += 1;
                if depth <= 0 {
                    break;
                }
            }
            start = j;
        }
        // Prefer the segment after a top-level `for`.
        let mut scan = start;
        let mut name_from = start;
        while scan < body_open {
            match self.text(scan) {
                "(" | "[" => scan = self.view.skip_balanced(scan),
                "for" => {
                    name_from = scan + 1;
                    scan += 1;
                }
                _ => scan += 1,
            }
        }
        let mut name = String::new();
        let mut j = name_from;
        while j < body_open {
            match self.text(j) {
                "&" | "mut" | "dyn" | "::" => j += 1,
                "<" => break,
                _ => {
                    if self.view.ckind(j) == Some(TokenKind::Ident) {
                        name = self.text(j).to_string();
                        j += 1;
                        if self.text(j) != "::" {
                            break;
                        }
                    } else {
                        break;
                    }
                }
            }
        }
        (name, body_open)
    }

    /// Flattens one `use` declaration's path tokens (code indices
    /// `[from, to)`, the `;` excluded) into [`Import`]s.
    fn flatten_use(&mut self, from: usize, to: usize) {
        let line = self.view.ct(from).map_or(0, |t| t.line);
        let toks: Vec<String> = (from..to)
            .map(|i| self.text(i).to_string())
            .filter(|t| !t.is_empty())
            .collect();
        let mut prefix = Vec::new();
        self.flatten_use_slice(&toks, &mut prefix, line);
    }

    fn flatten_use_slice(&mut self, toks: &[String], prefix: &mut Vec<String>, line: u32) {
        let depth_added = prefix.len();
        let mut i = 0;
        while i < toks.len() {
            match toks[i].as_str() {
                "::" => i += 1,
                "{" => {
                    // Split the group body on top-level commas and recurse.
                    let mut depth = 1usize;
                    let mut part_start = i + 1;
                    let mut j = i + 1;
                    while j < toks.len() && depth > 0 {
                        match toks[j].as_str() {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    self.use_group_part(&toks[part_start..j], prefix, line);
                                }
                            }
                            "," if depth == 1 => {
                                self.use_group_part(&toks[part_start..j], prefix, line);
                                part_start = j + 1;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    prefix.truncate(depth_added);
                    return;
                }
                "as" => {
                    // Alias: the local leaf is the alias name.
                    let alias = toks.get(i + 1).cloned().unwrap_or_default();
                    self.push_import(alias, prefix, line);
                    prefix.truncate(depth_added);
                    return;
                }
                seg => {
                    prefix.push(seg.to_string());
                    i += 1;
                }
            }
        }
        // Plain path: the leaf is the last segment.
        if prefix.len() > depth_added {
            let leaf = prefix.last().cloned().unwrap_or_default();
            self.push_import(leaf, prefix, line);
        }
        prefix.truncate(depth_added);
    }

    fn use_group_part(&mut self, part: &[String], prefix: &mut Vec<String>, line: u32) {
        if part.is_empty() {
            return;
        }
        if part.len() == 1 && part[0] == "self" {
            // `use a::b::{self, c}` — `self` binds the prefix's last segment.
            let leaf = prefix.last().cloned().unwrap_or_default();
            self.push_import(leaf, prefix, line);
            return;
        }
        let before = prefix.len();
        self.flatten_use_slice(part, prefix, line);
        prefix.truncate(before);
    }

    fn push_import(&mut self, leaf: String, prefix: &[String], line: u32) {
        if leaf.is_empty() {
            return;
        }
        self.imports.push(Import {
            leaf,
            path: prefix.join("::"),
            line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{classify, FileView};

    fn tree_of(src: &str) -> ItemTree {
        let ctx = classify("crates/core/src/a.rs");
        let view = FileView::new(&ctx, src);
        parse(&view)
    }

    #[test]
    fn finds_top_level_fns_with_bodies() {
        let t = tree_of("fn a() { b(); }\npub fn b() {}\nfn sig_only();\n");
        let fns = t.fns();
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].name, "a");
        assert!(fns[0].body.is_some());
        assert_eq!(fns[1].name, "b");
        assert!(fns[2].body.is_none());
    }

    #[test]
    fn nests_modules_and_qualifies_names() {
        let t = tree_of("mod outer { mod inner { fn deep() {} } fn shallow() {} }\n");
        let fns = t.fns();
        let quals: Vec<String> = fns.iter().map(|f| f.qual_name()).collect();
        assert_eq!(quals, vec!["outer::inner::deep", "outer::shallow"]);
    }

    #[test]
    fn impl_methods_carry_their_type() {
        let t = tree_of(
            "struct Engine;\nimpl Engine {\n    pub fn query(&self) {}\n    fn probe(&self) {}\n}\nimpl Drop for Engine { fn drop(&mut self) {} }\n",
        );
        let fns = t.fns();
        assert_eq!(fns.len(), 3);
        assert_eq!(fns[0].qual_name(), "Engine::query");
        assert_eq!(fns[1].owner.as_deref(), Some("Engine"));
        // `impl Trait for Type` keys by the *type*.
        assert_eq!(fns[2].qual_name(), "Engine::drop");
    }

    #[test]
    fn generic_impl_headers_resolve_the_type() {
        let t =
            tree_of("impl<'a, T: Fn() -> u8> Iterator for Iter<'a, T> { fn next(&mut self) {} }\n");
        assert_eq!(t.fns()[0].qual_name(), "Iter::next");
    }

    #[test]
    fn trait_default_bodies_are_items() {
        let t = tree_of("trait Checker { fn check(&self) { helper(); }\n fn must(&self); }\n");
        let fns = t.fns();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].qual_name(), "Checker::check");
        assert!(fns[0].body.is_some());
        assert!(fns[1].body.is_none());
    }

    #[test]
    fn use_groups_flatten_with_aliases() {
        let t = tree_of(
            "use std::collections::{HashMap, HashSet};\nuse std::sync::Arc as Shared;\nuse parking_lot::RwLock;\nuse a::b::{self, c::d};\n",
        );
        let leaves: Vec<(&str, &str)> = t
            .imports
            .iter()
            .map(|i| (i.leaf.as_str(), i.path.as_str()))
            .collect();
        assert!(leaves.contains(&("HashMap", "std::collections::HashMap")));
        assert!(leaves.contains(&("HashSet", "std::collections::HashSet")));
        assert!(leaves.contains(&("Shared", "std::sync::Arc")));
        assert!(leaves.contains(&("RwLock", "parking_lot::RwLock")));
        assert!(leaves.contains(&("b", "a::b")));
        assert!(leaves.contains(&("d", "a::b::c::d")));
        assert!(t.imports_from("HashMap", "std::collections"));
        assert!(!t.imports_from("RwLock", "std::sync"));
    }

    #[test]
    fn cfg_test_gating_is_inherited() {
        let t = tree_of(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() {}\n}\n",
        );
        let fns = t.fns();
        assert_eq!(fns.len(), 3);
        assert!(!fns[0].cfg_test);
        assert!(fns[1].cfg_test, "helper inherits the module gate");
        assert!(fns[2].cfg_test);
    }

    #[test]
    fn qualifier_soup_still_finds_the_fn() {
        let t = tree_of(
            "pub(crate) const fn a() {}\npub unsafe extern \"C\" fn b() {}\nasync fn c() {}\n",
        );
        let names: Vec<&str> = t.fns().iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn consts_statics_types_and_macros_are_skipped_whole() {
        let t = tree_of(
            "const X: u64 = { let a = 1; a + 1 };\nstatic mut Y: u8 = 0;\ntype Pair = (u8, u8);\nmacro_rules! m { ($x:expr) => { $x.unwrap() }; }\nfn after() {}\n",
        );
        let fns = t.fns();
        assert_eq!(fns.len(), 1, "macro body must not masquerade as items");
        assert_eq!(fns[0].name, "after");
        assert!(t
            .items
            .iter()
            .any(|i| i.kind == ItemKind::Const && i.name == "X"));
        assert!(t
            .items
            .iter()
            .any(|i| i.kind == ItemKind::MacroDef && i.name == "m"));
    }

    #[test]
    fn struct_with_braces_and_where_clause_fn() {
        let t = tree_of(
            "struct S<T> where T: Clone { field: T }\nfn generic<T>(x: T) -> Vec<T> where T: Clone { vec![x] }\n",
        );
        assert_eq!(t.fns().len(), 1);
        assert_eq!(t.fns()[0].name, "generic");
    }

    #[test]
    fn unbalanced_input_degrades_without_panic() {
        for src in [
            "fn broken( {",
            "impl {",
            "mod m {",
            "use ::{{{",
            "fn x() }",
            "pub pub pub",
        ] {
            let _ = tree_of(src); // must not panic
        }
    }

    #[test]
    fn spans_cover_attributes() {
        let src = "#[inline]\nfn a() {}\n";
        let t = tree_of(src);
        let item = &t.items[0];
        assert_eq!(item.span.0, 0, "span starts at the attribute");
        assert_eq!(&src[item.span.0..item.span.1], "#[inline]\nfn a() {}");
    }
}
