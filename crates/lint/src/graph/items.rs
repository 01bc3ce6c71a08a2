//! Per-file item extraction: the module path, `use` imports, `fn`/`impl`
//! items with line spans, call sites, and the nondeterminism *facts* the
//! flow layer seeds taint from.
//!
//! This is a lightweight item parser on top of the token stream produced by
//! [`crate::scanner`] — deliberately **not** a full Rust parser. It recovers
//! exactly what a source-to-sink taint pass needs:
//!
//! - every `fn` item (free, `impl` method, trait default method) with its
//!   signature line and body extent;
//! - an over-approximate list of call sites per body: any identifier
//!   immediately followed by `(` that is not a keyword, macro (`name!`), or
//!   the name in a nested `fn` definition — qualified (`Type::name(`) and
//!   method (`.name(`) forms are tagged so resolution can be type-filtered;
//! - `use` imports, flattened through `{…}` groups and `as` renames, kept
//!   only for workspace-internal refinement of bare-call resolution;
//! - per-function facts: iteration over `HashMap`/`HashSet`-typed names,
//!   environment reads, and whether the body sorts (the F2 sanitizer);
//! - whether the file is a report module: its top level carries
//!   `#![deny(clippy::disallowed_types)]`, the D2 attribute.
//!
//! Everything here is conservative in the taint direction: unresolved names
//! stay external leaves, unknown receivers are skipped, and the worst case
//! of a parse miss is a missing edge — reported coverage, never a crash.

use crate::scanner::{Token, TokenKind};
use std::collections::BTreeSet;

/// Identifiers never treated as call targets even when followed by `(`:
/// keywords, control flow, and the built-in tuple-variant constructors.
const NON_CALL_IDENTS: [&str; 23] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "in", "as", "move", "ref", "mut", "where", "impl", "dyn", "Some", "None", "Ok", "Err",
];

/// `std::env` reader functions — only counted when qualified by `env::`.
const ENV_READ_FNS: [&str; 3] = ["var", "vars", "var_os"];

/// Bare identifiers that read the execution environment.
const ENV_IDENTS: [&str; 1] = ["available_parallelism"];

/// Iteration methods that surface a map/set's nondeterministic order when
/// the receiver is `HashMap`/`HashSet`-typed.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Tokens that sanitize iteration-order taint: an explicit sort, or routing
/// through an ordered BTree collection.
const SORT_METHODS: [&str; 6] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Ordered collections whose presence marks a function as an ordering
/// boundary for F2.
const ORDERED_COLLECTIONS: [&str; 2] = ["BTreeMap", "BTreeSet"];

/// One `use` import leaf: `use a::b::{c as d}` yields `name = "d"`,
/// `path = "a::b::c"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    /// The name the import binds in this file (`*` for glob imports).
    pub name: String,
    /// The full `::`-joined path.
    pub path: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawCall {
    /// Called name (the identifier before `(`).
    pub name: String,
    /// Qualifying path segment for `Qual::name(…)` calls.
    pub qual: Option<String>,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
    /// 1-indexed source line of the call.
    pub line: u32,
}

/// Nondeterminism facts of one function body — the flow layer's seed and
/// sanitizer alphabet, recorded policy-free (the path policy is applied at
/// analysis time, not extraction time).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnFacts {
    /// Iteration over a `HashMap`/`HashSet`-typed name: `(line, receiver.method)`.
    pub map_iter: Vec<(u32, String)>,
    /// Environment reads (`env::var`, `available_parallelism`).
    pub env: Vec<(u32, String)>,
    /// True when the body sorts or routes through an ordered collection —
    /// the sanctioned F2 ordering boundary.
    pub sorts: bool,
}

/// One extracted `fn` item.
#[derive(Debug, Clone)]
pub struct RawFn {
    /// Bare function name.
    pub name: String,
    /// Owning `impl`/`trait` type name, if any.
    pub owner: Option<String>,
    /// In-file module path (`mod` nesting), outermost first.
    pub module: Vec<String>,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// 1-indexed line of the body's closing brace.
    pub end_line: u32,
    /// Call sites in body order.
    pub calls: Vec<RawCall>,
    /// Nondeterminism facts of the body.
    pub facts: FnFacts,
}

/// The extraction result for one file.
#[derive(Debug, Clone)]
pub struct RawFile {
    /// Workspace-relative, forward-slash path.
    pub path: String,
    /// Derived crate-level module path (e.g. `fdn_lab::report`).
    pub module: String,
    /// Flattened `use` imports.
    pub imports: Vec<Import>,
    /// Extracted functions in source order.
    pub fns: Vec<RawFn>,
    /// True when the file's top level carries
    /// `#![deny(clippy::disallowed_types)]`: a report module, every function
    /// of which is a flow sink.
    pub report_module: bool,
}

/// Derives the displayed module path from a workspace-relative file path:
/// `crates/lab/src/report.rs` → `fdn_lab::report`, `src/lib.rs` →
/// `fully_defective`, shim crates keep their upstream names, and
/// tests/benches/examples keep a path-shaped pseudo-module so every file has
/// a unique, deterministic module string.
pub fn module_path_of(path: &str) -> String {
    let trimmed = path.strip_suffix(".rs").unwrap_or(path);
    let parts: Vec<&str> = trimmed.split('/').collect();
    // crates/<name>/src/... → crate package name + in-crate modules.
    if parts.len() >= 3 && parts[0] == "crates" && parts[2] == "src" {
        let krate = if parts[1] == "shims" {
            // crates/shims/<upstream>/src/...
            if parts.len() >= 4 {
                return flatten_module(parts[2].to_string(), &parts[4..]);
            }
            parts[1].to_string()
        } else {
            format!("fdn_{}", parts[1].replace('-', "_"))
        };
        return flatten_module(krate, &parts[3..]);
    }
    if parts.len() >= 4 && parts[0] == "crates" && parts[1] == "shims" && parts[3] == "src" {
        let krate = parts[2].replace('-', "_");
        return flatten_module(krate, &parts[4..]);
    }
    if parts.len() == 2 && parts[0] == "src" {
        return flatten_module("fully_defective".to_string(), &parts[1..]);
    }
    // tests/, examples/, benches/ (root or crate-level): path-shaped module.
    trimmed.replace('/', "::")
}

/// Joins a crate name with in-crate module segments, dropping the
/// `lib`/`main`/`mod` terminals.
fn flatten_module(krate: String, rest: &[&str]) -> String {
    let mut out = krate;
    for seg in rest {
        if *seg == "lib" || *seg == "main" || *seg == "mod" {
            continue;
        }
        out.push_str("::");
        out.push_str(seg);
    }
    out
}

/// Names in this file carrying a `HashMap`/`HashSet` type: ascribed
/// (`name: HashMap<…>`, including through `&`/`&mut`) or directly
/// constructed (`name = HashMap::new()`). Struct fields, `let` bindings and
/// parameters all match — the set is file-wide on purpose, so a field
/// declared on one impl and iterated in another still seeds F2.
pub fn collect_hash_typed(tokens: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (j, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // Walk back over `&` and `mut` to the ascription/assignment marker.
        let mut k = j;
        while k > 0 && (tokens[k - 1].is_punct('&') || tokens[k - 1].is_ident("mut")) {
            k -= 1;
        }
        if k == 0 {
            continue;
        }
        let marker = &tokens[k - 1];
        if (marker.is_punct(':') || marker.is_punct('='))
            && k >= 2
            && tokens[k - 2].kind == TokenKind::Ident
        {
            out.insert(tokens[k - 2].text.clone());
        }
    }
    out
}

/// Extracts the items of one file from its (test-mod-masked) token stream.
pub fn extract_file(path: &str, tokens: &[Token]) -> RawFile {
    let hash_typed = collect_hash_typed(tokens);
    let mut file = RawFile {
        path: path.to_string(),
        module: module_path_of(path),
        imports: Vec::new(),
        fns: Vec::new(),
        report_module: false,
    };

    /// One entry of the scope stack: the kind, its name, and the brace
    /// depth its body occupies (scopes pop when depth falls below it).
    enum Scope {
        Module(String),
        Owner(String),
    }
    let mut scopes: Vec<(Scope, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;

    while i < tokens.len() {
        let t = &tokens[i];

        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            while scopes.last().is_some_and(|(_, d)| *d > depth) {
                scopes.pop();
            }
            i += 1;
            continue;
        }

        // Attributes: `#[…]` and `#![…]` (also covers a leading shebang's
        // `#` + `!` pair when followed by `[`; a plain shebang line's
        // tokens are inert punctuation otherwise).
        if t.is_punct('#') {
            let inner = tokens.get(i + 1).is_some_and(|n| n.is_punct('!'));
            let j = if inner { i + 2 } else { i + 1 };
            if tokens.get(j).is_some_and(|n| n.is_punct('[')) {
                let end = skip_brackets(tokens, j);
                if inner && depth == 0 && denies_disallowed_types(&tokens[j + 1..end]) {
                    file.report_module = true;
                }
                i = end;
                continue;
            }
            i += 1;
            continue;
        }

        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "use" => {
                    i = parse_use(tokens, i + 1, &mut file.imports);
                    continue;
                }
                "mod" => {
                    // `mod name {` opens a module scope; `mod name;` is an
                    // out-of-line declaration and carries no items here.
                    if let (Some(name), Some(brace)) = (tokens.get(i + 1), tokens.get(i + 2)) {
                        if name.kind == TokenKind::Ident && brace.is_punct('{') {
                            scopes.push((Scope::Module(name.text.clone()), depth + 1));
                            i += 2; // the `{` is handled by the main loop
                            continue;
                        }
                    }
                }
                "impl" => {
                    if let Some((owner, brace_idx)) = parse_impl_header(tokens, i + 1) {
                        scopes.push((Scope::Owner(owner), depth + 1));
                        i = brace_idx; // the `{` is handled by the main loop
                        continue;
                    }
                }
                "trait" => {
                    if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                        if let Some(brace_idx) = find_body_brace(tokens, i + 2) {
                            scopes.push((Scope::Owner(name.text.clone()), depth + 1));
                            i = brace_idx;
                            continue;
                        }
                    }
                }
                "fn" => {
                    if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                        match find_body_brace(tokens, i + 2) {
                            Some(body_start) => {
                                let body_end = match_brace(tokens, body_start);
                                let body = &tokens[body_start + 1..body_end];
                                let mut f = RawFn {
                                    name: name.text.clone(),
                                    owner: scopes.iter().rev().find_map(|(s, _)| match s {
                                        Scope::Owner(n) => Some(n.clone()),
                                        Scope::Module(_) => None,
                                    }),
                                    module: scopes
                                        .iter()
                                        .filter_map(|(s, _)| match s {
                                            Scope::Module(n) => Some(n.clone()),
                                            Scope::Owner(_) => None,
                                        })
                                        .collect(),
                                    line: t.line,
                                    end_line: tokens
                                        .get(body_end.min(tokens.len().saturating_sub(1)))
                                        .map_or(t.line, |e| e.line),
                                    calls: Vec::new(),
                                    facts: FnFacts::default(),
                                };
                                extract_body(body, &hash_typed, &mut f);
                                file.fns.push(f);
                                i = body_end + 1;
                                continue;
                            }
                            None => {
                                // Bodyless declaration (`fn f(…);` in a
                                // trait): nothing to extract.
                                i += 2;
                                continue;
                            }
                        }
                    }
                }
                _ => {}
            }
        }

        i += 1;
    }

    file
}

/// Skips a balanced `[…]` starting at the `[` at `open`; returns the index
/// past the closing `]`.
fn skip_brackets(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// True for the tokens inside an attribute's brackets that read
/// `deny(…)` with `clippy::disallowed_types` in the list.
fn denies_disallowed_types(attr: &[Token]) -> bool {
    attr.first().is_some_and(|t| t.is_ident("deny"))
        && attr.windows(4).any(|w| {
            w[0].is_ident("clippy")
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && w[3].is_ident("disallowed_types")
        })
}

/// Finds the index of the body-opening `{` for an item whose signature
/// starts at `from`: the first `{` at paren/bracket depth 0. Returns `None`
/// when a top-level `;` terminates the item first (a bodyless declaration).
/// `where` clauses — including multi-line ones — carry no braces, so they
/// are skipped naturally.
fn find_body_brace(tokens: &[Token], from: usize) -> Option<usize> {
    let mut parens = 0usize;
    let mut brackets = 0usize;
    let mut j = from;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') {
            parens += 1;
        } else if t.is_punct(')') {
            parens = parens.saturating_sub(1);
        } else if t.is_punct('[') {
            brackets += 1;
        } else if t.is_punct(']') {
            brackets = brackets.saturating_sub(1);
        } else if parens == 0 && brackets == 0 {
            if t.is_punct('{') {
                return Some(j);
            }
            if t.is_punct(';') {
                return None;
            }
        }
        j += 1;
    }
    None
}

/// Returns the index of the `}` matching the `{` at `open`, or
/// `tokens.len()` for an unterminated body, which then runs to the end of
/// input (the scanner's forgiving contract).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('{') {
            depth += 1;
        } else if tokens[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Parses an `impl` header starting just past the `impl` keyword: returns
/// the implemented type's bare name and the index of the body `{`.
///
/// Handles `impl Type`, `impl<T> Type<T>`, `impl Trait for Type`,
/// `impl<T> Trait<T> for path::Type<T> where …` — the owner is the last
/// path segment of the type after `for` (or of the sole type when there is
/// no `for`).
fn parse_impl_header(tokens: &[Token], from: usize) -> Option<(String, usize)> {
    let brace = find_body_brace(tokens, from)?;
    let header = &tokens[from..brace];

    // Skip leading generic parameters `<…>` (angle depth; `->`'s `>` never
    // appears before the type position in a header's generics).
    let mut k = 0usize;
    if header.first().is_some_and(|t| t.is_punct('<')) {
        let mut angle = 0i32;
        while k < header.len() {
            if header[k].is_punct('<') {
                angle += 1;
            } else if header[k].is_punct('>') && !(k > 0 && header[k - 1].is_punct('-')) {
                angle -= 1;
                if angle == 0 {
                    k += 1;
                    break;
                }
            }
            k += 1;
        }
    }

    // Prefer the path after a top-level `for`; otherwise the leading path.
    let mut angle = 0i32;
    let mut for_at: Option<usize> = None;
    for (j, t) in header.iter().enumerate().skip(k) {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') && !(j > 0 && header[j - 1].is_punct('-')) {
            angle -= 1;
        } else if angle == 0 && t.is_ident("for") {
            for_at = Some(j);
            break;
        }
    }
    let path_start = for_at.map_or(k, |j| j + 1);
    let owner = last_path_segment(header, path_start)?;
    Some((owner, brace))
}

/// The last identifier of the `::`-joined path starting at `from`
/// (skipping leading `&`/`mut`), stopping at the first token that is
/// neither an identifier nor `::`-colon punctuation.
fn last_path_segment(tokens: &[Token], from: usize) -> Option<String> {
    let mut j = from;
    while tokens
        .get(j)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
    {
        j += 1;
    }
    let mut last: Option<String> = None;
    while let Some(t) = tokens.get(j) {
        if t.kind == TokenKind::Ident {
            if t.is_ident("where") {
                break;
            }
            last = Some(t.text.clone());
            j += 1;
        } else if t.is_punct(':') {
            j += 1;
        } else {
            break;
        }
    }
    last
}

/// Parses one `use …;` starting just past the `use` keyword; flattens
/// `{…}` groups and `as` renames into [`Import`] leaves. Returns the index
/// past the terminating `;`.
fn parse_use(tokens: &[Token], from: usize, out: &mut Vec<Import>) -> usize {
    // Find the end of the statement first so a malformed use cannot run away.
    let mut end = from;
    let mut braces = 0usize;
    while end < tokens.len() {
        let t = &tokens[end];
        if t.is_punct('{') {
            braces += 1;
        } else if t.is_punct('}') {
            braces = braces.saturating_sub(1);
        } else if t.is_punct(';') && braces == 0 {
            break;
        }
        end += 1;
    }
    let mut prefix: Vec<String> = Vec::new();
    parse_use_tree(&tokens[from..end], 0, &mut prefix, out);
    end + 1
}

/// Recursive descent over one use-tree; `pos` advances over the slice.
fn parse_use_tree(toks: &[Token], mut pos: usize, prefix: &mut Vec<String>, out: &mut Vec<Import>) {
    let depth_at_entry = prefix.len();
    loop {
        match toks.get(pos) {
            Some(t) if t.kind == TokenKind::Ident && t.text != "as" => {
                prefix.push(t.text.clone());
                pos += 1;
                // `::` continues the path; anything else ends this leaf.
                if toks.get(pos).is_some_and(|n| n.is_punct(':'))
                    && toks.get(pos + 1).is_some_and(|n| n.is_punct(':'))
                {
                    pos += 2;
                    if toks.get(pos).is_some_and(|n| n.is_punct('{')) {
                        // Group: parse comma-separated subtrees.
                        pos += 1;
                        let mut item_start = pos;
                        let mut braces = 0usize;
                        while pos < toks.len() {
                            let t = &toks[pos];
                            if t.is_punct('{') {
                                braces += 1;
                            } else if t.is_punct('}') {
                                if braces == 0 {
                                    parse_use_tree(&toks[item_start..pos], 0, prefix, out);
                                    break;
                                }
                                braces -= 1;
                            } else if t.is_punct(',') && braces == 0 {
                                parse_use_tree(&toks[item_start..pos], 0, prefix, out);
                                item_start = pos + 1;
                            }
                            pos += 1;
                        }
                        prefix.truncate(depth_at_entry);
                        return;
                    }
                    continue;
                }
                // Leaf: optional `as` alias.
                let name = if toks.get(pos).is_some_and(|n| n.is_ident("as")) {
                    let alias = toks
                        .get(pos + 1)
                        .filter(|n| n.kind == TokenKind::Ident)
                        .map(|n| n.text.clone());
                    alias.unwrap_or_else(|| prefix.last().cloned().unwrap_or_default())
                } else {
                    prefix.last().cloned().unwrap_or_default()
                };
                if !name.is_empty() {
                    out.push(Import {
                        name,
                        path: prefix.join("::"),
                    });
                }
                prefix.truncate(depth_at_entry);
                return;
            }
            Some(t) if t.is_punct('*') => {
                out.push(Import {
                    name: "*".to_string(),
                    path: prefix.join("::"),
                });
                prefix.truncate(depth_at_entry);
                return;
            }
            _ => {
                prefix.truncate(depth_at_entry);
                return;
            }
        }
    }
}

/// Extracts call sites and nondeterminism facts from one body slice.
fn extract_body(body: &[Token], hash_typed: &BTreeSet<String>, f: &mut RawFn) {
    for j in 0..body.len() {
        let t = &body[j];
        let prev = j.checked_sub(1).map(|k| &body[k]);
        let prev2 = j.checked_sub(2).map(|k| &body[k]);
        // `::` is two `:` punct tokens, so the qualifying identifier of
        // `Qual::name` sits three tokens back.
        let prev3 = j.checked_sub(3).map(|k| &body[k]);
        let colon_colon_before =
            prev.is_some_and(|p| p.is_punct(':')) && prev2.is_some_and(|p| p.is_punct(':'));
        let next = body.get(j + 1);

        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();

        // Call site: `name(`, excluding keywords, macros (`name!(` never
        // reaches here because `!` sits between), and nested-`fn` names.
        if next.is_some_and(|n| n.is_punct('('))
            && !NON_CALL_IDENTS.contains(&name)
            && !prev.is_some_and(|p| p.is_ident("fn"))
        {
            let method = prev.is_some_and(|p| p.is_punct('.'));
            let qual = if colon_colon_before && prev3.is_some_and(|p| p.kind == TokenKind::Ident) {
                prev3.map(|p| p.text.clone())
            } else {
                None
            };
            f.calls.push(RawCall {
                name: name.to_string(),
                qual,
                method,
                line: t.line,
            });
        }

        // Facts.
        if ENV_IDENTS.contains(&name) {
            f.facts.env.push((t.line, name.to_string()));
        }
        if ENV_READ_FNS.contains(&name)
            && colon_colon_before
            && prev3.is_some_and(|p| p.is_ident("env"))
        {
            f.facts.env.push((t.line, format!("env::{name}")));
        }
        if (SORT_METHODS.contains(&name) && prev.is_some_and(|p| p.is_punct('.')))
            || ORDERED_COLLECTIONS.contains(&name)
        {
            f.facts.sorts = true;
        }
        if ITER_METHODS.contains(&name)
            && prev.is_some_and(|p| p.is_punct('.'))
            && prev2.is_some_and(|p| p.kind == TokenKind::Ident && hash_typed.contains(&p.text))
        {
            let receiver = prev2.map(|p| p.text.clone()).unwrap_or_default();
            f.facts
                .map_iter
                .push((t.line, format!("{receiver}.{name}()")));
        }
        // `for x in <expr containing a hash-typed name> {`: iteration order
        // taint even without an explicit `.iter()`.
        if name == "for" {
            let mut k = j + 1;
            let mut saw_in = false;
            while k < body.len() && !body[k].is_punct('{') && k < j + 64 {
                let b = &body[k];
                if b.is_ident("in") {
                    saw_in = true;
                } else if saw_in
                    && b.kind == TokenKind::Ident
                    && hash_typed.contains(&b.text)
                    // `map.iter()` after `in` is already counted above, and
                    // `name(…)` is a call whose return type is unknown (its
                    // body is analyzed on its own) — not a map read.
                    && !body
                        .get(k + 1)
                        .is_some_and(|n| n.is_punct('.') || n.is_punct('('))
                {
                    f.facts
                        .map_iter
                        .push((b.line, format!("for … in {}", b.text)));
                    break;
                }
                k += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn extract(src: &str) -> RawFile {
        extract_file("crates/x/src/lib.rs", &scan(src).tokens)
    }

    #[test]
    fn free_fns_and_methods_are_extracted_with_spans() {
        let src = "fn alpha() {\n    beta();\n}\nimpl Gamma {\n    fn beta(&self) { delta(); }\n}";
        let file = extract(src);
        assert_eq!(file.fns.len(), 2);
        assert_eq!(file.fns[0].name, "alpha");
        assert_eq!(file.fns[0].owner, None);
        assert_eq!((file.fns[0].line, file.fns[0].end_line), (1, 3));
        assert_eq!(file.fns[1].name, "beta");
        assert_eq!(file.fns[1].owner.as_deref(), Some("Gamma"));
        assert_eq!(file.fns[0].calls.len(), 1);
        assert_eq!(file.fns[0].calls[0].name, "beta");
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let src =
            "impl<T: Clone> fmt::Display for links::LinkTable<T> {\n fn render_rows(&self) {} }";
        let file = extract(src);
        assert_eq!(file.fns[0].owner.as_deref(), Some("LinkTable"));
    }

    #[test]
    fn where_clause_spanning_lines_does_not_break_body_detection() {
        let src = "impl Store {\n    fn load<K>(&self, k: K) -> u64\n    where\n        K: Ord,\n        K: Clone,\n    {\n        fetch(k)\n    }\n}";
        let file = extract(src);
        assert_eq!(file.fns.len(), 1);
        assert_eq!(file.fns[0].name, "load");
        assert_eq!(file.fns[0].calls[0].name, "fetch");
        assert_eq!(file.fns[0].end_line, 8);
    }

    #[test]
    fn macros_keywords_and_nested_fn_names_are_not_calls() {
        let src = "fn f() { if cond() { println!(\"x\"); } fn inner() {} inner(); }";
        let names: Vec<String> = extract(src).fns[0]
            .calls
            .iter()
            .map(|c| c.name.clone())
            .collect();
        assert_eq!(names, vec!["cond", "inner"]);
    }

    #[test]
    fn qualified_and_method_calls_are_tagged() {
        let src = "fn f() { Json::parse(x); report.render(); helper(); }";
        let calls = &extract(src).fns[0].calls;
        assert_eq!(calls[0].qual.as_deref(), Some("Json"));
        assert!(!calls[0].method);
        assert!(calls[1].method);
        assert_eq!(calls[1].qual, None);
        assert_eq!(calls[2].qual, None);
        assert!(!calls[2].method);
    }

    #[test]
    fn use_groups_and_renames_flatten() {
        let src = "use fdn_core::{checkpoint::capture, engine as eng, prelude::*};\nfn f() {}";
        let imports = extract(src).imports;
        assert!(imports.contains(&Import {
            name: "capture".into(),
            path: "fdn_core::checkpoint::capture".into()
        }));
        assert!(imports.contains(&Import {
            name: "eng".into(),
            path: "fdn_core::engine".into()
        }));
        assert!(imports.contains(&Import {
            name: "*".into(),
            path: "fdn_core::prelude".into()
        }));
    }

    #[test]
    fn facts_cover_every_source_alphabet() {
        let src = "fn f(m: &HashMap<u32, u32>) {\n\
                   let n = std::env::var(\"N\");\n\
                   let p = std::thread::available_parallelism();\n\
                   for k in m.keys() { touch(k); }\n\
                   }";
        let facts = &extract(src).fns[0].facts;
        assert_eq!(
            facts.env,
            vec![(2, "env::var".into()), (3, "available_parallelism".into())]
        );
        assert_eq!(facts.map_iter, vec![(4, "m.keys()".into())]);
        assert!(!facts.sorts);
    }

    #[test]
    fn report_module_is_read_from_the_top_level_deny_attribute() {
        let report = |src: &str| extract(src).report_module;
        assert!(report(
            "//! docs\n#![deny(clippy::disallowed_types)]\nfn f() {}"
        ));
        assert!(report(
            "#![deny(clippy::float_arithmetic, clippy::disallowed_types)]\nfn f() {}"
        ));
        // Other lints, other levels, outer attributes and nested modules do
        // not mark the file.
        assert!(!report("#![deny(clippy::float_arithmetic)]\nfn f() {}"));
        assert!(!report(
            "#![expect(clippy::disallowed_types, reason = \"r\")]\nfn f() {}"
        ));
        assert!(!report("#[deny(clippy::disallowed_types)]\nfn f() {}"));
        assert!(!report(
            "mod m { #![deny(clippy::disallowed_types)] fn f() {} }"
        ));
    }

    #[test]
    fn sorting_marks_the_ordering_boundary() {
        let src =
            "fn f(m: HashMap<u32, u32>) { let mut v: Vec<_> = m.keys().collect(); v.sort(); }";
        let facts = &extract(src).fns[0].facts;
        assert!(facts.sorts);
        assert_eq!(facts.map_iter.len(), 1);
        let src =
            "fn g(m: HashMap<u32, u32>) { let b: BTreeMap<u32, u32> = m.into_iter().collect(); }";
        assert!(extract(src).fns[0].facts.sorts);
    }

    #[test]
    fn for_loop_over_hash_typed_name_is_iteration() {
        let src = "fn f(set: &HashSet<u32>) { for x in set { use_it(x); } }";
        let facts = &extract(src).fns[0].facts;
        assert_eq!(facts.map_iter, vec![(1, "for … in set".into())]);
    }

    #[test]
    fn module_paths_derive_from_file_paths() {
        assert_eq!(
            module_path_of("crates/lab/src/report.rs"),
            "fdn_lab::report"
        );
        assert_eq!(
            module_path_of("crates/netsim/src/links/mod.rs"),
            "fdn_netsim::links"
        );
        assert_eq!(module_path_of("crates/lab/src/main.rs"), "fdn_lab");
        assert_eq!(module_path_of("src/lib.rs"), "fully_defective");
        assert_eq!(module_path_of("crates/shims/rayon/src/lib.rs"), "rayon");
        assert_eq!(
            module_path_of("crates/lab/tests/fleet.rs"),
            "crates::lab::tests::fleet"
        );
    }

    #[test]
    fn hash_typed_names_cover_fields_params_and_lets() {
        let toks = scan(
            "struct S { map: HashMap<u32, u32> }\n\
             fn f(arg: &mut HashMap<u32, u32>) { let local = HashSet::new(); }",
        )
        .tokens;
        let names = collect_hash_typed(&toks);
        assert!(names.contains("map"));
        assert!(names.contains("arg"));
        assert!(names.contains("local"));
    }
}
