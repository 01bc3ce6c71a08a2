//! The workspace item/call graph — extraction layer of the flow rules.
//!
//! [`items`] parses each file's token stream into functions, imports and
//! nondeterminism facts; this module flattens those per-file results into a
//! single [`WorkspaceGraph`] with resolved call edges:
//!
//! - **method calls** (`recv.name(…)`) resolve by name against every
//!   workspace `impl`/`trait` method, *except* for a blacklist of ubiquitous
//!   std method names (`push`, `len`, `get`, …) that would otherwise wire
//!   every `Vec::push` to an unrelated workspace method of the same name;
//! - **qualified calls** (`Qual::name(…)`) resolve through the owner-type
//!   map (`Self` uses the caller's owner), then through the caller's
//!   imports when `Qual` names a workspace module;
//! - **bare calls** (`name(…)`) prefer free functions of the same file,
//!   then import-refined matches, then any workspace free function of that
//!   name (over-approximate on purpose — a spurious edge can only make the
//!   taint pass *more* conservative);
//! - everything else stays an **external leaf**, kept by name so the DOT
//!   export shows the boundary of the analysis.
//!
//! The graph is byte-deterministic: files are sorted, functions are in
//! (file, line) order, edges are sorted and deduplicated, and both
//! serializers ([`WorkspaceGraph::to_json_string`] and
//! [`WorkspaceGraph::to_dot`]) iterate only ordered containers. CI runs the
//! export twice and `cmp`s the bytes.

pub mod items;

use fdn_lab::Json;
use items::{FnFacts, Import, RawCall, RawFile};
use std::collections::{BTreeMap, BTreeSet};

/// Method names so common in std that resolving them by bare name across
/// the workspace would create false edges from nearly every function (for
/// example `.push(…)` on a `Vec` must not become an edge to
/// `Transcript::push`). Qualified calls (`Transcript::push(…)` or
/// `Self::push(…)`) still resolve normally.
const COMMON_STD_METHODS: [&str; 56] = [
    "and_then",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "chain",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "default",
    "drain",
    "entry",
    "eq",
    "extend",
    "filter",
    "flat_map",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "len",
    "map",
    "max",
    "min",
    "new",
    "next",
    "or_insert",
    "parse",
    "pop",
    "push",
    "push_str",
    "remove",
    "rev",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "unwrap_or",
    "values",
    "with_capacity",
];

/// One function node of the flattened graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative file path.
    pub file: String,
    /// Full module path including in-file `mod` nesting.
    pub module: String,
    /// Owning `impl`/`trait` type, if any.
    pub owner: Option<String>,
    /// Bare function name.
    pub name: String,
    /// 1-indexed `fn` line.
    pub line: u32,
    /// 1-indexed body-closing line.
    pub end_line: u32,
    /// Nondeterminism facts of the body.
    pub facts: FnFacts,
    /// True when the function's file is a report module (see
    /// [`RawFile::report_module`]).
    pub report_module: bool,
}

impl FnNode {
    /// Display name: `module::Owner::name` (owner omitted for free fns).
    pub fn qual(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{}::{}::{}", self.module, owner, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// The target of one call edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Callee {
    /// A workspace function, by index into [`WorkspaceGraph::fns`].
    Internal(usize),
    /// An unresolved name, kept as an external leaf.
    External(String),
}

/// The flattened, resolved workspace call graph.
#[derive(Debug, Clone)]
pub struct WorkspaceGraph {
    /// Sorted workspace-relative file paths.
    pub files: Vec<String>,
    /// Function nodes in (file, line) order.
    pub fns: Vec<FnNode>,
    /// Sorted, deduplicated `(caller index, callee)` edges.
    pub edges: Vec<(usize, Callee)>,
    /// Reverse adjacency over internal edges: `callers[i]` lists every
    /// function with an edge *to* `i`, sorted.
    callers: Vec<Vec<usize>>,
}

impl WorkspaceGraph {
    /// Builds the graph from per-file extraction results.
    pub fn build(mut raw: Vec<RawFile>) -> WorkspaceGraph {
        raw.sort_by(|a, b| a.path.cmp(&b.path));

        // Flatten functions; remember each one's raw calls and file index.
        let mut fns: Vec<FnNode> = Vec::new();
        let mut raw_calls: Vec<Vec<RawCall>> = Vec::new();
        let mut file_of: Vec<usize> = Vec::new();
        let mut imports: Vec<Vec<Import>> = Vec::with_capacity(raw.len());
        let files: Vec<String> = raw.iter().map(|f| f.path.clone()).collect();
        for (fi, file) in raw.iter_mut().enumerate() {
            imports.push(std::mem::take(&mut file.imports));
            for f in file.fns.drain(..) {
                let module = if f.module.is_empty() {
                    file.module.clone()
                } else {
                    format!("{}::{}", file.module, f.module.join("::"))
                };
                fns.push(FnNode {
                    file: file.path.clone(),
                    module,
                    owner: f.owner,
                    name: f.name,
                    line: f.line,
                    end_line: f.end_line,
                    facts: f.facts,
                    report_module: file.report_module,
                });
                raw_calls.push(f.calls);
                file_of.push(fi);
            }
        }

        // Resolution maps (all ordered for determinism).
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut file_free: BTreeMap<(usize, &str), Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_module: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, n) in fns.iter().enumerate() {
            match &n.owner {
                Some(owner) => {
                    typed.entry((owner, &n.name)).or_default().push(i);
                    methods.entry(&n.name).or_default().push(i);
                }
                None => {
                    free_by_name.entry(&n.name).or_default().push(i);
                    file_free.entry((file_of[i], &n.name)).or_default().push(i);
                    by_module.entry((&n.module, &n.name)).or_default().push(i);
                }
            }
        }
        // Module paths by last segment, for resolving `seg::free_fn(…)`
        // calls where `seg` is the tail of a workspace module path.
        let mut module_tails: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for n in &fns {
            let tail = n.module.rsplit("::").next().unwrap_or(&n.module);
            let entry = module_tails.entry(tail).or_default();
            if !entry.contains(&n.module.as_str()) {
                entry.push(&n.module);
            }
        }

        // Resolve every call site.
        let mut edge_set: BTreeSet<(usize, Callee)> = BTreeSet::new();
        for (caller, calls) in raw_calls.iter().enumerate() {
            let caller_node = &fns[caller];
            for call in calls {
                let mut targets: Vec<usize> = Vec::new();
                if call.method {
                    if !COMMON_STD_METHODS.contains(&call.name.as_str()) {
                        if let Some(m) = methods.get(call.name.as_str()) {
                            targets.extend(m);
                        }
                    }
                } else if let Some(q) = &call.qual {
                    let owner_key: &str = if q == "Self" {
                        caller_node.owner.as_deref().unwrap_or("Self")
                    } else {
                        q
                    };
                    if let Some(m) = typed.get(&(owner_key, call.name.as_str())) {
                        targets.extend(m);
                    } else {
                        // `Qual` may name a module: resolve through the
                        // caller's imports, then by module-path tail.
                        for module in qual_modules(q, &imports[file_of[caller]], &module_tails) {
                            if let Some(m) = by_module.get(&(module, call.name.as_str())) {
                                targets.extend(m);
                            }
                        }
                    }
                } else {
                    // Bare call: same file first, then import-refined, then
                    // any workspace free fn of that name.
                    if let Some(m) = file_free.get(&(file_of[caller], call.name.as_str())) {
                        targets.extend(m);
                    } else {
                        let mut refined = false;
                        for imp in &imports[file_of[caller]] {
                            if imp.name == call.name {
                                if let Some((module, leaf)) = imp.path.rsplit_once("::") {
                                    if leaf == call.name {
                                        if let Some(m) = by_module.get(&(module, leaf)) {
                                            targets.extend(m);
                                            refined = true;
                                        }
                                    }
                                }
                            }
                        }
                        if !refined {
                            if let Some(m) = free_by_name.get(call.name.as_str()) {
                                targets.extend(m);
                            }
                        }
                    }
                }

                if targets.is_empty() {
                    let label = match (&call.qual, call.method) {
                        (Some(q), _) => format!("{}::{}", q, call.name),
                        (None, true) => format!(".{}", call.name),
                        (None, false) => call.name.clone(),
                    };
                    edge_set.insert((caller, Callee::External(label)));
                } else {
                    for t in targets {
                        if t != caller {
                            edge_set.insert((caller, Callee::Internal(t)));
                        }
                    }
                }
            }
        }

        let edges: Vec<(usize, Callee)> = edge_set.into_iter().collect();
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (caller, callee) in &edges {
            if let Callee::Internal(t) = callee {
                callers[*t].push(*caller);
            }
        }
        for c in &mut callers {
            c.sort_unstable();
            c.dedup();
        }

        WorkspaceGraph {
            files,
            fns,
            edges,
            callers,
        }
    }

    /// Sorted callers of function `i` (internal edges only).
    pub fn callers_of(&self, i: usize) -> &[usize] {
        &self.callers[i]
    }

    /// The sorted internal callees of function `i`.
    pub fn internal_callees_of(&self, i: usize) -> Vec<usize> {
        // Edges are sorted by (caller, callee), so a range scan would also
        // work; a filter keeps this obviously correct.
        self.edges
            .iter()
            .filter_map(|(c, callee)| match callee {
                Callee::Internal(t) if *c == i => Some(*t),
                _ => None,
            })
            .collect()
    }

    /// Renders the graph as deterministic JSON. `roles[i]` annotates
    /// function `i` with its flow roles (`source:environment`,
    /// `boundary:map-iteration-order`, `sink`, …); pass an empty slice to omit the annotations.
    pub fn to_json_string(&self, roles: &[Vec<String>]) -> String {
        Json::obj(vec![
            ("tool", Json::Str("fdn-lint-graph".to_string())),
            ("version", Json::Num(1.0)),
            (
                "files",
                Json::Arr(self.files.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            (
                "fns",
                Json::Arr(
                    self.fns
                        .iter()
                        .enumerate()
                        .map(|(i, n)| {
                            let mut fields = vec![
                                ("id", Json::Num(i as f64)),
                                ("qual", Json::Str(n.qual())),
                                ("file", Json::Str(n.file.clone())),
                                ("line", Json::Num(n.line as f64)),
                                ("end_line", Json::Num(n.end_line as f64)),
                                (
                                    "facts",
                                    Json::Arr(
                                        fact_kinds(&n.facts)
                                            .into_iter()
                                            .map(|k| Json::Str(k.to_string()))
                                            .collect(),
                                    ),
                                ),
                            ];
                            if let Some(r) = roles.get(i) {
                                if !r.is_empty() {
                                    fields.push((
                                        "roles",
                                        Json::Arr(r.iter().map(|s| Json::Str(s.clone())).collect()),
                                    ));
                                }
                            }
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
            (
                "edges",
                Json::Arr(
                    self.edges
                        .iter()
                        .map(|(caller, callee)| {
                            Json::obj(match callee {
                                Callee::Internal(t) => vec![
                                    ("caller", Json::Num(*caller as f64)),
                                    ("callee", Json::Num(*t as f64)),
                                ],
                                Callee::External(name) => vec![
                                    ("caller", Json::Num(*caller as f64)),
                                    ("external", Json::Str(name.clone())),
                                ],
                            })
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Renders the graph in Graphviz DOT form: workspace functions as solid
    /// nodes, external leaves dashed, one edge per resolved call.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph fdn_workspace {\n    rankdir=LR;\n");
        for (i, n) in self.fns.iter().enumerate() {
            out.push_str(&format!(
                "    n{} [label=\"{}\"];\n",
                i,
                n.qual().replace('"', "\\\"")
            ));
        }
        // External leaves: deduplicated, sorted, one node each.
        let externals: BTreeSet<&str> = self
            .edges
            .iter()
            .filter_map(|(_, c)| match c {
                Callee::External(name) => Some(name.as_str()),
                Callee::Internal(_) => None,
            })
            .collect();
        let ext_ids: BTreeMap<&str, usize> =
            externals.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        for (name, i) in &ext_ids {
            out.push_str(&format!(
                "    x{} [label=\"{}\", style=dashed];\n",
                i,
                name.replace('"', "\\\"")
            ));
        }
        for (caller, callee) in &self.edges {
            match callee {
                Callee::Internal(t) => out.push_str(&format!("    n{caller} -> n{t};\n")),
                Callee::External(name) => out.push_str(&format!(
                    "    n{caller} -> x{} [style=dashed];\n",
                    ext_ids[name.as_str()]
                )),
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The sorted fact-kind labels present on a function.
fn fact_kinds(facts: &FnFacts) -> Vec<&'static str> {
    let mut out = Vec::new();
    if !facts.env.is_empty() {
        out.push("env");
    }
    if !facts.map_iter.is_empty() {
        out.push("map_iter");
    }
    if facts.sorts {
        out.push("sorts");
    }
    out
}

/// The candidate workspace module paths a qualifier `q` may denote: the
/// caller's imports binding `q` (to either `…::q` itself or a type inside a
/// module), then any workspace module whose path ends in `::q`.
fn qual_modules<'a>(
    q: &str,
    imports: &'a [Import],
    module_tails: &'a BTreeMap<&'a str, Vec<&'a str>>,
) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for imp in imports {
        if imp.name == q && imp.path.ends_with(&format!("::{q}")) {
            out.push(&imp.path);
        }
    }
    if let Some(tails) = module_tails.get(q) {
        for m in tails {
            if !out.contains(m) {
                out.push(m);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn graph_of(files: &[(&str, &str)]) -> WorkspaceGraph {
        WorkspaceGraph::build(
            files
                .iter()
                .map(|(path, src)| items::extract_file(path, &scan(src).tokens))
                .collect(),
        )
    }

    fn idx(g: &WorkspaceGraph, name: &str) -> usize {
        g.fns.iter().position(|n| n.name == name).unwrap()
    }

    fn has_edge(g: &WorkspaceGraph, from: &str, to: &str) -> bool {
        let (f, t) = (idx(g, from), idx(g, to));
        g.edges.contains(&(f, Callee::Internal(t)))
    }

    #[test]
    fn bare_calls_resolve_same_file_then_cross_file() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "fn caller() { helper(); distant(); }\nfn helper() {}",
            ),
            ("crates/b/src/lib.rs", "fn distant() {}"),
        ]);
        assert!(has_edge(&g, "caller", "helper"));
        assert!(has_edge(&g, "caller", "distant"));
    }

    #[test]
    fn common_std_methods_do_not_create_false_edges() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "impl Transcript { fn push(&mut self, x: u8) {} fn render_rows(&self) {} }",
            ),
            (
                "crates/b/src/lib.rs",
                "fn caller(v: &mut Vec<u8>, t: &T) { v.push(1); t.render_rows(); }",
            ),
        ]);
        assert!(
            !has_edge(&g, "caller", "push"),
            "`.push(` must stay external"
        );
        assert!(has_edge(&g, "caller", "render_rows"));
    }

    #[test]
    fn qualified_and_self_calls_resolve_through_owners() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl Store { fn load() { Self::decode(); } fn decode() {} }\n\
             fn free() { Store::load(); Missing::nope(); }",
        )]);
        assert!(has_edge(&g, "load", "decode"));
        assert!(has_edge(&g, "free", "load"));
        let free = idx(&g, "free");
        assert!(g
            .edges
            .contains(&(free, Callee::External("Missing::nope".to_string()))));
    }

    #[test]
    fn module_qualified_free_fn_resolves_by_tail() {
        let g = graph_of(&[
            ("crates/lab/src/report.rs", "pub fn render_all() {}"),
            (
                "crates/lab/src/main.rs",
                "use fdn_lab::report;\nfn main() { report::render_all(); }",
            ),
        ]);
        assert!(has_edge(&g, "main", "render_all"));
    }

    #[test]
    fn callers_of_is_the_reverse_adjacency() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn a() { c(); }\nfn b() { c(); }\nfn c() {}",
        )]);
        let c = idx(&g, "c");
        assert_eq!(g.callers_of(c), &[idx(&g, "a"), idx(&g, "b")]);
        assert_eq!(g.internal_callees_of(idx(&g, "a")), vec![c]);
    }

    #[test]
    fn json_and_dot_are_deterministic_and_ordered() {
        let files = [
            ("crates/b/src/lib.rs", "fn beta() { alpha(); ext(); }"),
            ("crates/a/src/lib.rs", "pub fn alpha() {}"),
        ];
        let a = graph_of(&files);
        let mut rev = files;
        rev.reverse();
        let b = graph_of(&rev);
        assert_eq!(a.to_json_string(&[]), b.to_json_string(&[]));
        assert_eq!(a.to_dot(), b.to_dot());
        // Files are sorted regardless of input order.
        assert_eq!(a.files, vec!["crates/a/src/lib.rs", "crates/b/src/lib.rs"]);
        assert!(a.to_dot().contains("style=dashed"));
        assert!(a.to_json_string(&[]).contains("\"external\": \"ext\""));
    }
}
