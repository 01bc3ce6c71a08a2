//! Source→sink taint propagation over the workspace call graph — the flow
//! rules F2 and F3.
//!
//! Clippy asks "is this call or type allowed in this module?"; the flow
//! rules ask the question that matters for the byte-identity contract: *can
//! a nondeterministic value reach the bytes CI `cmp`s?* An environment read
//! in a helper crate is harmless until a report function calls that helper
//! — and then it is a bug no per-module lint catches.
//!
//! The model:
//!
//! - **Sources** seed taint per [`TaintKind`]: iteration over
//!   `HashMap`/`HashSet`-typed state, and environment reads (`env::var`,
//!   `available_parallelism`). A pragma suppressing the flow rule at the
//!   seed line suppresses the seed.
//! - **Taint propagates callee→caller**: if `helper` is tainted and
//!   `render` calls it, `render` is tainted. The symmetric direction —
//!   a tainted function passing a value *into* a sink it calls — is covered
//!   by flagging tainted functions with a direct edge to a sink.
//! - **Boundaries** absorb taint: a body that sorts (or routes through a
//!   BTree collection) clears iteration-order taint. Test paths and the
//!   vendored shims are inert throughout.
//! - **Sinks** are the report-producing functions: everything in a file
//!   that starts with `#![deny(clippy::disallowed_types)]` (the D2 marker
//!   of a report module, so denying unordered maps in a module also makes
//!   it a sink) plus a name heuristic (`render*`, `*fingerprint*`,
//!   `to_json*`/`to_csv*`/`to_markdown*`/`to_text*`) that guards future
//!   modules before anyone adds the attribute.
//!
//! Findings are anchored at the **seed token** (file, line) and carry the
//! full call path for `fdn-lint why`.

use crate::graph::{FnNode, WorkspaceGraph};
use crate::pragma::Pragmas;
use crate::rules::{Finding, PathPolicy, RuleId};
use std::collections::BTreeMap;

/// One class of nondeterminism tracked through the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// `HashMap`/`HashSet` iteration order.
    MapIter,
    /// Environment dependence (`env::var`, `available_parallelism`).
    Env,
}

/// All kinds, in report order.
const ALL_KINDS: [TaintKind; 2] = [TaintKind::MapIter, TaintKind::Env];

impl TaintKind {
    /// The flow rule this kind reports as.
    pub fn rule(self) -> RuleId {
        match self {
            TaintKind::MapIter => RuleId::F2,
            TaintKind::Env => RuleId::F3,
        }
    }

    /// Human label used in messages and graph roles.
    pub fn label(self) -> &'static str {
        match self {
            TaintKind::MapIter => "map-iteration-order",
            TaintKind::Env => "environment",
        }
    }
}

/// True for files that never participate in flow analysis: the vendored
/// shims (stand-ins for external crates) and — unless `--apply-all-rules` —
/// test/bench/example trees.
fn inert(policy: &PathPolicy, file: &str) -> bool {
    file.starts_with("crates/shims/") || policy.is_test_path(file)
}

/// True when `node` absorbs taint of `kind`: taint neither seeds here nor
/// propagates past it.
fn boundary(node: &FnNode, kind: TaintKind) -> bool {
    match kind {
        TaintKind::MapIter => node.facts.sorts,
        TaintKind::Env => false,
    }
}

/// True when `node` is a report sink: its file denies
/// `clippy::disallowed_types`, or its name matches the
/// render/fingerprint/serialize heuristic.
fn is_sink(node: &FnNode) -> bool {
    node.report_module || sink_name(&node.name)
}

/// The sink name heuristic, applied everywhere (it guards modules that do
/// not carry the report-module attribute yet).
fn sink_name(name: &str) -> bool {
    name.starts_with("render")
        || name.contains("fingerprint")
        || name.starts_with("to_json")
        || name.starts_with("to_csv")
        || name.starts_with("to_markdown")
        || name.starts_with("to_text")
}

/// The seed facts of `kind` on one node, as `(line, token)` pairs.
fn facts_of(node: &FnNode, kind: TaintKind) -> &[(u32, String)] {
    match kind {
        TaintKind::MapIter => &node.facts.map_iter,
        TaintKind::Env => &node.facts.env,
    }
}

/// Descriptive flow roles per function (`source:environment`,
/// `boundary:map-iteration-order`, `sink`) for the graph export. Pragmas are deliberately not consulted —
/// the export describes the model, not a particular scan's suppressions.
pub fn roles(graph: &WorkspaceGraph, policy: &PathPolicy) -> Vec<Vec<String>> {
    graph
        .fns
        .iter()
        .map(|node| {
            let mut out = Vec::new();
            if inert(policy, &node.file) {
                return out;
            }
            for kind in ALL_KINDS {
                if boundary(node, kind) {
                    out.push(format!("boundary:{}", kind.label()));
                } else if !facts_of(node, kind).is_empty() {
                    out.push(format!("source:{}", kind.label()));
                }
            }
            if is_sink(node) {
                out.push("sink".to_string());
            }
            out
        })
        .collect()
}

/// Propagates taint of every kind through `graph` and returns the F2/F3
/// findings, sorted and deduplicated on `(file, line, rule)` (keeping the
/// shortest path per identity). `pragmas` is keyed by workspace-relative
/// file path.
pub fn analyze(
    graph: &WorkspaceGraph,
    pragmas: &BTreeMap<String, Pragmas>,
    policy: &PathPolicy,
) -> Vec<Finding> {
    let mut best: BTreeMap<(String, u32, RuleId), Finding> = BTreeMap::new();

    for kind in ALL_KINDS {
        // Seed selection: the first unsuppressed fact per node.
        let mut seed: Vec<Option<(u32, String)>> = vec![None; graph.fns.len()];
        for (i, node) in graph.fns.iter().enumerate() {
            if inert(policy, &node.file) || boundary(node, kind) {
                continue;
            }
            let suppressed = |line: u32| {
                pragmas
                    .get(&node.file)
                    .is_some_and(|p| p.suppresses(kind.rule(), line))
            };
            seed[i] = facts_of(node, kind)
                .iter()
                .find(|(line, _)| !suppressed(*line))
                .cloned();
        }

        // BFS callee→caller with parent tracking. Seeds enter in index
        // order, so ties break deterministically toward the lowest-indexed
        // (first-by-file-and-line) path.
        let mut origin: Vec<Option<(usize, Option<usize>)>> = vec![None; graph.fns.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for (i, s) in seed.iter().enumerate() {
            if s.is_some() {
                origin[i] = Some((i, None));
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            for &caller in graph.callers_of(i) {
                let node = &graph.fns[caller];
                if origin[caller].is_some() || inert(policy, &node.file) || boundary(node, kind) {
                    continue;
                }
                origin[caller] = Some((origin[i].as_ref().unwrap().0, Some(i)));
                queue.push_back(caller);
            }
        }

        // Report tainted sinks, and tainted functions feeding a sink they
        // call directly (value-into-sink direction).
        for (i, o) in origin.iter().enumerate() {
            let Some((seed_node, _)) = o else { continue };
            let node = &graph.fns[i];
            let mut sink_idx: Option<usize> = None;
            if is_sink(node) && !boundary(node, kind) {
                sink_idx = Some(i);
            } else {
                for callee in graph.internal_callees_of(i) {
                    let s = &graph.fns[callee];
                    if is_sink(s) && !boundary(s, kind) && !inert(policy, &s.file) {
                        sink_idx = Some(callee);
                        break;
                    }
                }
            }
            let Some(sink) = sink_idx else { continue };

            // Reconstruct seed→i via parent pointers, then append the
            // directly-called sink if it is not `i` itself.
            let mut chain = vec![i];
            let mut cur = i;
            while let Some((_, Some(parent))) = &origin[cur] {
                chain.push(*parent);
                cur = *parent;
            }
            chain.reverse();
            if sink != i {
                chain.push(sink);
            }
            let path: Vec<String> = chain
                .iter()
                .map(|&n| {
                    let f = &graph.fns[n];
                    format!("{} ({}:{})", f.qual(), f.file, f.line)
                })
                .collect();

            let seed_fn = &graph.fns[*seed_node];
            let (seed_line, seed_token) = seed[*seed_node].clone().unwrap();
            let finding = Finding {
                file: seed_fn.file.clone(),
                line: seed_line,
                rule: kind.rule(),
                message: format!(
                    "{} taint from `{}` in `{}` reaches report sink `{}` through {} call(s)",
                    kind.label(),
                    seed_token,
                    seed_fn.qual(),
                    graph.fns[sink].qual(),
                    path.len().saturating_sub(1),
                ),
                path,
            };
            let key = (finding.file.clone(), finding.line, finding.rule);
            match best.get(&key) {
                Some(prev) if prev.path.len() <= finding.path.len() => {}
                _ => {
                    best.insert(key, finding);
                }
            }
        }
    }

    let mut findings: Vec<Finding> = best.into_values().collect();
    findings.sort();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{items, WorkspaceGraph};
    use crate::pragma;
    use crate::scanner::scan;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        run_with_policy(files, &PathPolicy::default())
    }

    fn run_with_policy(files: &[(&str, &str)], policy: &PathPolicy) -> Vec<Finding> {
        let mut raws = Vec::new();
        let mut pragmas = BTreeMap::new();
        for (path, src) in files {
            let scanned = scan(src);
            pragmas.insert(path.to_string(), pragma::collect(&scanned));
            raws.push(items::extract_file(path, &scanned.tokens));
        }
        analyze(&WorkspaceGraph::build(raws), &pragmas, policy)
    }

    #[test]
    fn map_iteration_needs_a_sorting_boundary() {
        let dirty = "fn rows(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().cloned().collect() }\n\
                     fn render_rows(m: &HashMap<u32, u32>) { let r = rows(m); }";
        let f = run(&[("crates/x/src/lib.rs", dirty)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::F2);

        let sorted = "fn rows(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                      let mut v: Vec<u32> = m.keys().cloned().collect(); v.sort(); v }\n\
                      fn render_rows(m: &HashMap<u32, u32>) { let r = rows(m); }";
        assert!(run(&[("crates/x/src/lib.rs", sorted)]).is_empty());
    }

    #[test]
    fn env_read_reaching_a_d2_scope_file_is_f3() {
        let src =
            "fn workers() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }";
        // The same function is a sink only in a file that denies unordered
        // maps: the D2 attribute, not the path, marks a report module.
        assert!(run(&[("crates/x/src/lib.rs", src)]).is_empty());
        let f = run(&[(
            "crates/x/src/lib.rs",
            &format!("#![deny(clippy::disallowed_types)]\n{src}"),
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::F3);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].path.len(), 1);
    }

    #[test]
    fn pragma_at_seed_line_suppresses_flow_finding() {
        let f = run(&[(
            "crates/x/src/lib.rs",
            "#![deny(clippy::disallowed_types)]\n\
             fn workers() -> usize {\n\
             // fdn-lint: allow(F3) -- worker count never reaches report bytes\n\
             std::thread::available_parallelism().map_or(1, |n| n.get())\n\
             }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn tainted_fn_calling_a_sink_directly_is_flagged() {
        // Value-into-sink direction: the seed fn is never *called by* the
        // sink, it calls the sink itself.
        let f = run(&[(
            "crates/x/src/lib.rs",
            "fn render_report(x: u64) {}\n\
             fn driver() { let n = std::env::var(\"N\"); render_report(0); }",
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::F3);
        assert_eq!(f[0].path.len(), 2);
    }

    #[test]
    fn test_paths_are_inert_without_apply_all_rules() {
        let files = [(
            "crates/x/tests/gate.rs",
            "fn helper_env() -> usize { std::env::var(\"N\").map_or(0, |v| v.len()) }\n\
             fn render_cells() { let x = helper_env(); }",
        )];
        assert!(run(&files).is_empty());
        let policy = PathPolicy {
            apply_all_rules: true,
        };
        assert_eq!(run_with_policy(&files, &policy).len(), 1);
    }

    #[test]
    fn shortest_path_wins_per_identity() {
        let f = run(&[(
            "crates/x/src/lib.rs",
            "fn helper_env() -> usize { std::env::var(\"N\").map_or(0, |v| v.len()) }\n\
             fn mid() -> usize { helper_env() }\n\
             fn render_a() { let x = mid(); }\n\
             fn render_direct() { let x = helper_env(); }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        // Both sinks are reachable; the finding keeps the 2-hop path.
        assert_eq!(f[0].path.len(), 2);
    }

    #[test]
    fn roles_describe_sources_boundaries_and_sinks() {
        let mut raws = Vec::new();
        for (path, src) in [
            (
                "crates/x/src/report.rs",
                "#![deny(clippy::disallowed_types)]\npub fn summary() {}",
            ),
            (
                "crates/x/src/plan.rs",
                "pub fn workers() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }",
            ),
            (
                "crates/x/src/rows.rs",
                "fn rows(m: &HashMap<u32, u32>) -> Vec<u32> {\n\
                 let mut v: Vec<u32> = m.keys().cloned().collect(); v.sort(); v }",
            ),
        ] {
            raws.push(items::extract_file(path, &scan(src).tokens));
        }
        let g = WorkspaceGraph::build(raws);
        let r = roles(&g, &PathPolicy::default());
        let of = |name: &str| {
            let i = g.fns.iter().position(|n| n.name == name).unwrap();
            r[i].clone()
        };
        assert_eq!(of("summary"), vec!["sink".to_string()]);
        assert_eq!(of("workers"), vec!["source:environment".to_string()]);
        assert_eq!(of("rows"), vec!["boundary:map-iteration-order".to_string()]);
    }
}
