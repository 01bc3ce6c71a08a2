//! `fdn-lint` — the determinism flow analysis.
//!
//! This repository's reproduction of *Distributed Computations in
//! Fully-Defective Networks* rests on a byte-identity contract: campaign,
//! frontier and trace artifacts must be byte-identical across thread
//! counts, shard splits and reruns, because content-oblivious runs are only
//! comparable across schedulers and seeds if nothing nondeterministic leaks
//! into reports. CI enforces that contract *dynamically* with `cmp` gates
//! and *statically* in two layers. The lexical rules D1–D6 (wall clock,
//! unordered maps in report modules, RNG construction, float arithmetic in
//! accounting modules, printing, `unsafe`) are clippy and compiler lints,
//! configured in the root `clippy.toml` and `[workspace.lints]`. This crate
//! is the second layer: the flow rules the compiler cannot express.
//!
//! The tool is a zero-dependency (workspace-internal only) analyzer:
//! [`scanner`] tokenizes Rust sources with full awareness of comments,
//! strings, raw strings and char-vs-lifetime ambiguity; [`graph`] extracts
//! the workspace item/call graph from the token streams (`fdn-lint graph`
//! exports it as JSON or DOT); and [`flow`] propagates nondeterminism taint
//! from sources to report sinks along it, reporting rules F2 and F3 with
//! full source→sink paths (`fdn-lint why FILE:LINE`). A report sink is any
//! function in a module that starts with
//! `#![deny(clippy::disallowed_types)]`, or one named like a renderer.
//! [`pragma`] implements the inline `// fdn-lint: allow(<rule>) -- <reason>`
//! suppression form (reason mandatory; a malformed pragma is finding P1),
//! and [`report`] renders deterministic JSON, markdown, text and GitHub
//! annotations. Any finding exits with code 2 — the same gate contract as
//! `fdn-lab diff`.
//!
//! ```no_run
//! use fdn_lint::{lint_sources, LintReport, PathPolicy};
//!
//! let sources = vec![(
//!     "crates/lab/src/plan.rs".to_string(),
//!     "fn render_plan() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }"
//!         .to_string(),
//! )];
//! let findings = lint_sources(&sources, &PathPolicy::default());
//! let report = LintReport::new(sources.len(), findings);
//! assert!(!report.is_clean());
//! println!("{}", report.to_text());
//! ```

pub mod flow;
pub mod graph;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod scanner;
pub mod workspace;

pub use graph::{Callee, FnNode, WorkspaceGraph};
pub use pragma::{Pragma, Pragmas};
pub use report::LintReport;
pub use rules::{Finding, PathPolicy, RuleId, ALL_RULES};
pub use scanner::{scan, ScannedFile, Token, TokenKind};
pub use workspace::{discover, relative};

use graph::items::RawFile;
use std::collections::BTreeMap;

/// Extracts one scanned file's items from its test-mod-masked token stream,
/// so `#[cfg(test)]` modules contribute neither nodes nor edges.
fn extract(path: &str, scanned: &ScannedFile) -> RawFile {
    graph::items::extract_file(path, &scanner::mask_cfg_test(&scanned.tokens))
}

/// Builds the workspace call graph from `(path, source)` pairs.
pub fn build_graph(sources: &[(String, String)]) -> WorkspaceGraph {
    WorkspaceGraph::build(
        sources
            .iter()
            .map(|(path, text)| extract(path, &scanner::scan(text)))
            .collect(),
    )
}

/// Runs the full analysis — malformed pragmas per file, then the flow rules
/// over the whole file set's call graph — and returns the merged, sorted
/// findings. `sources` are `(workspace-relative path, text)` pairs; the
/// flow rules see exactly the files passed, so single-file invocations get
/// single-file graphs (the CI self-scan passes the whole workspace).
pub fn lint_sources(sources: &[(String, String)], policy: &PathPolicy) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut raws = Vec::new();
    let mut pragmas: BTreeMap<String, Pragmas> = BTreeMap::new();
    for (path, text) in sources {
        let scanned = scanner::scan(text);
        let file_pragmas = pragma::collect(&scanned);
        // P1 is never path-gated: a broken suppression is a hole wherever
        // it sits.
        findings.extend(file_pragmas.malformed.iter().map(|m| Finding {
            file: path.clone(),
            line: m.line,
            rule: RuleId::P1,
            message: format!("malformed fdn-lint pragma: {}", m.problem),
            path: Vec::new(),
        }));
        pragmas.insert(path.clone(), file_pragmas);
        raws.push(extract(path, &scanned));
    }
    findings.extend(flow::analyze(
        &WorkspaceGraph::build(raws),
        &pragmas,
        policy,
    ));
    findings.sort();
    findings
}
