//! The `fdn-lint` command line: scan the workspace (or explicit paths) for
//! determinism-contract violations, export the call graph, or explain a
//! flow finding.
//!
//! ```text
//! fdn-lint [PATHS...] [--root DIR] [--format text|json|md|github]
//!          [--apply-all-rules] [--list-rules]
//! fdn-lint graph [--root DIR] [--format json|dot]
//! fdn-lint why FILE:LINE [--root DIR]
//! ```
//!
//! Exit codes mirror `fdn-lab diff`: 0 when there are no findings, 2 when
//! there are, 1 on usage or I/O errors.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "D5: the CLI writes reports to stdout and diagnostics to stderr"
)]

use std::path::{Path, PathBuf};

use fdn_lint::{
    build_graph, discover, flow, lint_sources, relative, LintReport, PathPolicy, ALL_RULES,
};

/// Exit code when findings are present.
const EXIT_FINDINGS: i32 = 2;

fn main() {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(clean) => {
            if !clean {
                std::process::exit(EXIT_FINDINGS);
            }
        }
        Err(e) => {
            eprintln!("fdn-lint: {e}");
            eprintln!("run `fdn-lint --help` for usage");
            std::process::exit(1);
        }
    }
}

/// Parsed command line of the default (scan) mode.
struct Options {
    /// Explicit files/directories to scan (workspace walk when empty).
    paths: Vec<PathBuf>,
    /// Workspace root: paths are reported relative to it.
    root: PathBuf,
    /// `text`, `json`, `md` or `github`.
    format: String,
    /// Analyze test, bench and example paths too (fixture/CI use).
    apply_all_rules: bool,
}

fn usage() -> String {
    let mut out = String::from(
        "fdn-lint — determinism static analysis for the fully-defective workspace\n\
         \n\
         Usage: fdn-lint [PATHS...] [flags]\n\
         \x20      fdn-lint graph [--root DIR] [--format json|dot]\n\
         \x20      fdn-lint why FILE:LINE [--root DIR]\n\
         \n\
         With no PATHS, scans every .rs file under --root (default: the\n\
         current directory), excluding target/, dot-directories and\n\
         tests/fixtures corpora. The flow rules (F2, F3) propagate taint over\n\
         the call graph of exactly the scanned file set. The lexical rules\n\
         D1-D6 are clippy lints: see clippy.toml and [workspace.lints].\n\
         \n\
         `graph` exports that call graph (byte-deterministic JSON or DOT);\n\
         `why` re-runs the scan and prints the source->sink path of every\n\
         flow finding anchored at FILE:LINE.\n\
         \n\
         Flags:\n\
        \x20 --root DIR          root that paths are reported relative to\n\
        \x20                     [default: .]\n\
        \x20 --format FMT        text | json | md | github [default: text]\n\
        \x20 --apply-all-rules   analyze test, bench and example paths too\n\
        \x20                     (fixture gate)\n\
        \x20 --list-rules        print the rule table and exit\n\
         \n\
         Suppression: `// fdn-lint: allow(F2, F3) -- <reason>` on (or above)\n\
         the offending line; the reason is mandatory.\n\
         Exit codes: 0 clean, 2 findings, 1 error.\n\
         \n\
         Rules:\n",
    );
    for rule in ALL_RULES {
        out.push_str(&format!("\x20 {}  {}\n", rule.name(), rule.title()));
    }
    out
}

fn parse(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        paths: Vec::new(),
        root: PathBuf::from("."),
        format: "text".to_string(),
        apply_all_rules: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return Ok(None);
            }
            "--list-rules" => {
                for rule in ALL_RULES {
                    println!("{}  {} — {}", rule.name(), rule.title(), rule.rationale());
                }
                return Ok(None);
            }
            "--root" => opts.root = PathBuf::from(value("--root")?),
            "--format" => {
                let f = value("--format")?;
                if !["text", "json", "md", "github"].contains(&f.as_str()) {
                    return Err(format!("unknown format `{f}` (text|json|md|github)"));
                }
                opts.format = f;
            }
            "--apply-all-rules" => opts.apply_all_rules = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    Ok(Some(opts))
}

/// Resolves the scanned file set — explicit paths (files or directories) or
/// the default workspace walk — and reads each file as a
/// `(workspace-relative path, text)` pair. Sorted either way: report bytes
/// must not depend on argument or directory-entry order.
fn collect_sources(root: &Path, paths: &[PathBuf]) -> Result<Vec<(String, String)>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    if paths.is_empty() {
        files = discover(root).map_err(|e| format!("walking {root:?}: {e}"))?;
    } else {
        for p in paths {
            if p.is_dir() {
                files.extend(discover(p).map_err(|e| format!("walking {p:?}: {e}"))?);
            } else {
                files.push(p.clone());
            }
        }
        files.sort();
        files.dedup();
    }
    files
        .iter()
        .map(|path| {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
            Ok((relative(root, path), source))
        })
        .collect()
}

/// Runs the requested mode; `Ok(true)` means the gate passed.
fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("graph") => return run_graph(&args[1..]),
        Some("why") => return run_why(&args[1..]),
        _ => {}
    }

    let Some(opts) = parse(args)? else {
        return Ok(true);
    };
    let sources = collect_sources(&opts.root, &opts.paths)?;
    let policy = PathPolicy {
        apply_all_rules: opts.apply_all_rules,
    };
    let report = LintReport::new(sources.len(), lint_sources(&sources, &policy));
    match opts.format.as_str() {
        "json" => print!("{}", report.to_json_string()),
        "md" => print!("{}", report.to_markdown()),
        "github" => print!("{}", report.to_github()),
        _ => print!("{}", report.to_text()),
    }
    Ok(report.is_clean())
}

/// `fdn-lint graph`: export the workspace call graph.
fn run_graph(args: &[String]) -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut format = "json".to_string();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--root" => root = PathBuf::from(value("--root")?),
            "--format" => {
                let f = value("--format")?;
                if !["json", "dot"].contains(&f.as_str()) {
                    return Err(format!("unknown graph format `{f}` (json|dot)"));
                }
                format = f;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    let sources = collect_sources(&root, &paths)?;
    let graph = build_graph(&sources);
    if format == "dot" {
        print!("{}", graph.to_dot());
    } else {
        let roles = flow::roles(&graph, &PathPolicy::default());
        print!("{}", graph.to_json_string(&roles));
    }
    Ok(true)
}

/// `fdn-lint why FILE:LINE`: print the source→sink path of every flow
/// finding anchored at that location.
fn run_why(args: &[String]) -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut target: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "--root requires a value".to_string())?,
                )
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            loc => target = Some(loc.to_string()),
        }
    }
    let target = target.ok_or_else(|| "why requires a FILE:LINE argument".to_string())?;
    let (file, line) = target
        .rsplit_once(':')
        .ok_or_else(|| format!("`{target}` is not FILE:LINE"))?;
    let line: u32 = line
        .parse()
        .map_err(|_| format!("`{target}` is not FILE:LINE"))?;

    let sources = collect_sources(&root, &[])?;
    let findings = lint_sources(&sources, &PathPolicy::default());
    let mut matched = false;
    for f in findings
        .iter()
        .filter(|f| f.file == file && f.line == line && !f.path.is_empty())
    {
        matched = true;
        println!("{}:{} [{}] {}", f.file, f.line, f.rule.name(), f.message);
        for (i, hop) in f.path.iter().enumerate() {
            println!("  {} {hop}", if i == 0 { "source" } else { "  via " });
        }
    }
    if !matched {
        println!("no flow finding anchored at {file}:{line}");
    }
    Ok(true)
}
