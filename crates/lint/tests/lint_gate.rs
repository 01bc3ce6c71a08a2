//! End-to-end tests of the lint gate: the `fdn-lint` binary's exit-code
//! contract and byte-deterministic reports, the seeded-violation fixture
//! under both `fdn-lint` and clippy, and the workspace self-scan that keeps
//! `cargo test` enforcing the whole determinism contract.

use fdn_lab::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs the `fdn-lint` binary (cargo builds it for integration tests and
/// exposes its path via `CARGO_BIN_EXE_fdn-lint`).
fn fdn_lint(args: &[&str], cwd: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fdn-lint"));
    cmd.args(args);
    if let Some(dir) = cwd {
        cmd.current_dir(dir);
    }
    cmd.output().expect("fdn-lint binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

/// The crate directory (where `tests/fixtures/` lives).
fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The workspace root, two levels up from `crates/lint`.
fn workspace_root() -> PathBuf {
    crate_dir()
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

fn fixture_path() -> String {
    crate_dir()
        .join("tests/fixtures/violations.rs")
        .to_string_lossy()
        .into_owned()
}

/// A scratch directory unique to one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdn-lint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `cargo clippy` command that reads the workspace's `clippy.toml` and
/// builds into its own target directory under `CARGO_TARGET_TMPDIR`.
fn cargo_clippy(target: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.arg("clippy")
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join(target))
        .env("CLIPPY_CONF_DIR", workspace_root());
    cmd
}

/// The root manifest's `[workspace.lints.*]` tables, renamed to a package's
/// own `[lints.*]` tables.
fn workspace_lint_tables() -> String {
    let manifest = std::fs::read_to_string(workspace_root().join("Cargo.toml")).unwrap();
    let mut out = String::new();
    let mut keep = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            keep = line.starts_with("[workspace.lints.");
        }
        if keep {
            out.push_str(&line.replacen("[workspace.lints.", "[lints.", 1));
            out.push('\n');
        }
    }
    assert!(
        out.contains("[lints.clippy]"),
        "no lint tables found:\n{manifest}"
    );
    out
}

#[test]
fn violation_fixture_trips_every_rule_and_exits_2() {
    let out = fdn_lint(
        &["--apply-all-rules", "--format", "json", &fixture_path()],
        None,
    );
    assert_eq!(out.status.code(), Some(2), "seeded violations must gate");
    let json = stdout(&out);
    for rule in ["F2", "F3", "P1"] {
        assert!(
            json.contains(&format!("\"rule\": \"{rule}\"")),
            "fixture must trip {rule}; report was:\n{json}"
        );
    }
    // The sorting boundary is honoured: exactly one F2 (the unsorted pair),
    // not two — `stable_rows`/`render_sorted_rows` stays out of the report.
    assert_eq!(json.matches("\"rule\": \"F2\"").count(), 1);
    // Two F3s: the helper pair, and the read after the string-smuggled
    // pragma in `render_decoys`, which must not suppress it.
    assert_eq!(json.matches("\"rule\": \"F3\"").count(), 2, "{json}");
    // Flow findings carry their call path for `fdn-lint why`.
    assert!(json.contains("\"path\": ["), "{json}");
    assert!(json.contains("shard_width_from_env"), "{json}");
    assert!(json.contains("render_shard_plan"), "{json}");
    // Decoys stay invisible: reads in comments and strings seed nothing, so
    // the only finding in `render_decoys` is its last line.
    let decoys = json.matches("render_decoys` reaches").count();
    assert_eq!(decoys, 1, "{json}");
}

/// Runs clippy on a throwaway package whose library is the fixture, with the
/// root manifest's lint tables as its own and the root `clippy.toml`, and
/// returns `(line, lint, level)` for every diagnostic with a lint code in the
/// fixture.
fn clippy_fixture_diagnostics() -> (BTreeSet<(u32, String, String)>, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixture");
    std::fs::create_dir_all(&dir).unwrap();
    let rand = workspace_root().join("crates/shims/rand");
    std::fs::write(
        dir.join("Cargo.toml"),
        format!(
            "[package]\nname = \"fdn-lint-fixture\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             publish = false\n\n[workspace]\n\n[lib]\npath = {:?}\n\n\
             [dependencies]\nrand = {{ path = {:?} }}\n\n{}",
            fixture_path(),
            rand.to_string_lossy(),
            workspace_lint_tables(),
        ),
    )
    .unwrap();
    let out = cargo_clippy("clippy-fixture")
        .args([
            "--quiet",
            "--offline",
            "--message-format=json",
            "--manifest-path",
        ])
        .arg(dir.join("Cargo.toml"))
        .output()
        .expect("cargo clippy runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let mut found = BTreeSet::new();
    for line in String::from_utf8(out.stdout).unwrap().lines() {
        let msg = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        if msg.get("reason").and_then(Json::as_str) != Some("compiler-message") {
            continue;
        }
        let diag = msg.get("message").unwrap();
        let Some(code) = diag
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::as_str)
        else {
            continue;
        };
        let span = diag
            .get("spans")
            .and_then(Json::as_arr)
            .and_then(|spans| {
                spans
                    .iter()
                    .find(|s| s.get("is_primary") == Some(&Json::Bool(true)))
            })
            .unwrap();
        if span
            .get("file_name")
            .and_then(Json::as_str)
            .is_some_and(|f| f.ends_with("violations.rs"))
        {
            found.insert((
                span.get("line_start").and_then(Json::as_u64).unwrap() as u32,
                code.to_string(),
                diag.get("level")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            ));
        }
    }
    (found, stderr)
}

#[test]
fn clippy_rejects_every_lexical_trip_in_the_fixture() {
    // The fixture marks each line clippy must reject with the lints it must
    // raise; anything else — a trip that stops firing, a level that drops to
    // a warning, a reasoned `#[expect]` that stops suppressing, or a lint
    // that fires where the configuration allows it — fails the test.
    let source = std::fs::read_to_string(fixture_path()).unwrap();
    let mut expected = BTreeSet::new();
    for (i, line) in source.lines().enumerate() {
        let code_line = !line.trim_start().starts_with("//");
        if let Some((_, lints)) = line.split_once("// trips: ").filter(|_| code_line) {
            for lint in lints.split(", ") {
                expected.insert((i as u32 + 1, lint.to_string(), "error".to_string()));
            }
        }
    }
    for lint in [
        "clippy::disallowed_methods",
        "clippy::disallowed_types",
        "clippy::float_arithmetic",
        "clippy::cast_precision_loss",
        "clippy::print_stdout",
        "clippy::print_stderr",
        "unsafe_code",
        "clippy::allow_attributes_without_reason",
        "unfulfilled_lint_expectations",
    ] {
        assert!(
            expected.iter().any(|(_, l, _)| l == lint),
            "the fixture no longer trips {lint}"
        );
    }
    let (found, stderr) = clippy_fixture_diagnostics();
    assert_eq!(
        found, expected,
        "clippy on the fixture disagrees with its markers:\n{stderr}"
    );
}

#[test]
fn json_report_is_byte_deterministic() {
    let args = ["--apply-all-rules", "--format", "json", &fixture_path()];
    let a = fdn_lint(&args, None);
    let b = fdn_lint(&args, None);
    assert_eq!(a.stdout, b.stdout, "same scan, different bytes");
    assert_eq!(a.status.code(), b.status.code());
}

#[test]
fn workspace_self_scan_is_clean() {
    let root = workspace_root();
    let out = fdn_lint(&["--format", "json"], Some(&root));
    let json = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the workspace must pass the flow rules:\n{json}"
    );
    assert!(json.contains("\"findings\": []"), "no findings:\n{json}");
    // The lexical rules D1–D6 are clippy lints at deny level, so a plain
    // run (no `-D warnings`) fails exactly on the determinism contract.
    let out = cargo_clippy("clippy-workspace")
        .args(["--quiet", "--workspace", "--all-targets", "--locked"])
        .current_dir(&root)
        .output()
        .expect("cargo clippy runs");
    assert!(
        out.status.success(),
        "cargo clippy --workspace --all-targets must pass:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn workspace_walk_covers_every_source_tree() {
    // Independent enumeration of the real tree, applying only the
    // *documented* exclusions (target/, dot-dirs, tests/fixtures). If
    // `discover` ever diverges — a new skip rule, a missed directory class —
    // this test names the exact paths that fell out of (or crept into) the
    // lint gate.
    fn enumerate(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                if name == "fixtures" && dir.file_name().is_some_and(|d| d == "tests") {
                    continue;
                }
                enumerate(&path, out);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }

    let root = workspace_root();
    let mut expected = Vec::new();
    enumerate(&root, &mut expected);
    expected.sort();
    let walked = fdn_lint::discover(&root).unwrap();
    let to_rel = |ps: &[PathBuf]| {
        ps.iter()
            .map(|p| fdn_lint::relative(&root, p))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        to_rel(&walked),
        to_rel(&expected),
        "discover() and the documented exclusion rules disagree"
    );

    // Document (and defend) one representative per covered source tree:
    // root crate, root examples/, root tests/, crate tests/, benches/,
    // bin targets and the vendored shims are all inside the gate.
    let rels = to_rel(&walked);
    for must_cover in [
        "src/lib.rs",
        "examples/quickstart.rs",
        "tests/equivalence.rs",
        "crates/core/tests/construction.rs",
        "crates/bench/benches/end_to_end.rs",
        "crates/bench/src/bin/report.rs",
        "crates/shims/rand/src/lib.rs",
    ] {
        assert!(
            rels.contains(&must_cover.to_string()),
            "walk lost {must_cover}"
        );
    }
    assert!(
        !rels.iter().any(|r| r.contains("tests/fixtures/")),
        "the seeded-violation corpus must stay out of the default walk"
    );
}

#[test]
fn markdown_report_carries_the_rule_table() {
    let out = fdn_lint(
        &["--apply-all-rules", "--format", "md", &fixture_path()],
        None,
    );
    let md = stdout(&out);
    for rule in ["F2", "F3", "P1"] {
        assert!(md.contains(&format!("| {rule} |")), "rule table row {rule}");
    }
    assert!(md.contains("## Findings"));
    assert!(md.contains("violations.rs"));
}

#[test]
fn github_format_emits_workflow_error_annotations() {
    let out = fdn_lint(
        &["--apply-all-rules", "--format", "github", &fixture_path()],
        None,
    );
    assert_eq!(out.status.code(), Some(2));
    let text = stdout(&out);
    assert!(
        text.lines().any(|l| l.starts_with("::error file=")),
        "expected ::error annotations, got:\n{text}"
    );
    // Every annotation carries a line= property and a rule title.
    for line in text.lines().filter(|l| l.starts_with("::error")) {
        assert!(line.contains(",line="), "{line}");
        assert!(line.contains(",title="), "{line}");
    }
    // Flow findings append their call path to the annotation message.
    assert!(text.contains("[path:"), "{text}");
}

#[test]
fn graph_export_is_byte_deterministic_and_well_formed() {
    let root = workspace_root();
    let a = fdn_lint(&["graph", "--format", "json"], Some(&root));
    let b = fdn_lint(&["graph", "--format", "json"], Some(&root));
    assert_eq!(a.status.code(), Some(0));
    assert_eq!(a.stdout, b.stdout, "same workspace, different graph bytes");
    let json = stdout(&a);
    for key in ["\"tool\": \"fdn-lint-graph\"", "\"fns\":", "\"edges\":"] {
        assert!(json.contains(key), "missing {key}");
    }
    // The flow roles ride along so the export documents the taint model.
    assert!(json.contains("\"sink\""), "{}", &json[..500]);

    let dot = fdn_lint(&["graph", "--format", "dot"], Some(&root));
    assert_eq!(dot.status.code(), Some(0));
    assert!(stdout(&dot).starts_with("digraph"));
}

#[test]
fn why_prints_the_source_to_sink_path() {
    let dir = scratch("why");
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(
        src.join("lib.rs"),
        "fn helper_env() -> usize { std::env::var(\"N\").map_or(0, |v| v.len()) }\n\
         fn render_cells() -> usize { helper_env() }\n",
    )
    .unwrap();

    let root = dir.to_string_lossy().into_owned();
    let out = fdn_lint(&["why", "--root", &root, "src/lib.rs:1"], Some(&dir));
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("[F3]"), "{text}");
    assert!(text.contains("source"), "{text}");
    assert!(text.contains("via"), "{text}");
    assert!(text.contains("render_cells"), "{text}");

    // A location with no flow finding says so instead of printing nothing.
    let out = fdn_lint(&["why", "--root", &root, "src/lib.rs:99"], Some(&dir));
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("no flow finding anchored at"));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_and_list_rules_succeed() {
    for flag in ["--help", "--list-rules"] {
        let out = fdn_lint(&[flag], None);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(stdout(&out).contains("F2"));
    }
}
