//! End-to-end tests of the `fdn-lint` binary: the exit-code gate contract,
//! byte-determinism of the JSON report, the seeded-violation fixture, and
//! the baseline add/remove round-trip.

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

#[test]
fn violation_fixture_trips_every_rule_and_exits_2() {
    let out = fdn_lint(
        &[
            "--apply-all-rules",
            "--no-baseline",
            "--format",
            "json",
            &fixture_path(),
        ],
        None,
    );
    assert_eq!(out.status.code(), Some(2), "seeded violations must gate");
    let json = stdout(&out);
    for rule in ["D1", "D2", "D3", "D4", "D5", "D6", "F1", "F2", "F3", "P1"] {
        assert!(
            json.contains(&format!("\"rule\": \"{rule}\"")),
            "fixture must trip {rule}; report was:\n{json}"
        );
    }
    // The justified suppression is honoured: exactly one D6 finding (the
    // bare `unsafe`), not two.
    assert_eq!(json.matches("\"rule\": \"D6\"").count(), 1);
    // The sorting boundary is honoured: exactly one F2 (the unsorted pair),
    // not two — `stable_rows`/`render_sorted_rows` stays out of the report.
    assert_eq!(json.matches("\"rule\": \"F2\"").count(), 1);
    // Flow findings carry their call path for `fdn-lint why`.
    assert!(json.contains("\"path\": ["), "{json}");
    assert!(json.contains("helper_now_pulses"), "{json}");
    assert!(json.contains("render_cells"), "{json}");
    // Decoys stay invisible: nothing is reported from the comment/string
    // section of the fixture except the deliberately-unsuppressed println.
    assert!(!json.contains("is invisible"));
}

#[test]
fn json_report_is_byte_deterministic() {
    let args = [
        "--apply-all-rules",
        "--no-baseline",
        "--format",
        "json",
        &fixture_path(),
    ];
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
        "the workspace must lint clean against its committed baseline:\n{json}"
    );
    assert!(
        json.contains("\"new\": 0"),
        "no unbaselined findings:\n{json}"
    );
    // The committed baseline is meant to stay (near-)empty and fresh.
    assert!(
        json.contains("\"stale_baseline_entries\": []"),
        "stale baseline entries should be removed:\n{json}"
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
fn baseline_round_trip_add_and_remove() {
    let dir = scratch("baseline");
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    let file = src.join("engine.rs");
    std::fs::write(&file, "fn f() { let t = std::time::Instant::now(); }\n").unwrap();

    let root = dir.to_string_lossy().into_owned();
    // Fresh violation, no baseline: exit 2.
    let out = fdn_lint(&["--root", &root, "--format", "json"], Some(&dir));
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).contains("\"rule\": \"D1\""));

    // Grandfather it.
    let out = fdn_lint(&["--root", &root, "--write-baseline"], Some(&dir));
    assert_eq!(out.status.code(), Some(0));
    let baseline_text = std::fs::read_to_string(dir.join("lint-baseline.json")).unwrap();
    assert!(baseline_text.contains("\"rule\": \"D1\""));

    // Same scan now passes, finding reported as baselined.
    let out = fdn_lint(&["--root", &root, "--format", "json"], Some(&dir));
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("\"status\": \"baselined\""));

    // A *new* violation on another line still gates.
    std::fs::write(
        &file,
        "fn f() { let t = std::time::Instant::now(); }\nfn g() { println!(\"hi\"); }\n",
    )
    .unwrap();
    let out = fdn_lint(&["--root", &root, "--format", "json"], Some(&dir));
    assert_eq!(out.status.code(), Some(2));
    let json = stdout(&out);
    assert!(json.contains("\"new\": 1"), "{json}");
    assert!(json.contains("\"baselined\": 1"), "{json}");

    // Fixing the grandfathered violation leaves its entry stale (reported,
    // not fatal).
    std::fs::write(&file, "fn f() {}\n").unwrap();
    let out = fdn_lint(&["--root", &root, "--format", "json"], Some(&dir));
    assert_eq!(out.status.code(), Some(0));
    let json = stdout(&out);
    assert!(json.contains("\"stale_baseline_entries\": [\n"), "{json}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn markdown_report_carries_the_rule_table() {
    let out = fdn_lint(
        &[
            "--apply-all-rules",
            "--no-baseline",
            "--format",
            "md",
            &fixture_path(),
        ],
        None,
    );
    let md = stdout(&out);
    for rule in ["D1", "D2", "D3", "D4", "D5", "D6", "F1", "F2", "F3", "P1"] {
        assert!(md.contains(&format!("| {rule} |")), "rule table row {rule}");
    }
    assert!(md.contains("## Findings"));
    assert!(md.contains("violations.rs"));
}

#[test]
fn github_format_emits_workflow_error_annotations() {
    let out = fdn_lint(
        &[
            "--apply-all-rules",
            "--no-baseline",
            "--format",
            "github",
            &fixture_path(),
        ],
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
fn prune_baseline_drops_stale_entries_and_keeps_live_ones() {
    let dir = scratch("prune");
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    let file = src.join("engine.rs");
    std::fs::write(
        &file,
        "fn f() { let t = std::time::Instant::now(); }\nfn g() { println!(\"hi\"); }\n",
    )
    .unwrap();

    let root = dir.to_string_lossy().into_owned();
    // Grandfather both findings, then fix only the D1.
    let out = fdn_lint(&["--root", &root, "--write-baseline"], Some(&dir));
    assert_eq!(out.status.code(), Some(0));
    std::fs::write(&file, "fn f() {}\nfn g() { println!(\"hi\"); }\n").unwrap();

    // Prune: the stale D1 entry is dropped, the live D5 entry survives.
    let out = fdn_lint(
        &["--root", &root, "--prune-baseline", "--format", "json"],
        Some(&dir),
    );
    assert_eq!(out.status.code(), Some(0));
    let baseline_text = std::fs::read_to_string(dir.join("lint-baseline.json")).unwrap();
    assert!(
        !baseline_text.contains("\"rule\": \"D1\""),
        "{baseline_text}"
    );
    assert!(
        baseline_text.contains("\"rule\": \"D5\""),
        "{baseline_text}"
    );
    // The same scan's report sees no stale entries after the rewrite.
    assert!(stdout(&out).contains("\"stale_baseline_entries\": []"));

    // Round-trip: pruning again is a no-op on the file bytes.
    let before = std::fs::read(dir.join("lint-baseline.json")).unwrap();
    let out = fdn_lint(&["--root", &root, "--prune-baseline"], Some(&dir));
    assert_eq!(out.status.code(), Some(0));
    let after = std::fs::read(dir.join("lint-baseline.json")).unwrap();
    assert_eq!(before, after, "idempotent prune must not rewrite bytes");

    // --prune-baseline conflicts with the other baseline modes.
    let out = fdn_lint(
        &["--root", &root, "--prune-baseline", "--write-baseline"],
        Some(&dir),
    );
    assert_eq!(out.status.code(), Some(1));

    std::fs::remove_dir_all(&dir).unwrap();
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
        "fn helper_now() -> u64 { let t = std::time::Instant::now(); 0 }\n\
         fn render_cells() -> u64 { helper_now() }\n",
    )
    .unwrap();

    let root = dir.to_string_lossy().into_owned();
    let out = fdn_lint(&["why", "--root", &root, "src/lib.rs:1"], Some(&dir));
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("[F1]"), "{text}");
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
fn malformed_baseline_is_a_usage_error_not_a_gate_result() {
    let dir = scratch("badbase");
    std::fs::write(dir.join("lib.rs"), "fn ok() {}\n").unwrap();
    std::fs::write(dir.join("lint-baseline.json"), "{ not json").unwrap();
    let root = dir.to_string_lossy().into_owned();
    let out = fdn_lint(&["--root", &root], Some(&dir));
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn baseline_lines_are_read_exactly_or_rejected() {
    // A baseline line that is a real finding's line plus 2^32, or plus one
    // half, is malformed: it must neither wrap nor truncate onto the finding
    // and grandfather it.
    let dir = scratch("inexact-lines");
    let path = dir.join("lint-baseline.json");
    let baseline = path.to_string_lossy().into_owned();
    let fixture = fixture_path();
    let scan = ["--apply-all-rules", "--baseline", &baseline, &fixture];
    let out = fdn_lint(&[&scan[..], &["--write-baseline"]].concat(), None);
    assert_eq!(out.status.code(), Some(0));
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(fdn_lint(&scan, None).status.code(), Some(0));
    for shift in [
        |n: u64| (n + (1 << 32)).to_string(),
        |n: u64| format!("{n}.5"),
    ] {
        let shifted: Vec<String> = written
            .lines()
            .map(|l| match l.split_once("\"line\": ") {
                Some((head, n)) => {
                    let n: u64 = n.trim_end_matches(',').parse().unwrap();
                    format!("{head}\"line\": {},", shift(n))
                }
                None => l.to_string(),
            })
            .collect();
        std::fs::write(&path, shifted.join("\n")).unwrap();
        let out = fdn_lint(&scan, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains("field `line` is not an integer in range"),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_and_list_rules_succeed() {
    for flag in ["--help", "--list-rules"] {
        let out = fdn_lint(&[flag], None);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(stdout(&out).contains("D1"));
    }
}
