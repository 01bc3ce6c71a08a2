//! The lint gate: the seeded-violation fixture must fail clippy exactly where
//! its markers say, and the workspace must pass it with every source file
//! linted, so `cargo test` enforces the whole determinism contract (D1–D7).

mod clippy_gate;

use clippy_gate::{cargo_clippy, clippy_package, workspace_root};
use fdn_lab::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture_path() -> PathBuf {
    workspace_root().join("tests/fixtures/violations.rs")
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
    let run = clippy_package("clippy-fixture", &fixture_path());
    let found: BTreeSet<_> = run
        .diagnostics
        .iter()
        .filter(|d| d.file == "violations.rs")
        .map(|d| (d.line, d.lint.clone(), d.level.clone()))
        .collect();
    assert_eq!(
        found, expected,
        "clippy on the fixture disagrees with its markers:\n{}",
        run.stderr
    );
}

#[test]
fn workspace_self_scan_is_clean() {
    // The determinism rules D1–D7 are clippy lints at deny level, so a plain
    // run (no `-D warnings`) fails exactly on the determinism contract.
    let out = cargo_clippy("clippy-workspace")
        .args(["--quiet", "--workspace", "--all-targets", "--locked"])
        .current_dir(workspace_root())
        .output()
        .expect("cargo clippy runs");
    assert!(
        out.status.success(),
        "cargo clippy --workspace --all-targets must pass:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn json_report_is_byte_deterministic() {
    // Two clippy runs on the fixture, each in a fresh target directory, must
    // report the same diagnostics in the same order, byte for byte.
    let report = |tag: &str| {
        let _ = std::fs::remove_dir_all(Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag));
        let run = clippy_package(tag, &fixture_path());
        let rendered: Vec<_> = run.diagnostics.into_iter().map(|d| d.rendered).collect();
        (run.status.code(), rendered)
    };
    let a = report("clippy-fixture-a");
    assert!(!a.1.is_empty(), "the fixture must trip the gate");
    assert_eq!(a, report("clippy-fixture-b"), "same scan, different bytes");
}

#[test]
fn workspace_walk_covers_every_source_tree() {
    // Independent enumeration of the real tree, applying only the
    // documented exclusions: target/, dot-dirs, tests/fixtures, and
    // perfbench/ (its own package, with its own clippy step in CI). It must
    // equal the set of files `cargo clippy --workspace --all-targets`
    // compiles, read from that run's dep-info files. A file no target
    // reaches, or a crate that leaves the workspace, would escape the gate;
    // this test names the exact paths that fell out of (or crept into) it.
    fn enumerate(root: &Path, dir: &Path, out: &mut BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let skipped = name == "target"
                || name.starts_with('.')
                || path.ends_with("tests/fixtures")
                || path == root.join("perfbench");
            if path.is_dir() {
                if !skipped {
                    enumerate(root, &path, out);
                }
            } else if name.ends_with(".rs") {
                out.insert(relative(root, &path));
            }
        }
    }
    fn relative(root: &Path, path: &Path) -> String {
        let rel = path.strip_prefix(root).unwrap_or(path);
        rel.to_string_lossy().replace('\\', "/")
    }

    let root = workspace_root();
    let mut expected = BTreeSet::new();
    enumerate(&root, &root, &mut expected);

    let out = cargo_clippy("clippy-workspace")
        .args([
            "--quiet",
            "--workspace",
            "--all-targets",
            "--locked",
            "--message-format=json",
        ])
        .current_dir(&root)
        .output()
        .expect("cargo clippy runs");
    assert!(
        out.status.success(),
        "cargo clippy --workspace --all-targets must pass:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut linted = BTreeSet::new();
    for line in String::from_utf8(out.stdout).unwrap().lines() {
        let msg = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        if msg.get("reason").and_then(Json::as_str) != Some("compiler-artifact") {
            continue;
        }
        let filenames = msg.get("filenames").and_then(Json::as_arr).unwrap();
        for rmeta in filenames.iter().filter_map(Json::as_str).map(Path::new) {
            // `deps/lib<unit>.rmeta` has its dep-info in `deps/<unit>.d`,
            // whose first line lists every source file of the unit.
            let name = rmeta.file_name().unwrap().to_string_lossy();
            let Some(unit) = name
                .strip_prefix("lib")
                .and_then(|n| n.strip_suffix(".rmeta"))
            else {
                continue;
            };
            let dep_info = std::fs::read_to_string(rmeta.with_file_name(format!("{unit}.d")))
                .unwrap_or_else(|e| panic!("dep-info of {}: {e}", rmeta.display()));
            let (_, sources) = dep_info.lines().next().unwrap().split_once(": ").unwrap();
            for source in sources.split(' ').filter(|s| s.ends_with(".rs")) {
                linted.insert(relative(&root, &root.join(source)));
            }
        }
    }
    let escaped: Vec<_> = expected.difference(&linted).collect();
    assert!(escaped.is_empty(), "no clippy target reaches {escaped:?}");
    let crept_in: Vec<_> = linted.difference(&expected).collect();
    assert!(
        crept_in.is_empty(),
        "clippy lints {crept_in:?}, which the exclusion rules leave out"
    );

    // Document (and defend) one representative per covered source tree:
    // root crate, root examples/, root tests/, crate tests/, benches/,
    // bin targets and the vendored shims are all inside the gate; the
    // seeded-violation corpus in tests/fixtures stays out of it.
    for must_cover in [
        "src/lib.rs",
        "examples/quickstart.rs",
        "tests/equivalence.rs",
        "crates/core/tests/construction.rs",
        "crates/bench/benches/end_to_end.rs",
        "crates/bench/src/bin/report.rs",
        "crates/shims/rand/src/lib.rs",
    ] {
        assert!(linted.contains(must_cover), "the gate lost {must_cover}");
    }
}
