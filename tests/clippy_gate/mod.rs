//! Runs `cargo clippy` the way the workspace does — its lint tables, its
//! `clippy.toml` — on sources outside the workspace build, and reads back the
//! diagnostics. Shared by `tests/lint_gate.rs` and
//! `tests/scanner_edge_cases.rs`.

use fdn_lab::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus};

/// The workspace root (the root package's manifest directory).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A `cargo clippy` command that reads the workspace's `clippy.toml` and
/// builds into its own target directory under `CARGO_TARGET_TMPDIR`.
pub fn cargo_clippy(target: &str) -> Command {
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

/// One compiler diagnostic anchored in a source file.
pub struct Diagnostic {
    /// The file name of the primary span, without its directory.
    pub file: String,
    pub line: u32,
    /// The lint or error code; empty for an error without one, such as a
    /// parse error.
    pub lint: String,
    pub level: String,
    /// The human-readable rendering, as clippy prints it.
    pub rendered: String,
}

/// What one clippy run on a throwaway package reported.
pub struct ClippyRun {
    /// Every diagnostic with a primary span, in the order clippy emitted
    /// them.
    pub diagnostics: Vec<Diagnostic>,
    pub status: ExitStatus,
    pub stderr: String,
}

/// Runs clippy on a throwaway package `tag` whose library root is `lib`, with
/// the root manifest's lint tables as its own, the root `clippy.toml`, and
/// the vendored `rand` as its one dependency.
pub fn clippy_package(tag: &str, lib: &Path) -> ClippyRun {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let rand = workspace_root().join("crates/shims/rand");
    std::fs::write(
        dir.join("Cargo.toml"),
        format!(
            "[package]\nname = \"lint-gate-{tag}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             publish = false\n\n[workspace]\n\n[lib]\npath = {:?}\n\n\
             [dependencies]\nrand = {{ path = {:?} }}\n\n{}",
            lib.to_string_lossy(),
            rand.to_string_lossy(),
            workspace_lint_tables(),
        ),
    )
    .unwrap();
    let out = cargo_clippy(tag)
        .args([
            "--quiet",
            "--offline",
            "--message-format=json",
            "--manifest-path",
        ])
        .arg(dir.join("Cargo.toml"))
        .output()
        .expect("cargo clippy runs");
    let mut diagnostics = Vec::new();
    for line in String::from_utf8(out.stdout).unwrap().lines() {
        let msg = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        if msg.get("reason").and_then(Json::as_str) != Some("compiler-message") {
            continue;
        }
        let diag = msg.get("message").unwrap();
        let Some(span) = diag.get("spans").and_then(Json::as_arr).and_then(|spans| {
            spans
                .iter()
                .find(|s| s.get("is_primary") == Some(&Json::Bool(true)))
        }) else {
            continue;
        };
        let code = diag
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("");
        let text = |obj: &Json, key: &str| obj.get(key).and_then(Json::as_str).unwrap().to_string();
        let path = text(span, "file_name");
        diagnostics.push(Diagnostic {
            file: path.rsplit('/').next().unwrap().to_string(),
            line: span.get("line_start").and_then(Json::as_u64).unwrap() as u32,
            lint: code.to_string(),
            level: text(diag, "level"),
            rendered: text(diag, "rendered"),
        });
    }
    ClippyRun {
        diagnostics,
        status: out.status,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}
