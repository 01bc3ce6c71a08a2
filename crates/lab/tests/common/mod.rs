//! Helpers shared by the integration tests that drive the `fdn-lab` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory under the target tree, unique per test.
pub fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the fdn-lab binary with the given arguments and environment
/// overrides, returning the full output (the harness builds the binary for
/// integration tests and exposes its path via `CARGO_BIN_EXE_fdn-lab`).
pub fn fdn_lab(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fdn-lab"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn fdn-lab")
}

/// Reads the `STEM.{json,csv,md}` artifacts of a run in `dir`. The markdown
/// header records the wall clock, so its line is dropped; JSON and CSV are
/// returned without any allowance.
#[allow(dead_code, reason = "not every test file compares report artifacts")]
pub fn report_artifacts(dir: &Path, stem: &str) -> Vec<(String, Vec<u8>)> {
    ["json", "csv", "md"]
        .iter()
        .map(|ext| {
            let bytes = std::fs::read(dir.join(format!("{stem}.{ext}"))).expect("read artifact");
            let bytes = if *ext == "md" {
                String::from_utf8(bytes)
                    .unwrap()
                    .lines()
                    .filter(|l| !l.starts_with("Wall clock:"))
                    .collect::<Vec<_>>()
                    .join("\n")
                    .into_bytes()
            } else {
                bytes
            };
            (ext.to_string(), bytes)
        })
        .collect()
}
