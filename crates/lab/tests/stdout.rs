//! How the `fdn-lab` binary treats its output streams: a reader that
//! closes the stdout pipe early (`fdn-lab report … | head`) ends the command
//! quietly with its own exit status, and any other stdout write error is a
//! clean exit 1. A stderr that cannot be written is skipped.

mod common;

use std::io::Read as _;
use std::path::Path;
use std::process::{Command, Stdio};

use common::scratch;

/// Runs fdn-lab with `args`, reads the first bytes of its stdout, closes
/// the pipe and returns the exit code and stderr.
fn read_a_little(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fdn-lab"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fdn-lab");
    let mut head = [0u8; 16];
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_exact(&mut head)
        .expect("read the first bytes");
    let out = child.wait_with_output().expect("wait for fdn-lab");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_closed_pipe_ends_the_command_quietly() {
    let dir = scratch("a_closed_pipe_ends_the_command_quietly");
    let run = common::fdn_lab(
        &[
            "run",
            "--preset",
            "quick",
            "--modes",
            "cycle",
            "--seeds",
            "1",
            "--out",
            dir.to_str().expect("UTF-8 scratch path"),
        ],
        &[],
    );
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let report = dir.join("quick.json");
    // Both outputs are larger than a pipe's buffer, so the writer is still
    // writing when the pipe closes.
    assert!(std::fs::metadata(&report).expect("report").len() > 1 << 16);
    let input = report.to_str().expect("UTF-8 scratch path");
    for args in [
        &["report", "--input", input, "--format", "json"][..],
        &["list-scenarios", "--preset", "standard"],
    ] {
        let (code, stderr) = read_a_little(args);
        assert_eq!(code, Some(0), "fdn-lab {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "fdn-lab {args:?}: {stderr}");
    }
}

#[test]
fn a_closed_stderr_ends_the_command_quietly() {
    let dir = scratch("a_closed_stderr_ends_the_command_quietly");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fdn-lab"))
        .args([
            "run",
            "--preset",
            "quick",
            "--families",
            "figure3",
            "--modes",
            "cycle",
            "--seeds",
            "1",
            "--out",
            dir.to_str().expect("UTF-8 scratch path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fdn-lab");
    // Close the read end before the run writes its last diagnostic.
    drop(child.stderr.take());
    let status = child.wait().expect("wait for fdn-lab");
    assert_eq!(status.code(), Some(0));
    assert!(dir.join("quick.json").is_file());
}

#[test]
fn other_stdout_errors_exit_1_with_a_message() {
    let full = Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let out = Command::new(env!("CARGO_BIN_EXE_fdn-lab"))
        .args(["list-scenarios", "--preset", "quick"])
        .stdout(
            std::fs::OpenOptions::new()
                .write(true)
                .open(full)
                .expect("open /dev/full"),
        )
        .output()
        .expect("spawn fdn-lab");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("fdn-lab: cannot write to stdout"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
