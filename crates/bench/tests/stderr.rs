//! How the `report` binary treats a stderr whose reader has gone: its
//! diagnostics are skipped, and it exits with its own status.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stderr_keeps_the_usage_exit_code() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_report"))
        .arg("e9")
        .stdout(Stdio::null())
        .stderr(writer)
        .status()
        .expect("spawn report");
    assert_eq!(status.code(), Some(2));
}
