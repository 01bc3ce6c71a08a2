//! Integration tests of `fdn-lab trace`: byte-determinism of the trace
//! artifacts across worker-thread counts, and the phase-marker contract
//! (construction markers are present in full mode and absent in replay
//! mode, whose simulation warm-starts past the construction).

mod common;

use std::path::Path;

use common::{fdn_lab, scratch};

/// A small but multi-cell selector: two families x two schedulers, full
/// engine, one seed per cell.
const SELECTOR: &[&str] = &[
    "--preset",
    "quick",
    "--name",
    "t",
    "--families",
    "figure3,cycle(4)",
    "--modes",
    "full",
    "--workloads",
    "flood(2)",
    "--noises",
    "noiseless",
    "--schedulers",
    "random,fifo",
    "--seeds",
    "1",
];

fn run_trace(dir: &Path, extra: &[&str], threads: &str) -> (String, String, String) {
    let mut args = vec!["trace"];
    args.extend_from_slice(SELECTOR);
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--out", dir.to_str().unwrap()]);
    let out = fdn_lab(&args, &[("RAYON_NUM_THREADS", threads)]);
    assert!(
        out.status.success(),
        "trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |ext: &str| {
        std::fs::read_to_string(dir.join(format!("t.trace.{ext}")))
            .unwrap_or_else(|e| panic!("read t.trace.{ext}: {e}"))
    };
    (read("jsonl"), read("json"), read("md"))
}

#[test]
fn trace_artifacts_are_byte_identical_across_thread_counts() {
    let dir1 = scratch("trace-threads-1");
    let dir4 = scratch("trace-threads-4");
    let (jsonl1, perfetto1, md1) = run_trace(&dir1, &[], "1");
    let (jsonl4, perfetto4, md4) = run_trace(&dir4, &[], "4");
    assert_eq!(jsonl1, jsonl4, "JSONL depends on the thread count");
    assert_eq!(
        perfetto1, perfetto4,
        "Perfetto JSON depends on the thread count"
    );
    assert_eq!(md1, md4, "markdown depends on the thread count");
    // Four cells (2 families x 2 schedulers), each with samples + markers.
    let cells = jsonl1
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"cell\""))
        .count();
    assert_eq!(cells, 4);
    assert!(jsonl1
        .lines()
        .any(|l| l.starts_with("{\"type\":\"sample\"")));
    assert!(jsonl1
        .lines()
        .any(|l| l.starts_with("{\"type\":\"marker\"")));
}

#[test]
fn full_mode_traces_carry_construction_markers_and_replay_traces_do_not() {
    let full_dir = scratch("trace-mode-full");
    let (full_jsonl, full_perfetto, _) = run_trace(&full_dir, &[], "2");
    assert!(full_jsonl.contains("\"construction-start\""));
    assert!(full_jsonl.contains("\"construction-quiescence\""));
    assert!(full_perfetto.contains("\"construction\""));

    let replay_dir = scratch("trace-mode-replay");
    let mut args = vec!["trace"];
    args.extend_from_slice(SELECTOR);
    // Last flag wins over the selector's `--modes full`.
    args.extend_from_slice(&["--mode", "replay", "--out", replay_dir.to_str().unwrap()]);
    let out = fdn_lab(&args, &[("RAYON_NUM_THREADS", "2")]);
    assert!(
        out.status.success(),
        "replay trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(replay_dir.join("t.trace.jsonl")).unwrap();
    // A replayed simulation never constructs: it warm-starts from the
    // checkpoint, so construction markers must be absent while the replay
    // marker and online windows are present.
    assert!(!jsonl.contains("\"construction-start\""));
    assert!(!jsonl.contains("\"construction-quiescence\""));
    assert!(jsonl.contains("\"replay-warm-start\""));
    assert!(jsonl.contains("\"online-window\""));
    // The replay trace still reports the checkpoint's CCinit in its cell
    // headers (nonzero for every successful cell).
    for line in jsonl
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"cell\""))
    {
        assert!(line.contains("\"success\":true"), "{line}");
        assert!(!line.contains("\"cc_init\":0,"), "{line}");
    }
}
