//! End-to-end tests of the fleet driver and the persistent checkpoint store
//! through the real binary: the planned matrix, the dispatched worker
//! subprocesses, the merged report's byte-identity with an unsharded run,
//! and the warm/cold/corrupted behaviour of `--store` across processes —
//! the exact contract CI's sharded matrix and store gates rely on.

mod common;

use std::path::{Path, PathBuf};
use std::process::Output;

use common::scratch;
use fdn_lab::Json;

/// The matrix every test sweeps: small enough to be fast, but replay-mode so
/// the checkpoint store is actually on the hot path.
const MATRIX: &[&str] = &[
    "--preset",
    "quick",
    "--modes",
    "replay",
    "--families",
    "figure3,cycle(5)",
    "--seeds",
    "2",
];

/// Runs the fdn-lab binary, asserting success.
fn fdn_lab(args: &[&str]) -> Output {
    let out = common::fdn_lab(args, &[]);
    assert!(
        out.status.success(),
        "fdn-lab {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `store` object of a `--timings` sidecar, as (hits, misses, rejected).
fn store_counters(timings_path: &Path) -> (u64, u64, u64) {
    let text = std::fs::read_to_string(timings_path).expect("read timings sidecar");
    let doc = Json::parse(&text).expect("parse timings sidecar");
    let store = doc
        .get("store")
        .expect("timings sidecar has a store object");
    let n = |k: &str| store.get(k).and_then(Json::as_u64).expect(k);
    (n("hits"), n("misses"), n("rejected"))
}

fn run_with_store(dir: &Path, tag: &str, store: &Path) -> (Vec<u8>, Vec<u8>, PathBuf) {
    let out_dir = dir.join(tag);
    let timings = dir.join(format!("{tag}.timings.json"));
    let mut args = vec!["run"];
    args.extend_from_slice(MATRIX);
    let (out_s, store_s, timings_s) = (
        out_dir.to_str().unwrap().to_string(),
        store.to_str().unwrap().to_string(),
        timings.to_str().unwrap().to_string(),
    );
    args.extend_from_slice(&[
        "--out",
        &out_s,
        "--store",
        &store_s,
        "--timings",
        &timings_s,
    ]);
    fdn_lab(&args);
    (
        read(&out_dir.join("quick.json")),
        read(&out_dir.join("quick.csv")),
        timings,
    )
}

#[test]
fn emit_matrix_is_deterministic_single_line_json() {
    let mut args = vec!["fleet"];
    args.extend_from_slice(MATRIX);
    args.extend_from_slice(&["--shards", "3", "--emit-matrix"]);
    let first = fdn_lab(&args);
    let second = fdn_lab(&args);
    assert_eq!(first.stdout, second.stdout, "matrix must be deterministic");
    let text = String::from_utf8(first.stdout).expect("utf-8 matrix");
    assert_eq!(text.lines().count(), 1, "one line, fit for $GITHUB_OUTPUT");
    let doc = Json::parse(text.trim()).expect("matrix parses as JSON");
    let include = doc.get("include").and_then(Json::as_arr).expect("include");
    assert_eq!(include.len(), 3);
    for (i, entry) in include.iter().enumerate() {
        assert_eq!(
            entry.get("args").and_then(Json::as_str),
            Some(format!("--shard {i}/3").as_str())
        );
        assert_eq!(
            entry.get("shard").and_then(Json::as_str),
            Some(format!("{i}of3").as_str())
        );
    }
}

#[test]
fn fleet_merge_is_byte_identical_to_an_unsharded_run() {
    let dir = scratch("fleet-e2e");
    let fleet_out = dir.join("fleet-out");
    let store = dir.join("store");
    let mut args = vec!["fleet"];
    args.extend_from_slice(MATRIX);
    let (fleet_s, store_s) = (
        fleet_out.to_str().unwrap().to_string(),
        store.to_str().unwrap().to_string(),
    );
    args.extend_from_slice(&["--shards", "3", "--out", &fleet_s, "--store", &store_s]);
    fdn_lab(&args);
    // Every shard report and the manifest exist under --out.
    for k in 0..3 {
        assert!(fleet_out.join(format!("quick.shard{k}of3.json")).is_file());
    }
    assert!(fleet_out.join("quick.fleet.json").is_file());
    // The reference: the same matrix, unsharded, in one process.
    let ref_out = dir.join("ref-out");
    let mut run_args = vec!["run"];
    run_args.extend_from_slice(MATRIX);
    let ref_s = ref_out.to_str().unwrap().to_string();
    run_args.extend_from_slice(&["--out", &ref_s]);
    fdn_lab(&run_args);
    assert_eq!(
        read(&fleet_out.join("quick.json")),
        read(&ref_out.join("quick.json")),
        "merged fleet report must reproduce the unsharded bytes"
    );
}

#[test]
fn warm_store_reruns_are_byte_identical_and_pay_no_construction() {
    let dir = scratch("fleet-warm");
    let store = dir.join("store");
    let (cold_json, cold_csv, cold_t) = run_with_store(&dir, "cold", &store);
    let (warm_json, warm_csv, warm_t) = run_with_store(&dir, "warm", &store);
    assert_eq!(
        cold_json, warm_json,
        "JSON bytes must not depend on the store"
    );
    assert_eq!(cold_csv, warm_csv, "CSV bytes must not depend on the store");
    let (cold_hits, cold_misses, _) = store_counters(&cold_t);
    assert_eq!(cold_hits, 0, "a fresh store has nothing to hit");
    assert!(cold_misses > 0, "the cold run must populate the store");
    let (warm_hits, warm_misses, warm_rejected) = store_counters(&warm_t);
    assert_eq!(
        (warm_misses, warm_rejected),
        (0, 0),
        "the warm run must re-pay no construction"
    );
    assert_eq!(warm_hits, cold_misses, "every construction came from disk");
}

#[test]
fn corrupted_store_entries_are_rebuilt_in_place() {
    let dir = scratch("fleet-corrupt");
    let store = dir.join("store");
    let (cold_json, _, _) = run_with_store(&dir, "cold", &store);
    // Flip one byte in the middle of one entry.
    let entry = std::fs::read_dir(&store)
        .expect("read store dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "fdnckpt"))
        .expect("store holds at least one entry");
    let mut bytes = read(&entry);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&entry, &bytes).expect("corrupt entry");
    // The poisoned entry is detected, rebuilt and rewritten — report
    // unchanged.
    let (rebuilt_json, _, rebuilt_t) = run_with_store(&dir, "rebuilt", &store);
    assert_eq!(
        cold_json, rebuilt_json,
        "a bad entry must never leak into reports"
    );
    let (_, misses, rejected) = store_counters(&rebuilt_t);
    assert_eq!(
        (misses, rejected),
        (0, 1),
        "exactly the poisoned entry rebuilt"
    );
    // The rewrite healed the store: fully warm again.
    let (_, _, healed_t) = run_with_store(&dir, "healed", &store);
    let (healed_hits, healed_misses, healed_rejected) = store_counters(&healed_t);
    assert_eq!((healed_misses, healed_rejected), (0, 0));
    assert!(healed_hits > 0);
}
