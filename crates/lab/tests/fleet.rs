//! End-to-end tests of sharded campaigns and the persistent checkpoint store
//! through the real binary: `run --shard K/M` processes sharing one
//! `--store`, their `merge` and its byte-identity with an unsharded run, the
//! shard-file checks of `merge`, and the warm/cold/corrupted behaviour of
//! `--store` across processes — the exact contract CI's sharded matrix and
//! store gates rely on.

mod common;

use std::path::{Path, PathBuf};
use std::process::Output;

use common::scratch;
use fdn_lab::Json;

/// The matrix of the store and fleet tests: small enough to be fast, but
/// replay-mode so the checkpoint store is actually on the hot path.
const MATRIX: &str = "--preset quick --modes replay --families figure3,cycle(5) --seeds 2";

/// A two-cell campaign: run as `--shard K/3`, its shard 2 is empty.
const TWO_CELLS: &str = "--preset quick --modes replay --families figure3 --noises noiseless \
                         --schedulers random --seeds 1";

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

fn arg(path: &Path) -> &str {
    path.to_str().expect("UTF-8 scratch path")
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

/// Runs `fdn-lab run` on `matrix` with the `extra` flags into `out`.
fn run(matrix: &str, extra: &[&str], out: &Path) {
    let mut args = vec!["run"];
    args.extend(matrix.split_whitespace());
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--out", arg(out)]);
    fdn_lab(&args);
}

fn run_with_store(dir: &Path, tag: &str, store: &Path) -> (Vec<u8>, Vec<u8>, PathBuf) {
    let out_dir = dir.join(tag);
    let timings = dir.join(format!("{tag}.timings.json"));
    run(
        MATRIX,
        &["--store", arg(store), "--timings", arg(&timings)],
        &out_dir,
    );
    (
        read(&out_dir.join("quick.json")),
        read(&out_dir.join("quick.csv")),
        timings,
    )
}

/// Runs shard `K/M` of `matrix` into `out` with the `extra` flags and
/// returns the shard report's path.
fn run_shard(matrix: &str, (k, m): (usize, usize), extra: &[&str], out: &Path) -> PathBuf {
    run(
        matrix,
        &[&["--shard", &format!("{k}/{m}")], extra].concat(),
        out,
    );
    out.join(format!("quick.shard{k}of{m}.json"))
}

/// Runs `fdn-lab merge` over `shards` into `out`, returning the output.
fn merge(shards: &[&PathBuf], out: &Path) -> Output {
    let mut args = vec!["merge"];
    args.extend(shards.iter().map(|p| arg(p)));
    args.extend_from_slice(&["--out", arg(out)]);
    common::fdn_lab(&args, &[])
}

#[test]
fn fleet_merge_is_byte_identical_to_an_unsharded_run() {
    // A fleet by hand: one `run --shard K/3` per shard, all sharing one
    // checkpoint store, then `merge`.
    let dir = scratch("fleet-e2e");
    let store = dir.join("store");
    let shards: Vec<PathBuf> = (0..3)
        .map(|k| run_shard(MATRIX, (k, 3), &["--store", arg(&store)], &dir))
        .collect();
    let merged = dir.join("merged.json");
    let out = merge(&shards.iter().collect::<Vec<_>>(), &merged);
    assert!(out.status.success(), "merge failed: {out:?}");
    // The reference: the same matrix, unsharded, in one process, no store.
    run(MATRIX, &[], &dir);
    assert_eq!(
        read(&merged),
        read(&dir.join("quick.json")),
        "merged store-backed shards must reproduce the unsharded, store-less bytes"
    );
}

#[test]
fn merge_rejects_incomplete_or_mixed_shard_file_sets() {
    let dir = scratch("fleet-shard-files");
    let of3: Vec<PathBuf> = (0..3)
        .map(|k| run_shard(TWO_CELLS, (k, 3), &[], &dir))
        .collect();
    let shard1of2 = run_shard(TWO_CELLS, (1, 2), &[], &dir);
    let merged = dir.join("merged.json");
    // All three shards merge, although shard 2 holds no cell...
    let all = merge(&[&of3[0], &of3[1], &of3[2]], &merged);
    assert!(all.status.success(), "{all:?}");
    // ...and leaving out that empty tail, or mixing shard counts, is caught
    // by the file names alone.
    for (inputs, error) in [
        ([&of3[0], &of3[1]], "incomplete shard set"),
        ([&of3[0], &shard1of2], "disagree on the shard count"),
    ] {
        let out = merge(&inputs, &merged);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(error), "{stderr}");
    }
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
