//! Seeded-violation corpus for the lint gate.
//!
//! Two checkers must reject this file, which proves on every run that the
//! gate still fails when it should:
//!
//! - `cargo clippy`, on a throwaway package built around this file with the
//!   workspace's own lint levels and `clippy.toml`, for the lexical rules
//!   D1–D6 and for the two lints that keep every exception reasoned and
//!   live. A `// trips: <lint>, …` marker ends each line that must be
//!   rejected; `tests/lint_gate.rs` requires exactly those diagnostics, all
//!   at error level.
//! - `fdn-lint --apply-all-rules`, for the flow rules F2 and F3 and the
//!   pragma rule P1, with exit code 2.
//!
//! Cargo never builds this file as part of the workspace, and the default
//! `fdn-lint` walk skips `tests/fixtures/`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Instant, SystemTime};

/// D1: wall-clock reads.
pub fn wall_clock() -> u128 {
    let started = Instant::now(); // trips: clippy::disallowed_methods
    let _epoch = SystemTime::now(); // trips: clippy::disallowed_methods
    started.elapsed().as_millis() // trips: clippy::disallowed_methods
}

/// D2: a report module denies unordered maps. Outside such a module the
/// maps below are allowed, and no diagnostic names them.
pub mod report {
    #![deny(clippy::disallowed_types)]

    /// Iteration order of this map would reach the returned rows.
    pub fn unordered_rows() -> Vec<u64> {
        let counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new(); // trips: clippy::disallowed_types
        counts.into_values().collect()
    }
}

/// D3: RNG construction outside the seeded factories.
pub fn rogue_rng() -> StdRng {
    StdRng::seed_from_u64(42) // trips: clippy::disallowed_methods
}

/// D4: an accounting module denies float arithmetic and lossy casts.
pub mod accounting {
    #![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

    /// Half of the deliveries, computed in floating point.
    pub fn float_accounting(delivered: u64) -> f64 {
        delivered as f64 * 0.5 // trips: clippy::cast_precision_loss, clippy::float_arithmetic
    }
}

/// D5: printing outside a CLI main.
pub fn noisy() {
    println!("stray stdout write"); // trips: clippy::print_stdout
    eprintln!("stray stderr write"); // trips: clippy::print_stderr
    dbg!("stray debug write"); // trips: clippy::dbg_macro
}

/// D6: unsafe code.
pub fn unchecked(xs: &[u64]) -> u64 {
    unsafe { *xs.get_unchecked(0) } // trips: unsafe_code
}

/// Suppression control: a reasoned `#[expect]` keeps its own site out of
/// the report.
#[expect(clippy::print_stdout, reason = "fixture: demonstrates a justified exception")]
pub fn sanctioned() {
    println!("allowed by the reasoned expect above");
}

/// An exception without a reason is rejected, although it still suppresses.
#[expect(clippy::print_stdout)] // trips: clippy::allow_attributes_without_reason
pub fn unreasoned() {
    println!("suppressed by an expect that states no reason");
}

/// An exception that no longer fires is rejected.
#[expect(clippy::print_stdout, reason = "fixture: nothing here prints any more")] // trips: unfulfilled_lint_expectations
pub fn stale() {}

/// P1: a malformed pragma (its reason is missing) is reported, not honoured.
// fdn-lint: allow(F3)
pub fn still_flagged() {}

/// F2: map-iteration order leaking through a helper into a render function
/// with no sort on the path.
pub fn unstable_rows(stats: &HashMap<String, u64>) -> Vec<String> {
    stats.keys().cloned().collect()
}

/// The F2 sink (matched by the `render*` name heuristic).
pub fn render_rows(stats: &HashMap<String, u64>) -> Vec<String> {
    unstable_rows(stats)
}

/// F3: environment dependence feeding a report sink.
pub fn shard_width_from_env() -> usize {
    std::env::var("FDN_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// The F3 sink.
pub fn render_shard_plan() -> usize {
    shard_width_from_env()
}

/// Flow control case: the same map-iteration shape as `unstable_rows`, but
/// the path to the sink sorts, so the sorting boundary keeps this pair out
/// of the report.
pub fn stable_rows(stats: &HashMap<String, u64>) -> Vec<String> {
    let mut rows: Vec<String> = stats.keys().cloned().collect();
    rows.sort();
    rows
}

/// Not a finding: `stable_rows` sorts, so no F2 fires here.
pub fn render_sorted_rows(stats: &HashMap<String, u64>) -> Vec<String> {
    stable_rows(stats)
}

/// Scanner decoys in a sink: environment reads in comments and strings are
/// invisible, and a pragma inside a string suppresses nothing, so only the
/// last line of the body is an F3 seed.
pub fn render_decoys() -> usize {
    // std::env::var("IN_A_LINE_COMMENT") is invisible.
    /* std::env::var("IN_A") /* nested */ block comment is invisible. */
    let _s = "std::env::var(\"IN_A_STRING\") is invisible";
    let _r = r#"std::env::var("IN_A_RAW_STRING") is invisible"#;
    let _smuggled = "fdn-lint: allow(F3) -- a pragma in a string suppresses nothing";
    std::env::var("FDN_SMUGGLED").map_or(0, |v| v.len())
}
