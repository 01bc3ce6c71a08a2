//! Seeded-violation corpus for the lint gate.
//!
//! `cargo clippy` must reject this file, which proves on every run that the
//! gate still fails when it should. `tests/lint_gate.rs` runs clippy on a
//! throwaway package built around this file, with the workspace's own lint
//! levels and `clippy.toml`, for the determinism rules D1–D7 and for the two
//! lints that keep every exception reasoned and live. A `// trips: <lint>, …`
//! marker ends each line that must be rejected; the test requires exactly
//! those diagnostics, all at error level.
//!
//! Cargo never builds this file as part of the workspace.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Instant, SystemTime};

/// D1: wall-clock reads.
pub fn wall_clock() -> u128 {
    let started = Instant::now(); // trips: clippy::disallowed_methods
    let _epoch = SystemTime::now(); // trips: clippy::disallowed_methods
    started.elapsed().as_millis() // trips: clippy::disallowed_methods
}

/// D2: hash collections are banned everywhere, since their iteration order
/// varies per process.
pub fn unordered_rows() -> Vec<u64> {
    let counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new(); // trips: clippy::disallowed_types
    counts.into_values().collect()
}

/// D2 exception: a reasoned module-level `#![expect]` admits a hash
/// collection for the whole module. The workspace itself has no such
/// exception; this pins that the form still works.
pub mod hashed {
    #![expect(
        clippy::disallowed_types,
        reason = "fixture: demonstrates a justified module-level exception"
    )]

    /// The number of distinct values; nothing observes the set's order.
    pub fn distinct(xs: &[u64]) -> usize {
        xs.iter().collect::<std::collections::HashSet<_>>().len()
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

/// D7: environment reads, the core count included.
pub fn environment() -> usize {
    let shards = std::env::var("FDN_SHARDS").map_or(1, |v| v.len()); // trips: clippy::disallowed_methods
    let raw = std::env::var_os("FDN_SHARDS").map_or(0, |v| v.len()); // trips: clippy::disallowed_methods
    let all = std::env::vars().count(); // trips: clippy::disallowed_methods
    let all_raw = std::env::vars_os().count(); // trips: clippy::disallowed_methods
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()); // trips: clippy::disallowed_methods
    shards + raw + all + all_raw + cores
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
