//! The single sanctioned wall-clock read in `fdn-lab`.
//!
//! Wall time is nondeterministic, and the lab's JSON/CSV artifacts are
//! byte-compared in CI across reruns, thread counts and shard splits — so
//! `std::time::Instant` must never be touched from report-producing code.
//! The two places wall time is *allowed* to surface are the `--timings`
//! sidecar ([`crate::runner::CellTiming`]) and markdown report headers,
//! and both take their measurements exclusively through this module.
//!
//! Rule D1 enforces the funnel statically: `clippy.toml` bans the clock
//! reads, and the `#![expect]` below is the only exception in `fdn-lab`, so
//! an `Instant::now()` anywhere else in the crate fails `cargo clippy`.

#![expect(
    clippy::disallowed_methods,
    reason = "D1: the one sanctioned wall-clock read in fdn-lab, feeding only the --timings sidecar and markdown headers"
)]

use std::time::{Duration, Instant};

/// A started wall-clock measurement.
///
/// ```
/// use std::time::Duration;
///
/// let watch = fdn_lab::timing::Stopwatch::start();
/// // ... measured work ...
/// let sidecar_ms = watch.elapsed_ms();
/// assert!(watch.elapsed() >= Duration::ZERO);
/// assert!(sidecar_ms >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Reads the clock once and starts measuring.
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Wall time since [`Stopwatch::start`], as a `Duration` (markdown
    /// headers and progress lines format this directly).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Wall time since [`Stopwatch::start`] in fractional milliseconds —
    /// the unit of the `--timings` sidecar's `wall_ms` fields.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone_and_units_agree() {
        let watch = Stopwatch::start();
        let first = watch.elapsed_ms();
        let second = watch.elapsed_ms();
        assert!(second >= first);
        assert!(first >= 0.0);
        // The Duration and millisecond faces measure the same clock.
        assert!(watch.elapsed().as_secs_f64() * 1e3 >= second);
    }
}
