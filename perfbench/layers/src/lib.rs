//! Per-layer costs of one `fdn-lab` workload, measured by trace replay.
//!
//! A scenario is run three times through the public simulator API: once
//! untraced (the `Simulation::run` time the layers must explain), once with
//! a [`observe::Recorder`] attached (the event log: which link each send
//! entered and which link every delivery or deletion left), and once as a
//! replay of that log against each layer in isolation ([`replay`]): the
//! link stores, the scheduler, the noise model, the `Stats` counters and the
//! reactors. Whatever the layers do not explain is the simulation
//! remainder.
//!
//! Every replay is checked against the recording while it runs, so a layer
//! number is only ever reported for a replay that reproduced the run.

pub mod campaign;
pub mod observe;
pub mod replay;
pub mod scenario;

/// Seed salt the lab runner applies to a scenario seed for its noise
/// stream (`fdn_lab::runner`, crate-private there). The scheduler replay
/// fails loudly if either salt drifts from the runner's.
pub const NOISE_SALT: u64 = 0x4E01_5E00;
/// Seed salt the lab runner applies to a scenario seed for its scheduler
/// stream.
pub const SCHED_SALT: u64 = 0x5C4E_D000;

/// Nanoseconds of a duration, saturating (a run longer than 584 years is
/// not a benchmark).
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
