//! `fdn-lab` — the experiment-campaign engine of the fully-defective-networks
//! reproduction.
//!
//! The paper's claims (Lemmas 7/9/13/14, Theorems 2/4/10/15) are cost bounds;
//! measuring them one hand-wired run at a time does not scale to the sweep
//! sizes where the interesting behaviour lives. This crate makes sweeps
//! declarative:
//!
//! 1. **Specify** a [`Campaign`]: the cartesian matrix of
//!    [`fdn_graph::GraphFamily`] x [`EngineMode`] x [`EncodingSpec`] x
//!    [`fdn_protocols::WorkloadSpec`] x [`fdn_netsim::NoiseSpec`] x
//!    [`fdn_netsim::SchedulerSpec`] x seed range.
//! 2. **Expand** it into concrete [`Scenario`]s
//!    ([`Campaign::expand`]); impossible combinations (non-2-edge-connected
//!    topologies, token rings on non-rings, unary encodings of non-trivial
//!    payloads) are filtered with recorded reasons.
//! 3. **Execute** with [`run_campaign`]: every scenario is an independent
//!    deterministic simulation, swept in parallel with rayon and drawing
//!    seed-independent work from shared [`Caches`], optionally over one
//!    cell-atomic [`Shard`] of the matrix.
//! 4. **Aggregate** into a [`CampaignReport`]: per-cell min/mean/p50/p95/max
//!    of pulses, steps, drops, `CCinit`, online pulses and per-message
//!    overhead, plus success and quiescence rates — rendered as JSON, CSV or
//!    markdown.
//! 5. **Gate** on the result: [`diff_reports`] compares two saved reports
//!    cell-by-cell against a [`DiffTolerance`] (the `fdn-lab diff`
//!    subcommand exits non-zero on regression), turning `lab-out/` into a
//!    CI regression gate.
//! 6. **Trace** one run per cell: [`run_trace`] attaches the observer layer
//!    to each cell's first seed.
//!
//! Each artifact has exactly one entry point with the same shape — the
//! caches and the [`Campaign`], plus the [`Shard`] to run for a campaign
//! report — and each returns the per-cell wall-clock [`CellTiming`]s
//! beside the report (the `--timings` sidecar; wall time never enters a
//! report). Each report
//! record lists its fields once, and its JSON writer, strict parser and CSV
//! columns all follow from that list through the [`Field`] trait, as does,
//! for the records the diff gate compares, each field's diff rule. Every
//! saved report parses back through one checked reader, [`Json::read`]: a
//! missing field, or a number its field's type cannot hold, is an error
//! naming the field.
//!
//! Reports contain no wall-clock data and every stage is order-preserving,
//! so two runs of the same campaign produce **byte-identical** reports
//! regardless of thread count.
//!
//! # Example
//!
//! ```
//! use fdn_lab::{run_campaign, Caches, Campaign, SeedRange};
//! use fdn_graph::GraphFamily;
//!
//! let mut campaign = Campaign::new("doc");
//! campaign.families = vec![GraphFamily::Figure3, GraphFamily::Cycle { n: 4 }];
//! campaign.seeds = SeedRange { start: 1, count: 2 };
//! let (report, timings) = run_campaign(&Caches::new(), &campaign, None).unwrap();
//! assert_eq!(report.cells.len(), 2);
//! assert_eq!(timings.len(), 2);
//! assert!(report.cells.iter().all(|c| c.success_rate == 1.0));
//! println!("{}", report.to_markdown());
//! ```
//!
//! The `fdn-lab` binary exposes the same engine on the command line
//! (`run`, `trace`, `list-scenarios`, `report`, `merge`, `diff`); see the
//! repository README.

pub mod cache;
pub mod diff;
pub mod error;
pub mod json;
pub mod presets;
pub mod report;
pub mod runner;
pub mod spec;
pub mod stdio;
pub mod store;
pub mod timing;
pub mod trace;

pub use cache::{
    BaselineCache, BaselineKey, CachedConstruction, CachedTopology, Caches, ReplayCache, ReplayKey,
    TopologyCache, CONSTRUCTION_MAX_STEPS,
};
pub use diff::{diff_reports, CellChange, CellDelta, DiffTolerance, ReportDiff};
pub use error::LabError;
pub use json::{Field, Json};
pub use presets::PRESET_NAMES;
pub use report::{
    aggregate, fmt_rate, merge_reports, percentile, CampaignReport, CellReport, MetricSummary,
};
pub use runner::{
    run_campaign, run_scenario_observed, run_scenario_with, CellTiming, ScenarioOutcome,
};
pub use store::{CheckpointStore, StoreStats, STORE_FORMAT_VERSION};
pub use timing::Stopwatch;

pub use spec::{
    shard_slice, Campaign, Cell, EncodingSpec, EngineMode, Scenario, SeedRange, Shard, SkippedCell,
};
pub use trace::{run_trace, CellTrace, TraceReport};
