//! The fleet driver: plan a campaign into shards, dispatch them as local
//! worker subprocesses sharing one checkpoint store, and merge the results
//! through the ordinary `merge` path.
//!
//! A fleet is nothing but the existing sharding machinery
//! ([`shard_slice`] is cell-atomic, empty shards
//! merge neutrally) driven from one place. The driver contributes three
//! things:
//!
//! 1. **A deterministic plan.** [`FleetPlan`] records, per shard, exactly
//!    which `run` invocation reproduces it: the campaign's matrix arguments
//!    verbatim plus `--shard K/M`. The JSON manifest is a pure function of
//!    the campaign and the shard count — no timestamps, no paths — so two
//!    machines planning the same campaign emit byte-identical manifests.
//! 2. **Local dispatch.** [`FleetPlan::dispatch`] spawns one `fdn-lab run`
//!    subprocess per shard (all concurrent; the OS scheduler does the rest),
//!    pointing every worker at the same `--store` directory. Workers race on
//!    store entries harmlessly: the serialization is canonical and writes
//!    are atomic renames, so whoever builds a construction first donates it
//!    to the others. The shard reports are then recombined by spawning the
//!    ordinary `merge` subcommand — the *same* code path CI's merge-gate
//!    uses, not a private reimplementation.
//! 3. **A CI matrix.** [`FleetPlan::emit_matrix`] renders the same plan as a
//!    GitHub Actions `fromJson` include-list, so a CI fleet and a local
//!    fleet are one plan with two dispatchers.
//!
//! This module performs no terminal output of its own (worker output is
//! inherited); the `fdn-lab fleet` subcommand does the narration.

#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::error::LabError;
use crate::json::Json;
use crate::runner::CellTiming;
use crate::spec::{shard_slice, Campaign, Shard};
use crate::timing::Stopwatch;

/// The planned slice of one shard: how to run it and what it will cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The shard's `K/M` identity.
    pub shard: Shard,
    /// Scenarios this shard will run.
    pub scenario_count: usize,
    /// Distinct cells those scenarios belong to.
    pub cell_count: usize,
}

impl ShardPlan {
    /// The extra arguments a worker needs on top of the campaign's matrix
    /// arguments.
    pub fn worker_args(&self) -> Vec<String> {
        vec!["--shard".to_string(), self.shard.to_string()]
    }
}

/// A deterministic plan for running one campaign as `M` shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetPlan {
    /// The campaign/report name (shard report stems derive from it).
    pub name: String,
    /// The matrix arguments every worker receives verbatim (e.g.
    /// `--preset quick`), before its own `--shard K/M`.
    pub matrix_args: Vec<String>,
    /// Total scenarios across all shards.
    pub scenario_count: usize,
    /// Per-shard slices, in shard order (exactly `M` entries).
    pub shards: Vec<ShardPlan>,
}

impl FleetPlan {
    /// Plans `campaign` into `shard_count` cell-atomic shards. `matrix_args`
    /// are recorded verbatim as the worker invocation (the caller has
    /// already validated that they parse back into `campaign`).
    ///
    /// # Errors
    ///
    /// [`LabError::Usage`] for a zero shard count and
    /// [`LabError::EmptyCampaign`] when the matrix expands to nothing — a
    /// fleet of only empty shards would merge into an empty report.
    pub fn plan(
        campaign: &Campaign,
        matrix_args: &[String],
        shard_count: usize,
    ) -> Result<FleetPlan, LabError> {
        if shard_count == 0 {
            return Err(LabError::Usage("--shards must be positive".into()));
        }
        let (scenarios, _) = campaign.expand_with_skips();
        if scenarios.is_empty() {
            return Err(LabError::EmptyCampaign);
        }
        let shards = (0..shard_count)
            .map(|index| {
                let shard = Shard {
                    index,
                    count: shard_count,
                };
                let slice = shard_slice(&scenarios, shard);
                ShardPlan {
                    shard,
                    scenario_count: slice.len(),
                    cell_count: slice.chunk_by(|a, b| a.cell == b.cell).count(),
                }
            })
            .collect();
        Ok(FleetPlan {
            name: campaign.name.clone(),
            matrix_args: matrix_args.to_vec(),
            scenario_count: scenarios.len(),
            shards,
        })
    }

    /// Number of shards planned.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The deterministic JSON manifest: campaign name, worker matrix
    /// arguments, and the per-shard slices. A pure function of the plan —
    /// byte-identical across machines and runs.
    pub fn manifest(&self) -> Json {
        Json::obj(vec![
            ("fleet", Json::Str(self.name.clone())),
            ("shards", Json::num_u64(self.shard_count() as u64)),
            ("scenarios", Json::num_u64(self.scenario_count as u64)),
            (
                "matrix_args",
                Json::Arr(
                    self.matrix_args
                        .iter()
                        .map(|a| Json::Str(a.clone()))
                        .collect(),
                ),
            ),
            (
                "plan",
                Json::Arr(self.shards.iter().map(Self::shard_entry).collect()),
            ),
        ])
    }

    fn shard_entry(s: &ShardPlan) -> Json {
        Json::obj(vec![
            ("shard", Json::Str(s.shard.file_tag())),
            ("index", Json::num_u64(s.shard.index as u64)),
            ("args", Json::Str(s.worker_args().join(" "))),
            ("scenarios", Json::num_u64(s.scenario_count as u64)),
            ("cells", Json::num_u64(s.cell_count as u64)),
        ])
    }

    /// The GitHub Actions matrix include-list of the same plan — feed
    /// `render_compact()` of this into `$GITHUB_OUTPUT` and consume it with
    /// `strategy: matrix: ${{ fromJson(...) }}`. Derived from the manifest's
    /// entries, so the CI fleet is the local fleet by construction.
    pub fn emit_matrix(&self) -> Json {
        Json::obj(vec![(
            "include",
            Json::Arr(self.shards.iter().map(Self::shard_entry).collect()),
        )])
    }

    /// The report stem a worker writes for `shard` (under its `--out`
    /// directory): `NAME.shardKofM`.
    pub fn shard_stem(&self, shard: Shard) -> String {
        format!("{}.shard{}", self.name, shard.file_tag())
    }

    /// Runs the whole plan locally: one `run` subprocess per shard (all
    /// spawned up front, sharing `opts.store` if set), then one `merge`
    /// subprocess over the shard reports — the exact artifact path CI's
    /// sharded gates exercise. Worker stdout/stderr are inherited.
    ///
    /// # Errors
    ///
    /// I/O errors from spawning, and [`LabError::Usage`] when a worker or
    /// the merge exits non-zero (their own stderr has the detail).
    pub fn dispatch(&self, opts: &DispatchOptions) -> Result<FleetOutcome, LabError> {
        std::fs::create_dir_all(&opts.out_dir)?;
        #[expect(
            clippy::disallowed_methods,
            reason = "D7: worker thread-count default only; merged report bytes are cmp-gated identical across thread counts"
        )]
        let threads = opts.threads_per_worker.or_else(|| {
            // Default: split the machine between the workers instead of
            // oversubscribing it M-fold.
            std::thread::available_parallelism()
                .ok()
                .map(|n| (n.get() / self.shard_count().max(1)).max(1))
        });
        let watch = Stopwatch::start();
        let mut children = Vec::new();
        for plan in &self.shards {
            let mut cmd = Command::new(&opts.exe);
            cmd.arg("run");
            cmd.args(&self.matrix_args);
            cmd.args(plan.worker_args());
            cmd.arg("--out").arg(&opts.out_dir);
            if let Some(store) = &opts.store {
                cmd.arg("--store").arg(store);
            }
            if let Some(n) = threads {
                cmd.arg("--threads").arg(n.to_string());
            }
            let child = cmd.spawn()?;
            children.push((plan.shard, child));
        }
        let mut shard_reports = Vec::new();
        let mut shard_timings = Vec::new();
        for (shard, mut child) in children {
            let status = child.wait()?;
            // Reaped in shard order while all workers run concurrently, so
            // a shard's wall time is "dispatch to reap" — an upper bound on
            // its own runtime, good enough for a nondeterministic sidecar.
            shard_timings.push(CellTiming {
                cell: format!("shard{}", shard.file_tag()),
                wall_ms: watch.elapsed_ms(),
                runs: self.shards[shard.index].scenario_count,
            });
            if !status.success() {
                return Err(LabError::Usage(format!(
                    "fleet worker for shard {shard} failed ({status})"
                )));
            }
            shard_reports.push(
                opts.out_dir
                    .join(format!("{}.json", self.shard_stem(shard))),
            );
        }
        let merged_report = opts.out_dir.join(format!("{}.json", self.name));
        let status = Command::new(&opts.exe)
            .arg("merge")
            .args(&shard_reports)
            .arg("--out")
            .arg(&merged_report)
            .status()?;
        if !status.success() {
            return Err(LabError::Usage(format!(
                "fleet merge of {} shard report(s) failed ({status})",
                shard_reports.len()
            )));
        }
        Ok(FleetOutcome {
            shard_reports,
            merged_report,
            shard_timings,
        })
    }
}

/// How [`FleetPlan::dispatch`] runs its workers.
#[derive(Debug, Clone)]
pub struct DispatchOptions {
    /// The `fdn-lab` binary to spawn (normally `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Directory receiving shard reports and the merged report.
    pub out_dir: PathBuf,
    /// Checkpoint store directory shared by every worker (`--store`).
    pub store: Option<PathBuf>,
    /// Rayon threads per worker; defaults to an even split of the machine.
    pub threads_per_worker: Option<usize>,
}

/// What a dispatched fleet produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The per-shard reports, in shard order.
    pub shard_reports: Vec<PathBuf>,
    /// The merged campaign report (byte-identical to an unsharded run).
    pub merged_report: PathBuf,
    /// Dispatch-to-reap wall time per shard, for the `--timings` sidecar
    /// (`runs` carries the shard's scenario count).
    pub shard_timings: Vec<CellTiming>,
}

impl FleetOutcome {
    /// The merged report's path.
    pub fn merged_report(&self) -> &Path {
        &self.merged_report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Campaign {
        Campaign::preset("quick").unwrap()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn plan_covers_every_scenario_exactly_once() {
        let campaign = quick();
        let plan = FleetPlan::plan(&campaign, &args(&["--preset", "quick"]), 3).unwrap();
        assert_eq!(plan.shard_count(), 3);
        let (scenarios, _) = campaign.expand_with_skips();
        assert_eq!(plan.scenario_count, scenarios.len());
        let sum: usize = plan.shards.iter().map(|s| s.scenario_count).sum();
        assert_eq!(sum, scenarios.len(), "shards partition the matrix");
        for (i, s) in plan.shards.iter().enumerate() {
            assert_eq!(s.shard.index, i);
            assert_eq!(s.shard.count, 3);
            assert_eq!(s.worker_args(), vec!["--shard", &format!("{i}/3")]);
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let a = FleetPlan::plan(&quick(), &args(&["--preset", "quick"]), 4).unwrap();
        let b = FleetPlan::plan(&quick(), &args(&["--preset", "quick"]), 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.manifest().render(), b.manifest().render());
        assert_eq!(
            a.emit_matrix().render_compact(),
            b.emit_matrix().render_compact()
        );
    }

    #[test]
    fn more_shards_than_cells_leaves_empty_tails() {
        let campaign = quick();
        let (scenarios, _) = campaign.expand_with_skips();
        let cells = scenarios.chunk_by(|a, b| a.cell == b.cell).count();
        let plan = FleetPlan::plan(&campaign, &[], cells + 5).unwrap();
        let empty = plan.shards.iter().filter(|s| s.scenario_count == 0).count();
        assert_eq!(
            empty, 5,
            "exactly the tail shards beyond the cells are empty"
        );
    }

    #[test]
    fn manifest_and_matrix_share_entries() {
        let plan = FleetPlan::plan(&quick(), &args(&["--preset", "quick"]), 2).unwrap();
        let manifest = plan.manifest();
        assert_eq!(manifest.get("fleet").and_then(Json::as_str), Some("quick"));
        assert_eq!(manifest.get("shards").and_then(Json::as_u64), Some(2));
        let entries = manifest.get("plan").and_then(Json::as_arr).unwrap();
        let matrix = plan.emit_matrix();
        let include = matrix.get("include").and_then(Json::as_arr).unwrap();
        assert_eq!(entries, include, "one plan, two renderings");
        assert_eq!(include[0].get("shard").and_then(Json::as_str), Some("0of2"));
        assert_eq!(
            include[0].get("args").and_then(Json::as_str),
            Some("--shard 0/2")
        );
        // The include-list is single-line compact — fit for $GITHUB_OUTPUT.
        assert!(!matrix.render_compact().contains('\n'));
    }

    #[test]
    fn zero_shards_and_empty_campaigns_are_rejected() {
        assert!(matches!(
            FleetPlan::plan(&quick(), &[], 0),
            Err(LabError::Usage(_))
        ));
        let mut empty = quick();
        empty.families = Vec::new();
        assert!(matches!(
            FleetPlan::plan(&empty, &[], 2),
            Err(LabError::EmptyCampaign)
        ));
    }

    #[test]
    fn shard_stems_match_the_run_subcommand() {
        let plan = FleetPlan::plan(&quick(), &[], 2).unwrap();
        assert_eq!(
            plan.shard_stem(Shard { index: 1, count: 2 }),
            "quick.shard1of2"
        );
    }
}
