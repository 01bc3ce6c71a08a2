//! Execution of a single [`Scenario`] and of whole campaigns in parallel.
//!
//! Each scenario is an independent deterministic simulation: the
//! noise/scheduler instances are rebuilt from their specs with seeds derived
//! from the scenario seed, and the outcome is a plain value. Work that is
//! identical across slices of the matrix — the seed-independent topology,
//! the construct-once replay checkpoints, the noiseless direct baselines —
//! comes from the shared [`Caches`] (see `cache.rs` for the soundness
//! arguments). That sharing is read-only-after-build, which is what makes
//! the rayon sweep in [`run_campaign`] trivially safe — and, because results
//! are collected in scenario order and contain no wall-clock data,
//! byte-identical across runs regardless of thread count.

use rayon::prelude::*;

use fdn_core::{cycle_simulators_prevalidated, full_simulators, replay_simulators, FullSimulator};
use fdn_netsim::{
    DirectRunner, LinkTable, NullObserver, Observer, Simulation, StatsSnapshot, TimeSeriesSampler,
    DEFAULT_SAMPLE_CAPACITY,
};
use fdn_protocols::{BoxedProtocol, WorkloadSpec};

use crate::cache::{BaselineKey, Caches, ReplayKey};
use crate::error::LabError;
use crate::report::{aggregate, CampaignReport};
use crate::spec::{shard_slice, Campaign, EngineMode, Scenario, Shard};

/// Seed salt for the noise stream (so noise and scheduler streams differ).
pub(crate) const NOISE_SALT: u64 = 0x4E01_5E00;
/// Seed salt for the scheduler stream.
pub(crate) const SCHED_SALT: u64 = 0x5C4E_D000;

/// Compact summary of a sampled in-flight depth curve (attached by
/// `--sample-every`). Every field derives from delivery-count-stamped
/// samples, so the summary is as byte-deterministic as the run itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflightCurve {
    /// Effective sampling stride in deliveries (the sampler doubles its
    /// stride under compaction, so this can exceed the requested value).
    pub sample_every: u64,
    /// Number of retained samples.
    pub samples: u64,
    /// Peak in-flight depth observed at any sample point.
    pub peak: u64,
    /// Delivery stamp of the first peak sample.
    pub peak_at: u64,
    /// Mean in-flight depth across the retained samples.
    pub mean: f64,
}

impl InflightCurve {
    /// Summarizes a sampler's retained samples.
    pub fn from_sampler(sampler: &TimeSeriesSampler) -> Self {
        let samples = sampler.samples();
        let (mut peak, mut peak_at, mut sum) = (0u64, 0u64, 0u64);
        for s in samples {
            sum += s.inflight;
            if s.inflight > peak {
                peak = s.inflight;
                peak_at = s.deliveries;
            }
        }
        InflightCurve {
            sample_every: sampler.stride(),
            samples: samples.len() as u64,
            peak,
            peak_at,
            mean: if samples.is_empty() {
                0.0
            } else {
                sum as f64 / samples.len() as f64
            },
        }
    }
}

/// The measured result of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario that produced this outcome.
    pub scenario: Scenario,
    /// Error rendered as text, if the run failed (step limit, engine error).
    pub error: Option<String>,
    /// Whether the network reached quiescence.
    pub quiescent: bool,
    /// Whether the workload's success predicate held at the end.
    pub success: bool,
    /// Nodes in the graph.
    pub nodes: usize,
    /// Edges in the graph.
    pub edges: usize,
    /// Length of the Robbins cycle used (0 if the run failed before one was
    /// available).
    pub cycle_len: usize,
    /// Deliveries performed.
    pub steps: u64,
    /// Frozen communication counters of the simulated run.
    pub stats: StatsSnapshot,
    /// Pulses spent in the construction phase (`CCinit`; 0 in cycle mode; in
    /// replay mode the checkpoint's one-time cost, identical across seeds).
    pub cc_init: u64,
    /// Pulses spent in the online phase.
    pub online_pulses: u64,
    /// True when a full-mode run aborted mid-construction with per-node
    /// construction pulses exceeding the network's send accounting
    /// (`cc_init > sent_total`): `online_pulses` saturated to 0 and is a
    /// placeholder, not a measurement.
    pub construction_skew: bool,
    /// Messages of the noiseless direct baseline (0 when the workload cannot
    /// run directly **or** the baseline run failed — see
    /// [`baseline_error`](Self::baseline_error) for the difference).
    pub baseline_messages: u64,
    /// The baseline run's failure rendered as text, if it failed. Kept
    /// distinct from "the workload has no baseline" so reports can render an
    /// explicit marker instead of silently dropping the overhead column.
    pub baseline_error: Option<String>,
    /// One-shot diagnostic recorded when a full-mode run stopped (step
    /// budget) with nodes still mid-construction: active links, deepest
    /// queue, per-node stage histogram, token holder if visible. `None` for
    /// healthy runs, so pre-existing report bytes are untouched.
    pub stall_diagnostic: Option<String>,
    /// Summary of the in-flight depth curve when the run was sampled
    /// (`--sample-every`); `None` for unsampled runs.
    pub inflight_curve: Option<InflightCurve>,
}

impl ScenarioOutcome {
    /// Online pulses per baseline message (the paper's per-message overhead),
    /// if a baseline exists. Skew-flagged runs return `None`: their
    /// `online_pulses` of 0 is a placeholder (see
    /// [`construction_skew`](Self::construction_skew)), and a placeholder
    /// divided by a baseline is still a placeholder — never a ratio to
    /// aggregate.
    pub fn overhead_ratio(&self) -> Option<f64> {
        (self.baseline_messages > 0 && !self.construction_skew)
            .then(|| self.online_pulses as f64 / self.baseline_messages as f64)
    }

    fn failed(scenario: Scenario, nodes: usize, edges: usize, error: String) -> Self {
        ScenarioOutcome {
            scenario,
            error: Some(error),
            quiescent: false,
            success: false,
            nodes,
            edges,
            cycle_len: 0,
            steps: 0,
            stats: StatsSnapshot::default(),
            cc_init: 0,
            online_pulses: 0,
            construction_skew: false,
            baseline_messages: 0,
            baseline_error: None,
            stall_diagnostic: None,
            inflight_curve: None,
        }
    }
}

/// The noiseless direct baseline of one scenario, memoized or freshly run.
struct Baseline {
    messages: u64,
    error: Option<String>,
}

/// Runs (or recalls) the noiseless direct baseline. Memoized across the
/// noise × encoding axes: the baseline simulation sees neither, so for a
/// fixed (family, workload, scheduler, seed) every such cell shares one
/// bit-identical run. The step budget rides along with the campaign (it is
/// uniform within one run, so it is deliberately not part of the key).
fn baseline_for(caches: &Caches, scenario: Scenario, graph: &fdn_graph::Graph) -> Baseline {
    let cell = scenario.cell;
    if !cell.workload.supports_direct() {
        return Baseline {
            messages: 0,
            error: None,
        };
    }
    let key = BaselineKey {
        family: cell.family,
        workload: cell.workload,
        scheduler: cell.scheduler,
        seed: scenario.seed,
    };
    let result = caches.baseline.get(key, || {
        let nodes: Vec<DirectRunner<BoxedProtocol>> = graph
            .nodes()
            .map(|v| DirectRunner::new(cell.workload.build(graph, v)))
            .collect();
        let mut sim = Simulation::new(graph.clone(), nodes)
            .map_err(|e| e.to_string())?
            .with_scheduler_boxed(cell.scheduler.build(scenario.seed ^ SCHED_SALT))
            .with_max_steps(scenario.max_steps);
        sim.run().map_err(|e| e.to_string())?;
        Ok(sim.stats().sent_total)
    });
    match result {
        Ok(messages) => Baseline {
            messages,
            error: None,
        },
        Err(e) => Baseline {
            messages: 0,
            error: Some(e),
        },
    }
}

/// Runs one scenario to completion, drawing shared work (topology, replay
/// checkpoints, baselines) from `caches`. Never panics on expected failure
/// modes; engine errors and step-limit exhaustion are reported in the
/// outcome.
pub fn run_scenario_with(caches: &Caches, scenario: Scenario) -> ScenarioOutcome {
    run_scenario_observed(caches, scenario, NullObserver).0
}

/// Like [`run_scenario_with`], but threads an [`Observer`] through the
/// simulation and hands it back alongside the outcome. `run_scenario_with`
/// is this function monomorphized at [`NullObserver`]: the no-observer path
/// compiles to the exact un-instrumented code, which is what keeps no-flag
/// `fdn-lab run` output byte-identical to pre-observer builds.
pub fn run_scenario_observed<O: Observer>(
    caches: &Caches,
    scenario: Scenario,
    observer: O,
) -> (ScenarioOutcome, O) {
    let cell = scenario.cell;
    let topo = caches.topology.get(cell.family);
    let (nodes_n, edges_n) = topo
        .as_ref()
        .map_or((0, 0), |t| (t.graph.node_count(), t.graph.edge_count()));
    // The one exit of a run that could not be set up.
    let fail = |error: String, observer: O| {
        (
            ScenarioOutcome::failed(scenario, nodes_n, edges_n, error),
            observer,
        )
    };
    let topo = match topo {
        Ok(t) => t,
        Err(e) => return fail(e, observer),
    };
    let graph = &topo.graph;

    // Noiseless direct baseline (for the per-message overhead column).
    let baseline = baseline_for(caches, scenario, graph);

    // The content-oblivious run. Every engine mode runs the same reactor;
    // the modes differ only in where its nodes start.
    let encoding = cell.encoding.build();
    let factory = |v| cell.workload.build(graph, v);
    let (sims, links) = match cell.mode {
        // The distributed construction runs inside the simulation and is
        // seed-dependent; only the graph itself comes from the cache.
        EngineMode::Full => (
            full_simulators(graph, WorkloadSpec::ROOT, encoding, factory),
            None,
        ),
        // The reference cycle is seed-independent: computed once per family
        // by the cache, validated there, and re-handed to fresh simulator
        // nodes for every seed.
        EngineMode::CycleOnly => match &topo.cycle {
            Ok(cycle) => (
                cycle_simulators_prevalidated(graph, cycle, encoding, factory),
                None,
            ),
            Err(e) => return fail(e.clone(), observer),
        },
        // Construct once, replay the online phase: the distributed
        // construction (under full corruption, seeded by the recorded
        // construction seed) is shared by the whole seed range; this
        // scenario's own seed feeds only the online-phase noise and
        // scheduler. Warm start: the construction's registered link table
        // is reused instead of re-registering links for every seed.
        EngineMode::Replay => match caches
            .construction
            .get(&caches.topology, replay_key(scenario))
        {
            Ok(construction) => (
                replay_simulators(graph, &construction.checkpoint, factory),
                Some(construction.links.clone()),
            ),
            Err(e) => return fail(e, observer),
        },
    };
    let sims = match sims {
        Ok(s) => s,
        Err(e) => return fail(e.to_string(), observer),
    };
    drive(scenario, graph, baseline, links, sims, observer)
        .unwrap_or_else(|(error, observer)| fail(error, observer))
}

/// The construct-once key of a replay scenario.
pub(crate) fn replay_key(scenario: Scenario) -> ReplayKey {
    ReplayKey {
        family: scenario.cell.family,
        encoding: scenario.cell.encoding,
        scheduler: scenario.cell.scheduler,
        construction_seed: scenario.construction_seed,
    }
}

/// Renders the one-shot stall diagnostic for a run that stopped without
/// reaching quiescence while nodes were still mid-construction — the
/// step-budget-exhaustion path behind the `construction_skew` flag. Instead
/// of only the flag, the outcome carries what the network looked like at the
/// moment of death: how many links still had traffic, how deep the worst
/// queue was, which construction stage each node was stuck in, and where the
/// cycle token was (if any engine already held it). `None` once every node
/// is online, so runs whose nodes start online never carry one.
fn stall_diagnostic<O: Observer>(
    graph: &fdn_graph::Graph,
    sim: &Simulation<FullSimulator<BoxedProtocol>, O>,
) -> Option<String> {
    if sim.is_quiescent() {
        return None;
    }
    let offline = graph.nodes().filter(|&v| !sim.node(v).is_online()).count();
    if offline == 0 {
        return None;
    }
    let view = sim.link_view();
    let active = view.active().len();
    let deepest = view
        .active()
        .iter()
        .map(|&l| view.queue_len(l))
        .max()
        .unwrap_or(0);
    // Stage histogram in node-id order of first appearance: deterministic,
    // and it reads in the same order the stages are reached.
    let mut stages: Vec<(&'static str, usize)> = Vec::new();
    for v in graph.nodes() {
        let stage = sim.node(v).stage();
        match stages.iter_mut().find(|(name, _)| *name == stage) {
            Some((_, n)) => *n += 1,
            None => stages.push((stage, 1)),
        }
    }
    let stages = stages
        .iter()
        .map(|(stage, n)| format!("{stage}:{n}"))
        .collect::<Vec<_>>()
        .join(" ");
    let token = graph
        .nodes()
        .find(|&v| sim.node(v).holds_token())
        .map_or_else(|| "unassigned".to_string(), |v| format!("at {v}"));
    Some(format!(
        "stalled mid-construction: {offline} node(s) offline, {active} active link(s), \
         deepest queue {deepest}, stages [{stages}], token {token}"
    ))
}

/// Runs an already-built node set under the scenario's noise/scheduler and
/// assembles the outcome. A pre-registered `links` table (replay warm start)
/// skips per-seed link registration. Fails, handing the observer back, when
/// the simulation cannot be built.
fn drive<O: Observer>(
    scenario: Scenario,
    graph: &fdn_graph::Graph,
    baseline: Baseline,
    links: Option<LinkTable>,
    sims: Vec<FullSimulator<BoxedProtocol>>,
    observer: O,
) -> Result<(ScenarioOutcome, O), (String, O)> {
    let cell = scenario.cell;
    let (nodes_n, edges_n) = (graph.node_count(), graph.edge_count());
    let built = match links {
        Some(links) => Simulation::from_parts(graph.clone(), links, sims),
        None => Simulation::new(graph.clone(), sims),
    };
    // `with_link_store` converts the queue representation before the first
    // event; on the replay warm-start path this re-homes the cached exact
    // table's clone onto the counting store (the registry survives, and the
    // pristine queues have nothing to lose).
    let mut sim = match built {
        Ok(s) => s
            .with_link_store(scenario.link_store)
            .with_observer(observer),
        Err(e) => return Err((e.to_string(), observer)),
    };
    sim = sim
        .with_noise_boxed(cell.noise.build(scenario.seed ^ NOISE_SALT))
        .with_scheduler_boxed(cell.scheduler.build(scenario.seed ^ SCHED_SALT))
        .with_max_steps(scenario.max_steps);
    let run = sim.run();
    let stats = sim.stats().snapshot();
    let error = match run {
        Ok(_) => graph
            .nodes()
            .find_map(|v| sim.node(v).error().map(ToString::to_string)),
        Err(e) => Some(e.to_string()),
    };
    // A node's construction share is its part of `CCinit`, whether it was
    // paid inside this simulation (full mode) or before it (replay).
    let cc_init = graph
        .nodes()
        .map(|v| sim.node(v).construction_pulses())
        .sum();
    let cycle_len = sim
        .node(WorkloadSpec::ROOT)
        .cycle()
        .map_or(0, fdn_graph::RobbinsCycle::len);
    let stall = stall_diagnostic(graph, &sim);
    let outputs = sim.outputs();
    let quiescent = sim.is_quiescent();
    let (online_pulses, construction_skew) =
        online_split(stats.sent_total, cc_init, cell.mode == EngineMode::Full);
    let outcome = ScenarioOutcome {
        scenario,
        success: error.is_none() && quiescent && cell.workload.is_success(graph, &outputs),
        error,
        quiescent,
        nodes: nodes_n,
        edges: edges_n,
        cycle_len,
        steps: stats.delivered_total,
        cc_init,
        online_pulses,
        construction_skew,
        stats,
        baseline_messages: baseline.messages,
        baseline_error: baseline.error,
        stall_diagnostic: stall,
        inflight_curve: None,
    };
    Ok((outcome, sim.into_observer()))
}

/// Splits a run's send total into `(online_pulses, construction_skew)`.
///
/// In full mode (`cc_init_in_stats`), the construction pulses live inside
/// the simulation's send accounting and are subtracted out. A run aborted
/// mid-construction can report per-node construction pulses that were
/// counted but never entered the outbox accounting (`cc_init > sent_total`):
/// the subtraction saturates to 0 **and the skew is flagged**, so the 0 is
/// recognizable as a placeholder rather than a measured online cost. In
/// replay mode the construction was paid outside this simulation, so every
/// send the run made is online traffic and no skew is possible.
fn online_split(sent_total: u64, cc_init: u64, cc_init_in_stats: bool) -> (u64, bool) {
    if cc_init_in_stats {
        (sent_total.saturating_sub(cc_init), cc_init > sent_total)
    } else {
        (sent_total, false)
    }
}

/// Per-invocation options of [`run_campaign`]: which slice of the matrix to
/// run and whether to sample every run. Neither changes what a cell
/// measures, only which cells run and what rides along.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Run only this cell-atomic slice of the expansion (`--shard K/M`).
    pub shard: Option<Shard>,
    /// Attach a [`TimeSeriesSampler`] with this stride to every run, so each
    /// cell reports an in-flight curve (`--sample-every K`).
    pub sample_every: Option<u64>,
}

/// Wall-clock cost of one cell, summed over its scenarios. This is the
/// payload of the `--timings` sidecar and is deliberately kept out of
/// [`CampaignReport`]: wall time is nondeterministic and must never enter a
/// byte-compared artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTiming {
    /// The cell's compact identifier ([`crate::spec::Cell::id`]).
    pub cell: String,
    /// Total wall-clock milliseconds spent running this cell's scenarios
    /// (work time, not span — parallel scenarios sum their individual
    /// durations).
    pub wall_ms: f64,
    /// Number of scenario runs the total covers.
    pub runs: usize,
}

/// Expands `campaign`, keeps the shard's slice, runs every scenario in
/// parallel (rayon) and aggregates the report, drawing shared work from
/// `caches` — the hook through which `--store DIR` threads a persistent
/// checkpoint store under the replay tier. The caches only accelerate: the
/// report bytes are identical whichever caches are passed, and independent
/// of thread count and interleaving.
///
/// Alongside the report comes each cell's wall-clock cost, listed in the
/// deterministic expansion order of the cells; only the `wall_ms` values
/// themselves are nondeterministic.
///
/// A shard is allowed to be empty — a campaign sharded `K/M` with fewer
/// cells than `M` leaves the high-index shards empty, and a CI matrix that
/// runs all `M` shards still needs every shard's report for
/// [`crate::report::merge_reports`] (an empty one merges neutrally: no
/// cells, the same skip list).
///
/// # Errors
///
/// Returns [`LabError::EmptyCampaign`] if the unsharded matrix expands to no
/// runnable scenario.
pub fn run_campaign(
    caches: &Caches,
    campaign: &Campaign,
    opts: RunOptions,
) -> Result<(CampaignReport, Vec<CellTiming>), LabError> {
    let (mut scenarios, skipped) = campaign.expand_with_skips();
    match opts.shard {
        Some(shard) => scenarios = shard_slice(&scenarios, shard),
        None if scenarios.is_empty() => return Err(LabError::EmptyCampaign),
        None => {}
    }
    let timed: Vec<(ScenarioOutcome, f64)> = scenarios
        .into_par_iter()
        .map(|s| {
            let watch = crate::timing::Stopwatch::start();
            let outcome = match opts.sample_every {
                Some(every) => {
                    let sampler = TimeSeriesSampler::new(every, DEFAULT_SAMPLE_CAPACITY);
                    let (mut outcome, sampler) = run_scenario_observed(caches, s, sampler);
                    outcome.inflight_curve = Some(InflightCurve::from_sampler(&sampler));
                    outcome
                }
                None => run_scenario_with(caches, s),
            };
            (outcome, watch.elapsed_ms())
        })
        .collect();
    // Expansion (and so the collected order) lists each cell's seeds as one
    // contiguous block.
    let timings = timed
        .chunk_by(|(a, _), (b, _)| a.scenario.cell == b.scenario.cell)
        .map(|block| CellTiming {
            cell: block[0].0.scenario.cell.id(),
            wall_ms: block.iter().map(|(_, ms)| ms).sum(),
            runs: block.len(),
        })
        .collect();
    let outcomes: Vec<ScenarioOutcome> = timed.into_iter().map(|(o, _)| o).collect();
    Ok((
        aggregate(campaign, &outcomes, &skipped, &caches.topology),
        timings,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Cell, EncodingSpec, SeedRange};
    use fdn_graph::GraphFamily;
    use fdn_netsim::{NoiseSpec, SchedulerSpec};

    /// One-off run with private, throwaway caches.
    fn run_scenario(scenario: Scenario) -> ScenarioOutcome {
        run_scenario_with(&Caches::new(), scenario)
    }

    fn scenario(cell: Cell, seed: u64) -> Scenario {
        scenario_with_construction(cell, seed, seed)
    }

    fn scenario_with_construction(cell: Cell, seed: u64, construction_seed: u64) -> Scenario {
        Scenario {
            index: 0,
            cell,
            seed,
            construction_seed,
            max_steps: 2_000_000,
            link_store: fdn_netsim::LinkStore::Exact,
        }
    }

    fn base_cell() -> Cell {
        Cell {
            family: GraphFamily::Figure3,
            mode: EngineMode::Full,
            encoding: EncodingSpec::Binary,
            workload: WorkloadSpec::Flood { payload_bytes: 3 },
            noise: NoiseSpec::FullCorruption,
            scheduler: SchedulerSpec::Random,
        }
    }

    #[test]
    fn full_mode_flood_succeeds_under_total_corruption() {
        let out = run_scenario(scenario(base_cell(), 7));
        assert_eq!(out.error, None);
        assert!(out.quiescent);
        assert!(out.success);
        assert!(out.cc_init > 0, "construction spends pulses");
        assert!(out.online_pulses > 0);
        assert!(out.baseline_messages > 0);
        assert_eq!(out.baseline_error, None);
        assert!(!out.construction_skew);
        assert_eq!(out.nodes, 5);
        assert_eq!(out.cycle_len, 8);
        assert_eq!(out.stats.sent_total, out.cc_init + out.online_pulses);
        assert!(out.overhead_ratio().unwrap() > 1.0);
    }

    #[test]
    fn cycle_mode_skips_construction() {
        let mut cell = base_cell();
        cell.mode = EngineMode::CycleOnly;
        let out = run_scenario(scenario(cell, 7));
        assert_eq!(out.error, None);
        assert!(out.success);
        assert_eq!(out.cc_init, 0);
        assert_eq!(out.online_pulses, out.stats.sent_total);
        assert!(out.cycle_len >= 6);
    }

    #[test]
    fn replay_mode_reports_the_checkpoint_cost_once() {
        let caches = Caches::new();
        let mut cell = base_cell();
        cell.mode = EngineMode::Replay;
        let mut cc_inits = Vec::new();
        for seed in [7, 8, 9] {
            let out = run_scenario_with(&caches, scenario_with_construction(cell, seed, 7));
            assert_eq!(out.error, None, "seed {seed}");
            assert!(out.quiescent && out.success, "seed {seed}");
            assert!(out.cc_init > 0);
            assert!(!out.construction_skew);
            // The simulation's own traffic is purely online: no subtraction.
            assert_eq!(out.online_pulses, out.stats.sent_total);
            assert!(out.online_pulses > 0);
            cc_inits.push(out.cc_init);
        }
        // One construction, one cc_init, shared by the whole seed range.
        assert!(cc_inits.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(caches.construction.len(), 1);
    }

    #[test]
    fn replay_agrees_with_full_mode_on_the_construction() {
        // A full-mode run of seed s and a replay checkpoint built with
        // construction seed s pass through the *same* boundary: identical
        // `CCinit`, identical learned cycle. (The construction is
        // content-oblivious, so the noise stream cannot steer it; with equal
        // scheduler streams the trajectories coincide event for event.)
        let caches = Caches::new();
        for seed in [3, 7, 11] {
            let full = run_scenario_with(&caches, scenario(base_cell(), seed));
            let mut cell = base_cell();
            cell.mode = EngineMode::Replay;
            let replay = run_scenario_with(&caches, scenario_with_construction(cell, seed, seed));
            assert_eq!(replay.cc_init, full.cc_init, "seed {seed}");
            assert_eq!(replay.cycle_len, full.cycle_len, "seed {seed}");
            assert!(full.success && replay.success);
        }
    }

    #[test]
    fn same_seed_reproduces_the_exact_outcome() {
        let a = run_scenario(scenario(base_cell(), 41));
        let b = run_scenario(scenario(base_cell(), 41));
        assert_eq!(a, b);
        // A different seed still yields a correct (if possibly differently
        // scheduled) run; pulse totals may legitimately coincide.
        let c = run_scenario(scenario(base_cell(), 42));
        assert!(c.success);
    }

    #[test]
    fn baseline_is_memoized_across_the_noise_axis() {
        // The baseline depends on (family, workload, scheduler, seed) only:
        // sweeping the noise axis hits one cached baseline per seed, and the
        // memoized value matches a fresh computation exactly.
        let caches = Caches::new();
        let mut baselines = Vec::new();
        for noise in [
            NoiseSpec::Noiseless,
            NoiseSpec::FullCorruption,
            NoiseSpec::ConstantOne,
        ] {
            let mut cell = base_cell();
            cell.noise = noise;
            let out = run_scenario_with(&caches, scenario(cell, 5));
            baselines.push(out.baseline_messages);
        }
        assert!(baselines.iter().all(|&b| b == baselines[0] && b > 0));
        assert_eq!(caches.baseline.len(), 1, "one baseline for three noises");
        let fresh = run_scenario(scenario(base_cell(), 5));
        assert_eq!(fresh.baseline_messages, baselines[0]);
    }

    #[test]
    fn deletion_noise_degrades_but_never_panics() {
        // The paper's construction assumes no deletion (Theorem 2); once the
        // channel may drop pulses, runs are expected to lose success or
        // quiescence — but the outcome must stay a plain value: no panic, no
        // hang (the step limit absorbs stalls).
        for noise in fdn_netsim::NoiseSpec::DELETION {
            let mut cell = base_cell();
            cell.noise = noise;
            for seed in [1, 2] {
                let out = run_scenario(scenario(cell, seed));
                assert_eq!(out.nodes, 5, "{noise}");
                // Whatever happened, the accounting is coherent — and at
                // quiescence it is *exact*: every sent message was delivered
                // or dropped, none leaked in flight.
                if out.quiescent {
                    assert_eq!(
                        out.stats.delivered_total + out.stats.dropped_total,
                        out.stats.sent_total,
                        "{noise}"
                    );
                } else {
                    assert!(
                        out.stats.delivered_total + out.stats.dropped_total < out.stats.sent_total,
                        "{noise}: a non-quiescent run must have messages in flight"
                    );
                }
                if out.error.is_none() {
                    assert!(out.quiescent);
                }
            }
        }
        // An aggressive omission rate reliably breaks the construction:
        // pulses vanish, so the engine stalls into early quiescence (or the
        // step limit) without completing the workload.
        let mut cell = base_cell();
        cell.noise = fdn_netsim::NoiseSpec::Omission {
            drop_per_mille: 500,
        };
        let out = run_scenario(scenario(cell, 3));
        assert!(!out.success);
        assert!(out.stats.dropped_total > 0);
    }

    #[test]
    fn online_split_flags_skew_instead_of_fake_zero() {
        // Coherent full-mode accounting: plain subtraction, no flag.
        assert_eq!(online_split(100, 30, true), (70, false));
        assert_eq!(online_split(30, 30, true), (0, false));
        // Aborted mid-construction: the saturated 0 is flagged as skew, not
        // passed off as a measured online cost.
        assert_eq!(online_split(20, 30, true), (0, true));
        // Replay pays cc_init outside the simulation: sends are all online,
        // skew impossible by construction.
        assert_eq!(online_split(100, 30, false), (100, false));
        assert_eq!(online_split(20, 30, false), (20, false));
    }

    #[test]
    fn deletion_outcomes_never_mistake_skew_for_a_measurement() {
        // Sweep deletion seeds: every outcome must keep the flag and the
        // subtraction coherent — a flagged run saturated to 0 with
        // cc_init > sent_total, an unflagged run subtracts exactly.
        let mut cell = base_cell();
        cell.noise = fdn_netsim::NoiseSpec::Omission {
            drop_per_mille: 500,
        };
        for seed in 1..24 {
            let out = run_scenario(scenario(cell, seed));
            if out.construction_skew {
                assert_eq!(out.online_pulses, 0, "skewed runs saturate to 0");
                assert!(out.cc_init > out.stats.sent_total);
                assert!(!out.success);
                // The placeholder never masquerades as a per-message ratio.
                assert_eq!(out.overhead_ratio(), None);
            } else {
                assert!(out.cc_init <= out.stats.sent_total, "seed {seed}");
                assert_eq!(
                    out.online_pulses,
                    out.stats.sent_total - out.cc_init,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn delete_everything_adversary_is_absorbed_by_the_drop_path() {
        let mut cell = base_cell();
        cell.noise = fdn_netsim::NoiseSpec::Omission {
            drop_per_mille: 1000,
        };
        let out = run_scenario(scenario(cell, 9));
        assert!(!out.success);
        assert_eq!(out.stats.delivered_total, 0);
        assert!(out.stats.dropped_total > 0);
        // Dropping every message drains the network: quiescent, not hung —
        // and the drop accounting is exact.
        assert!(out.quiescent);
        assert_eq!(out.stats.dropped_total, out.stats.sent_total);
        assert_eq!(out.error, None);
    }

    #[test]
    fn non_two_edge_connected_family_fails_cleanly() {
        let mut cell = base_cell();
        cell.family = GraphFamily::Path { n: 4 };
        let out = run_scenario(scenario(cell, 1));
        assert!(out.error.is_some());
        assert!(!out.success);
        // Replay mode fails just as cleanly (the checkpoint cannot build).
        cell.mode = EngineMode::Replay;
        let out = run_scenario(scenario(cell, 1));
        assert!(out.error.is_some());
        assert!(!out.success);
    }

    #[test]
    fn sampled_runs_only_add_the_curve() {
        let caches = Caches::new();
        let plain = run_scenario_with(&caches, scenario(base_cell(), 7));
        let (sampled, sampler) = run_scenario_observed(
            &caches,
            scenario(base_cell(), 7),
            TimeSeriesSampler::new(8, DEFAULT_SAMPLE_CAPACITY),
        );
        let curve = InflightCurve::from_sampler(&sampler);
        // The sampler only listens: the outcomes match field for field,
        // stats included.
        assert_eq!(sampled, plain);
        assert!(curve.samples > 0);
        assert!(curve.sample_every >= 8 && curve.sample_every.is_multiple_of(8));
        assert!(curve.peak >= 1);
        assert!(curve.peak_at <= plain.steps);
        assert!(curve.mean > 0.0);
        assert_eq!(plain.inflight_curve, None);
        assert_eq!(plain.stall_diagnostic, None);
    }

    #[test]
    fn step_budget_exhaustion_mid_construction_gets_a_diagnostic() {
        let mut starved = scenario(base_cell(), 7);
        starved.max_steps = 4;
        let out = run_scenario(starved);
        assert!(out.error.is_some());
        assert!(!out.quiescent);
        let diag = out.stall_diagnostic.expect("diagnostic recorded");
        assert!(diag.contains("stalled mid-construction"), "{diag}");
        assert!(diag.contains("active link"), "{diag}");
        assert!(diag.contains("stages ["), "{diag}");
        assert!(diag.contains("token "), "{diag}");
    }

    #[test]
    fn run_campaign_times_every_cell_and_samples_every_run() {
        let mut campaign = Campaign::new("unit");
        campaign.families = vec![GraphFamily::Figure3, GraphFamily::Cycle { n: 4 }];
        campaign.seeds = SeedRange { start: 1, count: 2 };
        let runs = campaign.expand().len();
        let sampled = RunOptions {
            sample_every: Some(16),
            ..RunOptions::default()
        };
        let (report, timings) = run_campaign(&Caches::new(), &campaign, sampled).unwrap();
        assert_eq!(report.scenario_count, runs);
        assert_eq!(timings.len(), report.cells.len());
        assert_eq!(timings.iter().map(|t| t.runs).sum::<usize>(), runs);
        assert!(timings.iter().all(|t| t.wall_ms >= 0.0));
        assert!(report.cells.iter().all(|c| c.inflight_curve.is_some()));
        // Without sampling, the same cells aggregate without the curve.
        let (unsampled, _) =
            run_campaign(&Caches::new(), &campaign, RunOptions::default()).unwrap();
        assert!(unsampled.cells.iter().all(|c| c.inflight_curve.is_none()));
        assert_eq!(unsampled.cells[0].pulses, report.cells[0].pulses);
    }

    #[test]
    fn run_campaign_rejects_empty_expansions_but_not_empty_shards() {
        let mut campaign = Campaign::new("unit");
        campaign.families = vec![GraphFamily::Figure3, GraphFamily::Cycle { n: 4 }];
        campaign.seeds = SeedRange { start: 1, count: 2 };
        let (report, _) = run_campaign(&Caches::new(), &campaign, RunOptions::default()).unwrap();
        assert_eq!(report.scenario_count, 4);
        assert_eq!(report.cells.len(), 2);

        // Two cells, three shards: the tail shard is empty but still a report.
        let tail = RunOptions {
            shard: Some(Shard { index: 2, count: 3 }),
            ..RunOptions::default()
        };
        let (empty, timings) = run_campaign(&Caches::new(), &campaign, tail).unwrap();
        assert!(empty.cells.is_empty() && timings.is_empty());
        assert_eq!(empty.skipped, report.skipped);

        campaign.families = vec![GraphFamily::Path { n: 3 }];
        assert!(matches!(
            run_campaign(&Caches::new(), &campaign, RunOptions::default()),
            Err(LabError::EmptyCampaign)
        ));
    }
}
