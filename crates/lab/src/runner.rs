//! Execution of a single [`Scenario`] and of whole campaigns in parallel.
//!
//! Each scenario is an independent deterministic simulation: the
//! noise/scheduler instances are rebuilt from their specs with seeds derived
//! from the scenario seed, and the outcome is a plain value. Work that is
//! identical across slices of the matrix — the seed-independent topology,
//! the construct-once replay checkpoints, the noiseless direct baselines —
//! comes from the shared [`Caches`], and [`run_campaign`] runs scenarios
//! that differ only in an alteration noise once (see `cache.rs` for the
//! soundness arguments). That sharing is read-only-after-build, which is
//! what makes the rayon sweep in [`run_campaign`] trivially safe — and,
//! because results are collected in scenario order and contain no
//! wall-clock data, byte-identical across runs regardless of thread count.

use std::collections::BTreeMap;

use rayon::prelude::*;

use fdn_core::{cycle_simulators_prevalidated, full_simulators, replay_simulators, FullSimulator};
use fdn_netsim::{
    DirectRunner, LinkTable, NoiseSpec, NullObserver, Observer, Reactor, Simulation, StatsSnapshot,
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

// Every engine mode runs this reactor, and alteration twins may share one
// run only because its deliveries take the pulse path (see `cache.rs`).
const _: () = assert!(<FullSimulator<BoxedProtocol> as Reactor>::DELIVERY.is_pulse());

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
    /// Every node's `(construction, online)` pulses, indexed by node id, as
    /// the node counted them; empty when the run could not be set up. The
    /// construction share is the node's part of `CCinit`, whether it was
    /// paid inside this simulation (full mode) or before it (replay mode).
    pub node_pulses: Vec<(u64, u64)>,
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
}

impl ScenarioOutcome {
    /// Pulses spent in the construction phase (`CCinit`; 0 in cycle mode; in
    /// replay mode the checkpoint's one-time cost, identical across seeds).
    pub fn cc_init(&self) -> u64 {
        self.node_pulses.iter().map(|p| p.0).sum()
    }

    /// Pulses spent in the online phase. With [`cc_init`](Self::cc_init) it
    /// splits the run's sends exactly: `stats.sent_total` is `cc_init() +
    /// online_pulses()` in full mode and `online_pulses()` in cycle and
    /// replay mode.
    pub fn online_pulses(&self) -> u64 {
        self.node_pulses.iter().map(|p| p.1).sum()
    }

    /// Online pulses per baseline message (the paper's per-message overhead),
    /// if a baseline exists.
    pub fn overhead_ratio(&self) -> Option<f64> {
        (self.baseline_messages > 0)
            .then(|| self.online_pulses() as f64 / self.baseline_messages as f64)
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
            node_pulses: Vec::new(),
            baseline_messages: 0,
            baseline_error: None,
            stall_diagnostic: None,
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
/// reaching quiescence while nodes were still mid-construction (its step
/// budget ran out): what the network looked like at the moment of death —
/// how many links still had traffic, how deep the worst queue was, which
/// construction stage each node was stuck in, and where the cycle token was
/// (if any engine already held it). `None` once every node is online, so
/// runs whose nodes start online never carry one.
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
    // Both shares are counted at the node, so the split is exact in every
    // mode and in aborted runs.
    let node_pulses = graph
        .nodes()
        .map(|v| {
            let node = sim.node(v);
            (node.construction_pulses(), node.online_pulses())
        })
        .collect();
    let cycle_len = sim
        .node(WorkloadSpec::ROOT)
        .cycle()
        .map_or(0, fdn_graph::RobbinsCycle::len);
    let stall = stall_diagnostic(graph, &sim);
    let outputs = sim.outputs();
    let quiescent = sim.is_quiescent();
    let outcome = ScenarioOutcome {
        scenario,
        success: error.is_none() && quiescent && cell.workload.is_success(graph, &outputs),
        error,
        quiescent,
        nodes: nodes_n,
        edges: edges_n,
        cycle_len,
        steps: stats.delivered_total,
        node_pulses,
        stats,
        baseline_messages: baseline.messages,
        baseline_error: baseline.error,
        stall_diagnostic: stall,
    };
    Ok((outcome, sim.into_observer()))
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
    /// Of those, the scenarios whose outcome was copied from an alteration
    /// twin's run (see [`run_campaign`]); they add nothing to `wall_ms`.
    pub shared: usize,
}

/// The execution `scenario` runs, as a scenario: its expansion index zeroed
/// and a noise that never deletes replaced by [`NoiseSpec::Noiseless`].
/// Scenarios with one execution are alteration twins, whose outcomes differ
/// only in [`ScenarioOutcome::scenario`] (see `cache.rs`).
fn execution(scenario: Scenario) -> Scenario {
    let mut cell = scenario.cell;
    if !cell.noise.deletes() {
        cell.noise = NoiseSpec::Noiseless;
    }
    Scenario {
        index: 0,
        cell,
        ..scenario
    }
}

/// Expands `campaign`, keeps `shard`'s cell-atomic slice (`--shard K/M`;
/// `None` runs the whole matrix), runs it in parallel (rayon) and
/// aggregates the report, drawing shared work from `caches` — the hook
/// through which `--store DIR` threads a persistent checkpoint store under
/// the replay tier. Alteration-noise twins (scenarios that differ only in a
/// noise that never deletes) run once: the first of each group, in
/// expansion order, is simulated, and every scenario of the group receives
/// a copy of its outcome under its own [`Scenario`] (see `cache.rs` for
/// why the copy is exact). Neither the caches nor the sharing change a
/// report byte, and the report is independent of thread count and
/// interleaving.
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
    shard: Option<Shard>,
) -> Result<(CampaignReport, Vec<CellTiming>), LabError> {
    let (mut scenarios, skipped) = campaign.expand_with_skips();
    match shard {
        Some(shard) => scenarios = shard_slice(&scenarios, shard),
        None if scenarios.is_empty() => return Err(LabError::EmptyCampaign),
        None => {}
    }
    // `runs` holds the first scenario of each execution, in expansion
    // order; `run_of[i]` is the position in `runs` of scenario i's. An
    // execution is found by its id, which leaves out only fields that are
    // uniform within a campaign (the zeroed index, the construction seed,
    // the step budget and the link store); the assertion holds that.
    let mut run_by_id: BTreeMap<String, usize> = BTreeMap::new();
    let mut runs: Vec<Scenario> = Vec::new();
    let run_of: Vec<usize> = scenarios
        .iter()
        .map(|&s| {
            let own = execution(s);
            let r = *run_by_id.entry(own.id()).or_insert_with(|| {
                runs.push(s);
                runs.len() - 1
            });
            assert!(
                execution(runs[r]) == own,
                "two executions share the id `{}`",
                own.id()
            );
            r
        })
        .collect();
    let ran: Vec<(ScenarioOutcome, f64)> = runs
        .into_par_iter()
        .map(|s| {
            let watch = crate::timing::Stopwatch::start();
            let outcome = run_scenario_with(caches, s);
            (outcome, watch.elapsed_ms())
        })
        .collect();
    // Each scenario receives its execution's outcome under its own identity;
    // only the scenario that ran carries the run's wall time.
    let timed: Vec<(ScenarioOutcome, Option<f64>)> = scenarios
        .into_iter()
        .zip(run_of)
        .map(|(scenario, r)| {
            let (outcome, ms) = &ran[r];
            let own = (outcome.scenario == scenario).then_some(*ms);
            let outcome = ScenarioOutcome {
                scenario,
                ..outcome.clone()
            };
            (outcome, own)
        })
        .collect();
    // Expansion (and so the collected order) lists each cell's seeds as one
    // contiguous block.
    let timings = timed
        .chunk_by(|(a, _), (b, _)| a.scenario.cell == b.scenario.cell)
        .map(|block| CellTiming {
            cell: block[0].0.scenario.cell.id(),
            wall_ms: block.iter().filter_map(|(_, ms)| *ms).sum(),
            runs: block.len(),
            shared: block.iter().filter(|(_, ms)| ms.is_none()).count(),
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
        assert!(out.cc_init() > 0, "construction spends pulses");
        assert!(out.online_pulses() > 0);
        assert!(out.baseline_messages > 0);
        assert_eq!(out.baseline_error, None);
        assert_eq!(out.nodes, 5);
        assert_eq!(out.cycle_len, 8);
        assert_eq!(out.stats.sent_total, out.cc_init() + out.online_pulses());
        assert!(out.overhead_ratio().unwrap() > 1.0);
    }

    #[test]
    fn cycle_mode_skips_construction() {
        let mut cell = base_cell();
        cell.mode = EngineMode::CycleOnly;
        let out = run_scenario(scenario(cell, 7));
        assert_eq!(out.error, None);
        assert!(out.success);
        assert_eq!(out.cc_init(), 0);
        assert_eq!(out.online_pulses(), out.stats.sent_total);
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
            assert!(out.cc_init() > 0);
            // The simulation's own traffic is purely online: no subtraction.
            assert_eq!(out.online_pulses(), out.stats.sent_total);
            assert!(out.online_pulses() > 0);
            cc_inits.push(out.cc_init());
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
            assert_eq!(replay.cc_init(), full.cc_init(), "seed {seed}");
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
    fn pulses_split_exactly_into_cc_init_and_online() {
        // The runner sums the nodes' own counters, so the split holds in
        // every mode, under deletion noise and in runs the step budget stops
        // mid-construction: full mode sends `CCinit` and the online pulses
        // inside the simulation, cycle and replay mode only online pulses
        // (replay paid its `CCinit` before).
        let caches = Caches::new();
        let budgets = [300, Campaign::new("unit").max_steps];
        let mut stopped_mid_construction = 0;
        for mode in [EngineMode::Full, EngineMode::CycleOnly, EngineMode::Replay] {
            for noise in [
                NoiseSpec::FullCorruption,
                NoiseSpec::Omission {
                    drop_per_mille: 500,
                },
            ] {
                for max_steps in budgets {
                    for seed in 1..7 {
                        let cell = Cell {
                            mode,
                            noise,
                            ..base_cell()
                        };
                        let out = run_scenario_with(
                            &caches,
                            Scenario {
                                max_steps,
                                ..scenario(cell, seed)
                            },
                        );
                        let case = format!("{mode:?} {noise} max_steps {max_steps} seed {seed}");
                        let split = match mode {
                            EngineMode::Full => out.cc_init() + out.online_pulses(),
                            EngineMode::CycleOnly | EngineMode::Replay => out.online_pulses(),
                        };
                        assert_eq!(out.stats.sent_total, split, "{case}");
                        stopped_mid_construction += usize::from(out.stall_diagnostic.is_some());
                    }
                }
            }
        }
        assert!(
            stopped_mid_construction > 0,
            "the 300-step budget must stop a construction"
        );
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
    fn run_campaign_times_every_cell() {
        let mut campaign = Campaign::new("unit");
        campaign.families = vec![GraphFamily::Figure3, GraphFamily::Cycle { n: 4 }];
        campaign.seeds = SeedRange { start: 1, count: 2 };
        let runs = campaign.expand().len();
        let (report, timings) = run_campaign(&Caches::new(), &campaign, None).unwrap();
        assert_eq!(report.scenario_count, runs);
        assert_eq!(timings.len(), report.cells.len());
        assert_eq!(timings.iter().map(|t| t.runs).sum::<usize>(), runs);
        assert!(timings.iter().all(|t| t.wall_ms >= 0.0));
    }

    #[test]
    fn run_campaign_rejects_empty_expansions_but_not_empty_shards() {
        let mut campaign = Campaign::new("unit");
        campaign.families = vec![GraphFamily::Figure3, GraphFamily::Cycle { n: 4 }];
        campaign.seeds = SeedRange { start: 1, count: 2 };
        let (report, _) = run_campaign(&Caches::new(), &campaign, None).unwrap();
        assert_eq!(report.scenario_count, 4);
        assert_eq!(report.cells.len(), 2);

        // Two cells, three shards: the tail shard is empty but still a report.
        let tail = Some(Shard { index: 2, count: 3 });
        let (empty, timings) = run_campaign(&Caches::new(), &campaign, tail).unwrap();
        assert!(empty.cells.is_empty() && timings.is_empty());
        assert_eq!(empty.skipped, report.skipped);

        campaign.families = vec![GraphFamily::Path { n: 3 }];
        assert!(matches!(
            run_campaign(&Caches::new(), &campaign, None),
            Err(LabError::EmptyCampaign)
        ));
    }
}
