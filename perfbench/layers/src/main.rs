//! The traced run of one benchmark workload: per-layer costs of the
//! `fdn-lab` workload given by its `run` flags.
//!
//! ```text
//! perfbench-layers [--store DIR] [--scratch DIR] [--report FILE] -- <fdn-lab run flags>
//! ```
//!
//! * `--store DIR`: a checkpoint store the workload's replay cells load
//!   from (built beforehand, as in the end-to-end run);
//! * `--scratch DIR`: where store writes are timed (default: a
//!   `perfbench-scratch` directory under the working directory);
//! * `--report FILE`: where to write the in-process campaign report, so
//!   the caller can check its counters against the pinned reference.
//!
//! Prints one JSON object: `metrics` (name → value) and `errors` (every
//! failed replay-faithfulness check; empty when the replays reproduced the
//! runs).

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use fdn_graph::{robbins, GraphFamily, NodeId};
use fdn_lab::{
    aggregate, percentile, run_scenario_observed, Caches, CampaignReport, CheckpointStore,
    EngineMode, Json, ReplayCache, ReplayKey, Scenario, Stopwatch,
};
use fdn_netsim::{Context, Reactor, Simulation};
use fdn_protocols::WorkloadSpec;
use perfbench_layers::observe::Clock;
use perfbench_layers::replay::{Costs, Measure};
use perfbench_layers::scenario::{replay_key, with_reactors};
use perfbench_layers::{campaign, nanos};

/// Repetitions of each short measurement (graph build, registration,
/// report rendering, checkpoint codec, store I/O); the median is reported.
const REPS: usize = 15;

/// At most this many cells get their first scenario replayed layer by layer.
const MAX_REPLAYED_CELLS: usize = 64;

struct Opts {
    store: Option<PathBuf>,
    scratch: PathBuf,
    report: Option<PathBuf>,
    lab_args: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        store: None,
        scratch: PathBuf::from("perfbench-scratch"),
        report: None,
        lab_args: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--" {
            opts.lab_args = it.cloned().collect();
            return Ok(opts);
        }
        let value = it
            .next()
            .map(PathBuf::from)
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--store" => opts.store = Some(value),
            "--scratch" => opts.scratch = value,
            "--report" => opts.report = Some(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Err("missing `-- <fdn-lab run flags>`".into())
}

/// Median wall time of repeated calls of `f`, in nanoseconds: up to `REPS`
/// calls within a quarter second, and at least three unless they take over
/// two seconds (one slow call is then measured once).
fn median_ns(mut f: impl FnMut()) -> f64 {
    let budget = Stopwatch::start();
    let mut times = Vec::with_capacity(REPS);
    loop {
        let watch = Stopwatch::start();
        f();
        times.push(nanos(watch.elapsed()) as f64);
        let spent = budget.elapsed();
        let enough = if times.len() < 3 {
            spent > Duration::from_secs(2)
        } else {
            spent > Duration::from_millis(250)
        };
        if times.len() == REPS || enough {
            break;
        }
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A reactor that does nothing: registration cost does not depend on the
/// reactor type.
struct Idle;

impl Reactor for Idle {
    fn on_start(&mut self, _ctx: &mut Context) {}
    fn on_message(&mut self, _from: NodeId, _payload: &[u8], _ctx: &mut Context) {}
}

/// Distinct values in first-seen order.
fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for x in items {
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

/// What the sequential runner pass measured.
#[derive(Default)]
struct Pass {
    outcomes: Vec<fdn_lab::ScenarioOutcome>,
    scenario_ms: Vec<f64>,
    overhead_ns: u64,
    construction_ns: u64,
    construction_deliveries: u64,
}

/// Runs every scenario in expansion order on one thread, through the
/// runner's public entry point, with a [`Clock`] splitting each scenario at
/// the start of `Simulation::run`: what comes before (caches, the direct
/// baseline, reactor building, registration) is runner overhead; the
/// outcome assembly after the run is counted with the run.
fn runner_pass(caches: &Caches, scenarios: &[Scenario]) -> Pass {
    let mut pass = Pass::default();
    for &scenario in scenarios {
        let (outcome, clock) = run_scenario_observed(caches, scenario, Clock::new());
        let end = clock.now();
        let started = clock.started.unwrap_or(end);
        pass.scenario_ms.push(end.as_secs_f64() * 1e3);
        pass.overhead_ns += nanos(started);
        if scenario.cell.mode == EngineMode::Full {
            // A construction a deletion adversary stalled lasts the whole run.
            let (at, deliveries) = clock.constructed.unwrap_or((end, outcome.steps));
            pass.construction_ns += nanos(at.saturating_sub(started));
            pass.construction_deliveries += deliveries;
        }
        pass.outcomes.push(outcome);
    }
    pass
}

/// Median `Simulation::new` (or the replay warm start's `from_parts`) per
/// scenario, in microseconds, averaged over the scenarios.
fn register_us(caches: &Caches, scenarios: &[Scenario]) -> Result<f64, String> {
    // Registration depends only on the topology (and the warm table).
    let mut measured: Vec<((GraphFamily, Option<ReplayKey>), f64)> = Vec::new();
    let mut total = 0.0;
    for s in scenarios {
        let (family, key) = (
            s.cell.family,
            (s.cell.mode == EngineMode::Replay).then(|| replay_key(s)),
        );
        if let Some(&(_, ns)) = measured.iter().find(|(k, _)| *k == (family, key)) {
            total += ns;
            continue;
        }
        let graph = caches.topology.get(family)?.graph.clone();
        let warm = match key {
            Some(key) => Some(caches.construction.get(&caches.topology, key)?),
            None => None,
        };
        let n = graph.node_count();
        let ns = median_ns(|| {
            let idle: Vec<Idle> = (0..n).map(|_| Idle).collect();
            let sim = match &warm {
                Some(c) => Simulation::from_parts(graph.clone(), c.links.clone(), idle),
                None => Simulation::new(graph.clone(), idle),
            };
            black_box(sim.expect("registration of a validated topology"));
        });
        measured.push(((family, key), ns));
        total += ns;
    }
    Ok(ratio(total, scenarios.len() as f64) / 1e3)
}

fn run(
    opts: &Opts,
    metrics: &mut Vec<(&'static str, f64)>,
    errors: &mut Vec<String>,
) -> Result<(), String> {
    let campaign = campaign::parse(&opts.lab_args)?;
    let (scenarios, skipped) = campaign.expand_with_skips();
    if scenarios.is_empty() {
        return Err("the workload expands to no scenario".into());
    }

    // fdn-graph: the family build plus the reference cycle, as the topology
    // cache pays it once per family.
    let families: Vec<GraphFamily> = distinct(scenarios.iter().map(|s| s.cell.family));
    let mut build_ns = 0.0;
    for family in &families {
        build_ns += median_ns(|| {
            let graph = family.build().expect("expanded families build");
            black_box(robbins::reference_robbins_cycle(&graph, WorkloadSpec::ROOT).ok());
        });
    }
    metrics.push(("graph.build_ms", build_ns / 1e6));

    // fdn-lab runner, caches and store, through one sequential pass.
    let store = opts
        .store
        .as_deref()
        .map(CheckpointStore::open)
        .transpose()?
        .map(Arc::new);
    let caches = Caches::with_store(store.clone());
    let pass = runner_pass(&caches, &scenarios);
    let mut sorted = pass.scenario_ms.clone();
    sorted.sort_by(f64::total_cmp);
    metrics.push(("runner.scenarios", scenarios.len() as f64));
    metrics.push(("runner.scenario_ms.p50", percentile(&sorted, 50.0)));
    metrics.push(("runner.scenario_ms.p99", percentile(&sorted, 99.0)));
    metrics.push(("runner.overhead_ms", pass.overhead_ns as f64 / 1e6));
    let lookups = scenarios
        .iter()
        .filter(|s| s.cell.workload.supports_direct())
        .count() as f64;
    let baseline_hits = lookups - caches.baseline.len() as f64;
    metrics.push(("cache.baseline_lookups", lookups));
    metrics.push(("cache.baseline_hit_ratio", ratio(baseline_hits, lookups)));
    metrics.push((
        "cache.topology_hits",
        (scenarios.len() - caches.topology.len()) as f64,
    ));
    let store_stats = store.as_ref().map(|s| s.stats()).unwrap_or_default();
    metrics.push(("store.hits", store_stats.hits as f64));
    metrics.push(("store.misses", store_stats.misses as f64));

    // fdn-lab report: aggregation, the three renderings and the parse back.
    let mut report = None;
    let aggregate_ns = median_ns(|| {
        report = Some(aggregate(
            &campaign,
            &pass.outcomes,
            &skipped,
            &caches.topology,
        ));
    });
    let report: CampaignReport = report.expect("aggregated at least once");
    let json = report.to_json_string();
    let json_ns = median_ns(|| {
        black_box(report.to_json_string());
    });
    let csv_ns = median_ns(|| {
        black_box(report.to_csv());
    });
    let md_ns = median_ns(|| {
        black_box(report.to_markdown());
    });
    let mut parsed = None;
    let parse_ns = median_ns(|| {
        parsed = Some(CampaignReport::from_json_str(&json));
    });
    if parsed.as_ref().and_then(|p| p.as_ref().ok()) != Some(&report) {
        errors.push("the report does not parse back to itself".into());
    }
    metrics.push(("report.aggregate_ms", aggregate_ns / 1e6));
    metrics.push(("report.json_ms", json_ns / 1e6));
    metrics.push(("report.csv_ms", csv_ns / 1e6));
    metrics.push(("report.md_ms", md_ns / 1e6));
    metrics.push(("report.parse_ms", parse_ns / 1e6));
    metrics.push(("report.json_bytes", json.len() as f64));
    if let Some(path) = &opts.report {
        std::fs::write(path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // fdn-netsim registration.
    metrics.push(("sim.register_us", register_us(&caches, &scenarios)?));

    // The layer replays: the first scenario of every k-th cell (expansion
    // emits each cell as one contiguous block of seeds).
    let firsts: Vec<usize> = (0..scenarios.len())
        .filter(|&i| i == 0 || scenarios[i - 1].cell != scenarios[i].cell)
        .collect();
    let stride = firsts.len().div_ceil(MAX_REPLAYED_CELLS);
    let mut costs = Costs::default();
    for &i in firsts.iter().step_by(stride) {
        let s = &scenarios[i];
        let measure = Measure {
            expected: &pass.outcomes[i].stats,
        };
        match with_reactors(&caches, *s, measure).and_then(|r| r) {
            Ok(c) => costs.add(&c),
            Err(e) => errors.push(format!("{}: {e}", s.id())),
        }
    }
    let pops = costs.pops() as f64;
    metrics.push(("replay.scenarios", costs.scenarios as f64));
    metrics.push(("links.ops", costs.link_ops() as f64));
    metrics.push(("links.max_inflight", costs.max_inflight as f64));
    metrics.push((
        "links.exact.ns_per_op",
        ratio(costs.links_exact_ns as f64, costs.link_ops() as f64),
    ));
    metrics.push((
        "links.counting.ns_per_op",
        ratio(costs.links_counting_ns as f64, costs.link_ops() as f64),
    ));
    metrics.push((
        "scheduler.ns_per_pick",
        ratio(costs.scheduler_ns() as f64, pops),
    ));
    metrics.push(("noise.ns_per_delivery", ratio(costs.noise_ns as f64, pops)));
    metrics.push(("noise.drops", costs.drops as f64));
    metrics.push((
        "stats.ns_per_event",
        ratio(costs.stats_ns as f64, (costs.sends + costs.pops()) as f64),
    ));
    metrics.push((
        "engine.ns_per_delivery",
        ratio(costs.engine_ns as f64, costs.deliveries as f64),
    ));
    metrics.push((
        "engine.sends_per_delivery",
        ratio(costs.sends as f64, costs.deliveries as f64),
    ));
    metrics.push(("sim.run_ns_per_delivery", ratio(costs.run_ns as f64, pops)));
    metrics.push((
        "sim.remainder_ns_per_delivery",
        ratio(costs.remainder_ns() as f64, pops),
    ));
    metrics.push((
        "trace.overhead_s",
        (costs.traced_ns as f64 - costs.run_ns as f64) / 1e9,
    ));

    // fdn-core construction and checkpoints: full-mode constructions were
    // split off by the clock; replay checkpoints are built afresh (no store)
    // and round-tripped through the codec.
    let keys: Vec<ReplayKey> = distinct(
        scenarios
            .iter()
            .filter(|s| s.cell.mode == EngineMode::Replay)
            .map(replay_key),
    );
    let (mut construction_ns, mut construction_deliveries) =
        (pass.construction_ns, pass.construction_deliveries);
    let (mut encode_ns, mut decode_ns, mut bytes) = (0.0, 0.0, 0usize);
    let (mut load_ns, mut save_ns) = (0.0, 0.0);
    let save_store = CheckpointStore::open(&opts.scratch.join("store-save"))?;
    for key in &keys {
        let fresh = ReplayCache::new();
        let watch = Stopwatch::start();
        let built = fresh.get(&caches.topology, *key)?;
        construction_ns += nanos(watch.elapsed());
        construction_deliveries += built.construction_steps;
        let encoded = fdn_core::encode_checkpoint(&built.checkpoint);
        bytes += encoded.len();
        encode_ns += median_ns(|| {
            black_box(fdn_core::encode_checkpoint(&built.checkpoint));
        });
        decode_ns += median_ns(|| {
            black_box(fdn_core::decode_checkpoint(&encoded).ok());
        });
        if let Some(root) = &opts.store {
            let graph = &caches.topology.get(key.family)?.graph;
            let reader = CheckpointStore::open(root)?;
            load_ns += median_ns(|| {
                black_box(reader.load(key, graph));
            });
            let read = reader.stats();
            if read.hits == 0 || read.misses + read.rejected > 0 {
                errors.push(format!(
                    "store entry of {} did not load",
                    CheckpointStore::key_string(key)
                ));
            }
            save_ns +=
                median_ns(|| save_store.save(key, &built.checkpoint, built.construction_steps));
        }
    }
    let entries = keys.len() as f64;
    metrics.push(("construction.deliveries", construction_deliveries as f64));
    metrics.push((
        "construction.ns_per_delivery",
        ratio(construction_ns as f64, construction_deliveries as f64),
    ));
    metrics.push(("checkpoint.encode_us", ratio(encode_ns, entries) / 1e3));
    metrics.push(("checkpoint.decode_us", ratio(decode_ns, entries) / 1e3));
    metrics.push(("checkpoint.bytes", bytes as f64));
    metrics.push(("store.load_us", ratio(load_ns, entries) / 1e3));
    metrics.push(("store.save_us", ratio(save_ns, entries) / 1e3));
    if save_store.stats().write_errors > 0 {
        errors.push("timed store writes failed".into());
    }
    let _ = std::fs::remove_dir_all(opts.scratch.join("store-save"));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench-layers: {e}");
            return ExitCode::from(2);
        }
    };
    let watch = Stopwatch::start();
    let mut metrics = Vec::new();
    let mut errors = Vec::new();
    if let Err(e) = run(&opts, &mut metrics, &mut errors) {
        eprintln!("perfbench-layers: {e}");
        return ExitCode::FAILURE;
    }
    metrics.push(("trace.wall_s", watch.elapsed().as_secs_f64()));
    let doc = Json::obj(vec![
        (
            "metrics",
            Json::obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))
                    .collect(),
            ),
        ),
        (
            "errors",
            Json::Arr(errors.into_iter().map(Json::Str).collect()),
        ),
    ]);
    println!("{}", doc.render_compact());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn options_split_at_the_separator() {
        let args: Vec<String> = ["--store", "s", "--", "--seeds", "2"]
            .iter()
            .map(|a| (*a).to_string())
            .collect();
        let opts = parse_opts(&args).unwrap();
        assert_eq!(opts.store.as_deref(), Some(Path::new("s")));
        assert_eq!(opts.lab_args, vec!["--seeds", "2"]);
        assert!(parse_opts(&args[..2]).is_err());
    }

    #[test]
    fn distinct_keeps_first_seen_order() {
        assert_eq!(distinct([3, 1, 3, 2, 1].into_iter()), vec![3, 1, 2]);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
