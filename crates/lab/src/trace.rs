//! `fdn-lab trace` — one deeply-observed run per cell, rendered three ways.
//!
//! A campaign report compresses each cell into summary statistics; a trace
//! keeps the *shape* of one representative run per cell (the cell's first
//! seed). The run is executed through [`run_scenario_observed`] with a
//! [`TimeSeriesSampler`] and a [`SpanProfiler`] attached, so the trace sees
//! everything the report sees — same noise stream, same scheduler stream,
//! same accounting — plus the sampled in-flight curve, the per-(phase, node)
//! communication spans, and the phase-marker log.
//!
//! Three artifacts per trace, all byte-deterministic (delivery-count
//! timestamps, sorted link keys, insertion-ordered JSON — never wall clock,
//! never hash order):
//!
//! * **JSONL** — one line per cell header, retained sample, and phase
//!   marker; greppable and trivially parseable. A sample is taken where a
//!   delivery's step ends, so its `inflight` reads 0 only at quiescence.
//! * **Perfetto JSON** — a Chrome trace-event document composing every
//!   cell's spans under its own `pid`, loadable in Perfetto or
//!   `chrome://tracing`.
//! * **Markdown** — a per-node phase breakdown (`CCinit` vs online pulses)
//!   whose totals match the cell's `ScenarioOutcome` accounting exactly,
//!   plus the top-k hottest links by deliveries.

use std::fmt::Write as _;

use rayon::prelude::*;

use fdn_graph::NodeId;
use fdn_netsim::{Sample, SpanProfiler, TimeSeriesSampler};

use crate::cache::Caches;
use crate::error::LabError;
use crate::json::Json;
use crate::report::push_skipped_markdown;
use crate::runner::{replay_key, run_scenario_observed, CellTiming, ScenarioOutcome};
use crate::spec::{Campaign, EngineMode, Scenario, SkippedCell};

/// How many of the busiest links the markdown rendering lists per cell.
const TOP_LINKS: usize = 8;

/// One cell's observed run: the ordinary outcome plus everything the two
/// observers retained.
#[derive(Debug, Clone)]
pub struct CellTrace {
    /// The run's outcome — identical to what `fdn-lab run` would have
    /// measured for this (cell, seed).
    pub outcome: ScenarioOutcome,
    /// The time-series sampler, with its retained delivery-stamped samples.
    pub sampler: TimeSeriesSampler,
    /// The span profiler: per-(phase, node) aggregates and the marker log.
    pub profiler: SpanProfiler,
    /// Per-node construction pulses. Full mode measures them through the
    /// profiler's phase attribution; replay mode takes the checkpoint's
    /// frozen shares (its simulation never runs the construction); cycle
    /// mode has none.
    pub node_cc_init: Vec<u64>,
}

impl CellTrace {
    /// The cell's compact identifier.
    pub fn cell_id(&self) -> String {
        self.outcome.scenario.cell.id()
    }
}

/// The result of `fdn-lab trace`: one observed run per cell of the
/// campaign's expansion, in expansion order.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Campaign name.
    pub name: String,
    /// Matrix combinations excluded at expansion time.
    pub skipped: Vec<SkippedCell>,
    /// One trace per cell, in expansion order.
    pub cells: Vec<CellTrace>,
}

/// Runs one observed scenario — the first seed of its cell — and packages
/// the observers' take alongside the outcome.
fn trace_scenario(caches: &Caches, scenario: Scenario) -> CellTrace {
    let observer = (TimeSeriesSampler::new(), SpanProfiler::new());
    let (outcome, (sampler, profiler)) = run_scenario_observed(caches, scenario, observer);
    let cell = scenario.cell;
    let node_cc_init: Vec<u64> = match cell.mode {
        // The replay simulation is purely online; the per-node construction
        // shares live in the (cached, already built) checkpoint.
        EngineMode::Replay => caches
            .construction
            .get(&caches.topology, replay_key(scenario))
            .map(|c| {
                c.checkpoint
                    .nodes()
                    .iter()
                    .map(fdn_core::NodeCheckpoint::construction_pulses)
                    .collect()
            })
            .unwrap_or_else(|_| vec![0; outcome.nodes]),
        _ => (0..outcome.nodes)
            .map(|v| profiler.construction_span(NodeId(v as u32)).sends)
            .collect(),
    };
    CellTrace {
        outcome,
        sampler,
        profiler,
        node_cc_init,
    }
}

/// Expands `campaign`, keeps the **first seed of every cell**, and runs each
/// with the trace observers attached (in parallel; results are collected in
/// expansion order, so the report is byte-deterministic across thread
/// counts). Shared work comes from `caches` — the hook through which
/// `--store DIR` threads a persistent checkpoint store under the replay
/// tier; the caches only accelerate. Alongside the report comes one
/// [`CellTiming`] per traced cell, in report order: wall time never enters
/// the trace artifacts themselves.
///
/// # Errors
///
/// Returns [`LabError::EmptyCampaign`] if the matrix expands to no runnable
/// scenario.
pub fn run_trace(
    caches: &Caches,
    campaign: &Campaign,
) -> Result<(TraceReport, Vec<CellTiming>), LabError> {
    let (mut firsts, skipped) = campaign.expand_with_skips();
    // One representative run per cell: expansion lists each cell's seeds
    // as one contiguous block, so its first scenario is its first seed.
    firsts.dedup_by(|a, b| a.cell == b.cell);
    if firsts.is_empty() {
        return Err(LabError::EmptyCampaign);
    }
    let (cells, timings): (Vec<CellTrace>, Vec<CellTiming>) = firsts
        .into_par_iter()
        .map(|s| {
            let watch = crate::timing::Stopwatch::start();
            let trace = trace_scenario(caches, s);
            let timing = CellTiming {
                cell: trace.cell_id(),
                wall_ms: watch.elapsed_ms(),
                runs: 1,
            };
            (trace, timing)
        })
        .collect::<Vec<_>>()
        .into_iter()
        .unzip();
    Ok((
        TraceReport {
            name: campaign.name.clone(),
            skipped,
            cells,
        },
        timings,
    ))
}

impl TraceReport {
    /// Renders the trace as JSONL: per cell one `cell` header line, then one
    /// `sample` line per retained sample and one `marker` line per retained
    /// phase marker. Every value is a delivery count or a fixed label —
    /// byte-identical across runs and thread counts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for trace in &self.cells {
            let o = &trace.outcome;
            let cell = Json::Str(trace.cell_id()).render_compact();
            let _ = writeln!(
                out,
                "{{\"type\":\"cell\",\"cell\":{cell},\"seed\":{},\"nodes\":{},\"edges\":{},\
                 \"cc_init\":{},\"online_pulses\":{},\"steps\":{},\"quiescent\":{},\
                 \"success\":{},\"sample_every\":{},\"markers_dropped\":{}}}",
                o.scenario.seed,
                o.nodes,
                o.edges,
                o.cc_init,
                o.online_pulses,
                o.steps,
                o.quiescent,
                o.success,
                trace.sampler.stride(),
                trace.profiler.markers_dropped(),
            );
            for s in trace.sampler.samples() {
                let Sample {
                    deliveries,
                    inflight,
                    sent,
                    dropped,
                    max_link_depth,
                    phase,
                } = *s;
                let _ = writeln!(
                    out,
                    "{{\"type\":\"sample\",\"cell\":{cell},\"deliveries\":{deliveries},\
                     \"inflight\":{inflight},\"sent\":{sent},\"dropped\":{dropped},\
                     \"max_link_depth\":{max_link_depth},\"phase\":{phase}}}",
                );
            }
            for (stamp, marker) in trace.profiler.markers() {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"marker\",\"cell\":{cell},\"at\":{stamp},\"node\":{},\
                     \"event\":{}}}",
                    marker.node.0,
                    Json::Str(marker.event.label().to_string()).render_compact(),
                );
            }
        }
        out
    }

    /// Renders the trace as one Chrome trace-event JSON document (Perfetto /
    /// `chrome://tracing`). Each cell is a process (`pid` = cell position,
    /// named via `process_name` metadata), each node a thread; timestamps
    /// and durations are simulated delivery counts.
    pub fn to_perfetto_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for (pid, trace) in self.cells.iter().enumerate() {
            let pid = pid as u64;
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":{}}}}}",
                pid,
                Json::Str(format!(
                    "{} (s{})",
                    trace.cell_id(),
                    trace.outcome.scenario.seed
                ))
                .render_compact(),
            ));
            for id in 0..trace.profiler.node_count() {
                events.extend(trace.profiler.chrome_span_events(NodeId(id as u32), pid));
            }
            for (stamp, marker) in trace.profiler.markers() {
                events.push(format!(
                    "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{stamp},\"pid\":{pid},\
                     \"tid\":{}}}",
                    Json::Str(marker.event.label().to_string()).render_compact(),
                    marker.node.0,
                ));
            }
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
            events.join(",")
        )
    }

    /// Renders the trace as a markdown document: per cell, the phase
    /// breakdown table (per-node `CCinit` vs online pulses and deliveries,
    /// with a totals row that matches the run's `ScenarioOutcome` accounting
    /// exactly) and the top-k hottest links by deliveries.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Trace `{}`", self.name);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} cell(s), first seed each; sampled every {} deliveries \
             (timestamps are delivery counts, never wall clock).",
            self.cells.len(),
            TimeSeriesSampler::STRIDE,
        );
        for trace in &self.cells {
            let o = &trace.outcome;
            let _ = writeln!(out);
            let _ = writeln!(out, "## `{}` (s{})", trace.cell_id(), o.scenario.seed);
            let _ = writeln!(out);
            if let Some(err) = &o.error {
                let _ = writeln!(out, "Run error: `{err}`");
                let _ = writeln!(out);
            }
            if let Some(diag) = &o.stall_diagnostic {
                let _ = writeln!(out, "Stall: {diag}");
                let _ = writeln!(out);
            }
            let _ = writeln!(out, "| node | CCinit | online | delivered | idle |");
            let _ = writeln!(out, "|---|---|---|---|---|");
            let nodes = o.nodes.max(trace.profiler.node_count());
            let (mut cc_total, mut online_total, mut delivered_total) = (0u64, 0u64, 0u64);
            for id in 0..nodes {
                let node = NodeId(id as u32);
                let cc = trace.node_cc_init.get(id).copied().unwrap_or(0);
                let online = trace.profiler.online_span(node);
                let construction = trace.profiler.construction_span(node);
                let delivered = online.deliveries + construction.deliveries;
                let idle = cc == 0 && online.is_idle() && construction.is_idle();
                cc_total += cc;
                online_total += online.sends;
                delivered_total += delivered;
                let _ = writeln!(
                    out,
                    "| v{id} | {cc} | {} | {delivered} | {} |",
                    online.sends,
                    if idle { "yes" } else { "" },
                );
            }
            let _ = writeln!(
                out,
                "| **total** | **{cc_total}** | **{online_total}** | **{delivered_total}** | |"
            );
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "Outcome accounting: CCinit {}, online {}, deliveries {}.",
                o.cc_init, o.online_pulses, o.steps,
            );
            let hottest = trace.profiler.hottest_links(TOP_LINKS);
            if !hottest.is_empty() {
                let _ = writeln!(out);
                let _ = writeln!(out, "Hottest links (top {TOP_LINKS} by deliveries):");
                let _ = writeln!(out);
                let _ = writeln!(out, "| link | deliveries |");
                let _ = writeln!(out, "|---|---|");
                for ((from, to), n) in hottest {
                    let _ = writeln!(out, "| v{} -> v{} | {n} |", from.0, to.0);
                }
            }
        }
        push_skipped_markdown(&mut out, &self.skipped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SeedRange;
    use fdn_graph::GraphFamily;
    use fdn_netsim::NoiseSpec;
    use fdn_protocols::WorkloadSpec;

    fn run_trace(campaign: &Campaign) -> Result<TraceReport, LabError> {
        super::run_trace(&Caches::new(), campaign).map(|(report, _)| report)
    }

    fn quick_campaign(mode: EngineMode) -> Campaign {
        let mut campaign = Campaign::new("trace-unit");
        campaign.families = vec![GraphFamily::Figure3];
        campaign.modes = vec![mode];
        campaign.seeds = SeedRange { start: 7, count: 3 };
        campaign
    }

    #[test]
    fn trace_runs_one_seed_per_cell_and_matches_the_runner() {
        let campaign = quick_campaign(EngineMode::Full);
        let report = run_trace(&campaign).unwrap();
        assert_eq!(report.cells.len(), 1, "one cell, one trace");
        let trace = &report.cells[0];
        // The observed run is the cell's *first* seed and measures exactly
        // what the plain runner measures.
        assert_eq!(trace.outcome.scenario.seed, 7);
        let plain = crate::runner::run_scenario_with(&Caches::new(), trace.outcome.scenario);
        assert_eq!(trace.outcome, plain);
        // Phase attribution is exact: per-node construction pulses sum to
        // the outcome's CCinit, online sends to its online pulses.
        assert_eq!(trace.node_cc_init.iter().sum::<u64>(), plain.cc_init);
        let online: u64 = (0..plain.nodes)
            .map(|v| trace.profiler.online_span(NodeId(v as u32)).sends)
            .sum();
        assert_eq!(online, plain.online_pulses);
        assert!(!trace.sampler.samples().is_empty());
    }

    #[test]
    fn replay_traces_take_construction_shares_from_the_checkpoint() {
        let report = run_trace(&quick_campaign(EngineMode::Replay)).unwrap();
        let trace = &report.cells[0];
        assert_eq!(
            trace.node_cc_init.iter().sum::<u64>(),
            trace.outcome.cc_init,
            "checkpoint shares sum to the checkpoint's CCinit"
        );
        assert!(trace.outcome.cc_init > 0);
        // The replayed simulation itself never constructs: every marker is a
        // warm-start/token/online marker, none a construction marker.
        assert!(trace
            .profiler
            .markers()
            .iter()
            .all(|(_, m)| !m.event.is_construction()));
        // And the markdown totals row agrees with the outcome line.
        let md = report.to_markdown();
        assert!(
            md.contains(&format!("| **total** | **{}** |", trace.outcome.cc_init)),
            "{md}"
        );
        assert!(md.contains(&format!("CCinit {}", trace.outcome.cc_init)));
    }

    #[test]
    fn renderings_are_deterministic_and_well_formed() {
        let campaign = quick_campaign(EngineMode::Full);
        let a = run_trace(&campaign).unwrap();
        let b = run_trace(&campaign).unwrap();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.to_perfetto_json(), b.to_perfetto_json());
        assert_eq!(a.to_markdown(), b.to_markdown());
        // Every JSONL line parses as a standalone JSON object with a type.
        let jsonl = a.to_jsonl();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            let doc = crate::json::Json::parse(line).unwrap();
            let kind = doc.get("type").and_then(crate::json::Json::as_str);
            assert!(matches!(kind, Some("cell" | "sample" | "marker")), "{line}");
        }
        // Full-mode traces retain construction markers.
        assert!(jsonl.contains("construction-start"));
        assert!(jsonl.contains("construction-quiescence"));
        // The Perfetto document is one JSON object with a non-empty event
        // array naming both phases.
        let perfetto = a.to_perfetto_json();
        let doc = crate::json::Json::parse(&perfetto).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(crate::json::Json::as_arr)
            .unwrap();
        assert!(!events.is_empty());
        assert!(perfetto.contains("\"construction\""));
        assert!(perfetto.contains("\"online\""));
        assert!(perfetto.contains("process_name"));
        // Each retained phase marker is an instant event on its node's track.
        let instant = |name: &str| {
            events.iter().any(|e| {
                e.get("ph").and_then(crate::json::Json::as_str) == Some("i")
                    && e.get("name").and_then(crate::json::Json::as_str) == Some(name)
            })
        };
        assert!(instant("construction-start"));
        assert!(instant("construction-quiescence"));
    }

    #[test]
    fn every_sample_is_taken_where_a_step_ends() {
        // At the end of a step every send was delivered, deleted or is still
        // in flight, and nothing in flight means the run is over.
        let mut campaign = Campaign::new("trace-samples");
        campaign.families = vec![GraphFamily::Cycle { n: 4 }, GraphFamily::Figure3];
        campaign.modes = vec![EngineMode::Full, EngineMode::CycleOnly, EngineMode::Replay];
        campaign.workloads = vec![WorkloadSpec::Flood { payload_bytes: 2 }];
        campaign.noises = vec![
            NoiseSpec::FullCorruption,
            NoiseSpec::Omission {
                drop_per_mille: 200,
            },
        ];
        campaign.seeds = SeedRange { start: 1, count: 1 };
        let report = run_trace(&campaign).unwrap();
        assert_eq!(report.cells.len(), 12);
        let mut samples = 0;
        for trace in &report.cells {
            let (cell, steps) = (trace.cell_id(), trace.outcome.steps);
            for s in trace.sampler.samples() {
                assert_eq!(
                    s.sent,
                    s.deliveries + s.dropped + s.inflight,
                    "{cell}: {s:?}"
                );
                assert!(s.inflight > 0 || s.deliveries == steps, "{cell}: {s:?}");
                samples += 1;
            }
        }
        assert!(samples > 100, "{samples} samples");
    }

    #[test]
    fn empty_expansion_is_an_error() {
        let mut campaign = Campaign::new("empty");
        campaign.families = vec![GraphFamily::Path { n: 3 }];
        assert!(matches!(run_trace(&campaign), Err(LabError::EmptyCampaign)));
    }
}
