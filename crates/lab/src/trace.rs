//! `fdn-lab trace` — one deeply-observed run per cell, rendered three ways.
//!
//! A campaign report compresses each cell into summary statistics; a trace
//! keeps the *shape* of one representative run per cell (the cell's first
//! seed). The run is executed through [`run_scenario_observed`] with a
//! [`TraceProbe`] attached, so the trace sees everything the report sees —
//! same noise stream, same scheduler stream, same accounting — plus the
//! sampled in-flight curve, every node's construction and online phases,
//! and the phase-marker log. The pulses a node sent in each phase are the
//! node's own counts ([`ScenarioOutcome::node_pulses`]), in every engine
//! mode.
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
//!   whose totals are the cell's `ScenarioOutcome` accounting, plus the
//!   top-k hottest links by deliveries.

use std::fmt::Write as _;

use rayon::prelude::*;

use fdn_netsim::{NodePhase, Phase, Sample, TraceProbe};

use crate::cache::Caches;
use crate::error::LabError;
use crate::json::Json;
use crate::report::push_skipped_markdown;
use crate::runner::{run_scenario_observed, CellTiming, ScenarioOutcome};
use crate::spec::{Campaign, SkippedCell};

/// How many of the busiest links the markdown rendering lists per cell.
const TOP_LINKS: usize = 8;

/// One cell's observed run: the ordinary outcome plus everything the probe
/// retained.
#[derive(Debug, Clone)]
pub struct CellTrace {
    /// The run's outcome — identical to what `fdn-lab run` would have
    /// measured for this (cell, seed).
    pub outcome: ScenarioOutcome,
    /// The probe: samples, per-node phases, marker log and link deliveries.
    pub probe: TraceProbe,
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

/// Expands `campaign`, keeps the **first seed of every cell**, and runs each
/// with a [`TraceProbe`] attached (in parallel; results are collected in
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
            let (outcome, probe) = run_scenario_observed(caches, s, TraceProbe::default());
            let trace = CellTrace { outcome, probe };
            let timing = CellTiming {
                cell: trace.cell_id(),
                wall_ms: watch.elapsed_ms(),
                runs: 1,
                shared: 0,
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
                o.cc_init(),
                o.online_pulses(),
                o.steps,
                o.quiescent,
                o.success,
                trace.probe.stride(),
                trace.probe.markers_dropped(),
            );
            for s in trace.probe.samples() {
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
            for (stamp, marker) in trace.probe.markers() {
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
    /// named via `process_name` metadata), each node a thread with its
    /// construction and online spans; timestamps and durations are simulated
    /// delivery counts.
    pub fn to_perfetto_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for (pid, trace) in self.cells.iter().enumerate() {
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
            let end = trace.outcome.steps.max(1);
            let nodes = trace.probe.nodes().iter().zip(&trace.outcome.node_pulses);
            for (tid, (row, &pulses)) in nodes.enumerate() {
                push_spans(&mut events, (pid, tid), end, row, pulses);
            }
            for (stamp, marker) in trace.probe.markers() {
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
            "{} cell(s), first seed each; sampled every {} deliveries, the stride \
             doubling each time a cell's {}-sample ring fills (each cell states its \
             final stride; timestamps are delivery counts, never wall clock).",
            self.cells.len(),
            TraceProbe::STRIDE,
            TraceProbe::CAPACITY,
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
            let (mut cc_total, mut online_total, mut delivered_total) = (0u64, 0u64, 0u64);
            for id in 0..o.nodes {
                let (cc, online) = o.node_pulses.get(id).copied().unwrap_or_default();
                let delivered = trace
                    .probe
                    .nodes()
                    .get(id)
                    .map_or(0, |row| row.construction_deliveries + row.online_deliveries);
                let idle = cc == 0 && online == 0 && delivered == 0;
                cc_total += cc;
                online_total += online;
                delivered_total += delivered;
                let _ = writeln!(
                    out,
                    "| v{id} | {cc} | {online} | {delivered} | {} |",
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
                o.cc_init(),
                o.online_pulses(),
                o.steps,
            );
            let _ = writeln!(
                out,
                "Sampled every {} deliveries ({} samples).",
                trace.probe.stride(),
                trace.probe.samples().len(),
            );
            let hottest = trace.probe.hottest_links(TOP_LINKS);
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

/// Appends one node's complete (`"X"`) span events under Chrome `(pid,
/// tid)`: a construction span if the node began a construction in this
/// simulation, and an online span once the node is online, both ending at
/// the run's `end`. Timestamps and durations are delivery counts, one
/// "microsecond" per delivery. A span's `sends` are the node's own count
/// for the phase, its `deliveries` the probe's.
fn push_spans(
    events: &mut Vec<String>,
    (pid, tid): (usize, usize),
    end: u64,
    row: &NodePhase,
    (construction, online): (u64, u64),
) {
    let mut span = |name: &str, ts: u64, dur: u64, sends: u64, deliveries: u64| {
        events.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\
             \"tid\":{tid},\"args\":{{\"sends\":{sends},\"deliveries\":{deliveries}}}}}"
        ));
    };
    let online_since = match row.phase {
        Phase::Online => Some(0),
        Phase::Constructing => None,
        Phase::OnlineSince(at) => Some(at),
    };
    if row.phase != Phase::Online {
        let (dur, deliveries) = (online_since.unwrap_or(end), row.construction_deliveries);
        span("construction", 0, dur, construction, deliveries);
    }
    if let Some(ts) = online_since {
        span("online", ts, end - ts, online, row.online_deliveries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::spec::{EngineMode, SeedRange};
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

    /// The Perfetto document's span events as `(name, tid, ts, dur, sends)`.
    fn spans(report: &TraceReport) -> Vec<(String, u64, u64, u64, u64)> {
        let doc = Json::parse(&report.to_perfetto_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_u64).unwrap();
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| {
                let name = e.get("name").and_then(Json::as_str).unwrap().to_string();
                let sends = num(e.get("args").unwrap(), "sends");
                (name, num(e, "tid"), num(e, "ts"), num(e, "dur"), sends)
            })
            .collect()
    }

    /// Asserts that the markdown totals row of the report's only cell is its
    /// outcome line: CCinit, online pulses and deliveries.
    fn assert_totals_match_the_outcome(report: &TraceReport) {
        let o = &report.cells[0].outcome;
        let (cc, online, steps) = (o.cc_init(), o.online_pulses(), o.steps);
        let md = report.to_markdown();
        let total = format!("| **total** | **{cc}** | **{online}** | **{steps}** | |");
        assert!(md.contains(&total), "{md}");
        let line = format!("Outcome accounting: CCinit {cc}, online {online}, deliveries {steps}.");
        assert!(md.contains(&line), "{md}");
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
        // Every node constructed, then went online; the probe saw every
        // delivery.
        let rows = trace.probe.nodes();
        assert_eq!(rows.len(), plain.nodes);
        assert!(rows
            .iter()
            .all(|row| matches!(row.phase, Phase::OnlineSince(at) if at > 0)));
        let delivered: u64 = rows
            .iter()
            .map(|row| row.construction_deliveries + row.online_deliveries)
            .sum();
        assert_eq!(delivered, plain.steps);
        assert!(!trace.probe.samples().is_empty());
        assert_totals_match_the_outcome(&report);
    }

    #[test]
    fn replay_traces_take_construction_shares_from_the_checkpoint() {
        let caches = Caches::new();
        let campaign = quick_campaign(EngineMode::Replay);
        let (report, _) = super::run_trace(&caches, &campaign).unwrap();
        let trace = &report.cells[0];
        let construction = caches
            .construction
            .get(
                &caches.topology,
                crate::runner::replay_key(trace.outcome.scenario),
            )
            .unwrap();
        let shares: Vec<u64> = construction
            .checkpoint
            .nodes()
            .iter()
            .map(fdn_core::NodeCheckpoint::construction_pulses)
            .collect();
        let charged: Vec<u64> = trace.outcome.node_pulses.iter().map(|p| p.0).collect();
        assert_eq!(charged, shares);
        assert!(trace.outcome.cc_init() > 0);
        // The replayed simulation itself never constructs: every marker is a
        // warm-start/token/online marker, none a construction marker, and
        // every node has an online span only.
        assert!(trace
            .probe
            .markers()
            .iter()
            .all(|(_, m)| !m.event.is_construction()));
        assert!(spans(&report).iter().all(|span| span.0 == "online"));
        assert_totals_match_the_outcome(&report);
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
            let doc = Json::parse(line).unwrap();
            let kind = doc.get("type").and_then(Json::as_str);
            assert!(matches!(kind, Some("cell" | "sample" | "marker")), "{line}");
        }
        // Full-mode traces retain construction markers.
        assert!(jsonl.contains("construction-start"));
        assert!(jsonl.contains("construction-quiescence"));
        // The Perfetto document is one JSON object with a non-empty event
        // array naming the cell.
        let perfetto = a.to_perfetto_json();
        let doc = Json::parse(&perfetto).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty());
        assert!(perfetto.contains("process_name"));
        // Each retained phase marker is an instant event on its node's track.
        let instant = |name: &str| {
            events.iter().any(|e| {
                e.get("ph").and_then(Json::as_str) == Some("i")
                    && e.get("name").and_then(Json::as_str) == Some(name)
            })
        };
        assert!(instant("construction-start"));
        assert!(instant("construction-quiescence"));
        // Every node has a construction span and then an online span that
        // starts where it ends and runs to the last delivery; each span's
        // sends are the node's own count for the phase.
        let o = &a.cells[0].outcome;
        let mut expected = Vec::new();
        for (tid, &(cc, online)) in o.node_pulses.iter().enumerate() {
            let Phase::OnlineSince(at) = a.cells[0].probe.nodes()[tid].phase else {
                panic!("node {tid} is not online");
            };
            let tid = tid as u64;
            expected.push(("construction".to_string(), tid, 0, at, cc));
            expected.push(("online".to_string(), tid, at, o.steps - at, online));
        }
        assert_eq!(spans(&a), expected);
    }

    #[test]
    fn a_run_stopped_mid_construction_has_construction_spans_only() {
        let mut campaign = quick_campaign(EngineMode::Full);
        campaign.max_steps = 300;
        let report = run_trace(&campaign).unwrap();
        let o = &report.cells[0].outcome;
        assert_eq!(o.steps, 300);
        assert!(o.stall_diagnostic.is_some(), "the construction was cut");
        let expected: Vec<_> = (0..o.nodes)
            .map(|tid| {
                (
                    "construction".to_string(),
                    tid as u64,
                    0,
                    300,
                    o.node_pulses[tid].0,
                )
            })
            .collect();
        assert_eq!(spans(&report), expected);
        assert_eq!(o.online_pulses(), 0);
        assert_totals_match_the_outcome(&report);
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
            for s in trace.probe.samples() {
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
    fn a_cell_long_enough_to_compact_states_its_doubled_stride() {
        // The leader election on an 8-ring takes 45,454 deliveries in full
        // mode: the sample ring fills at delivery 32,768 and the stride
        // doubles once.
        let mut campaign = Campaign::new("trace-long");
        campaign.families = vec![GraphFamily::Cycle { n: 8 }];
        campaign.workloads = vec![WorkloadSpec::Leader];
        campaign.seeds = SeedRange { start: 1, count: 1 };
        let report = run_trace(&campaign).unwrap();
        let probe = &report.cells[0].probe;
        assert!(report.cells[0].outcome.steps > TraceProbe::STRIDE * TraceProbe::CAPACITY as u64);
        let stride = probe.stride();
        assert_eq!(stride, 2 * TraceProbe::STRIDE);
        assert!(probe.samples().iter().all(|s| s.deliveries % stride == 0));
        let md = report.to_markdown();
        assert!(
            md.contains("sampled every 64 deliveries, the stride doubling each time a cell's 512-sample ring fills"),
            "{md}"
        );
        let line = format!(
            "Sampled every {stride} deliveries ({} samples).",
            probe.samples().len()
        );
        assert!(md.contains(&line), "{md}");
        // A short cell keeps the initial stride and says so.
        let short = run_trace(&quick_campaign(EngineMode::Full)).unwrap();
        assert_eq!(short.cells[0].probe.stride(), TraceProbe::STRIDE);
        assert!(short
            .to_markdown()
            .contains("Sampled every 64 deliveries ("));
    }

    #[test]
    fn empty_expansion_is_an_error() {
        let mut campaign = Campaign::new("empty");
        campaign.families = vec![GraphFamily::Path { n: 3 }];
        assert!(matches!(run_trace(&campaign), Err(LabError::EmptyCampaign)));
    }
}
