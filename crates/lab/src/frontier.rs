//! The adaptive deletion-frontier bisection engine.
//!
//! PR 2's fixed `omission(k)` sweep shows *that* the Theorem 2 construction
//! breaks once the paper's no-deletion assumption is violated; it cannot say
//! *how close* each (family, mode, workload) cell sits to the cliff. This
//! module turns the frontier table into a frontier **curve**: for every cell
//! of a [`FrontierSpec`], [`run_frontier`] bisects over the omission drop
//! rate (the per-mille axis of [`NoiseSpec::Omission`]) to find the smallest
//! rate that breaks the cell's success predicate.
//!
//! The probe at each rate level is a seed-replicated parallel sweep through
//! the ordinary scenario runner ([`crate::run_scenario_with`]), drawing the
//! seed-independent topology from one shared
//! [`TopologyCache`](crate::cache::TopologyCache) — a probe costs exactly
//! one campaign cell, nothing more. Replay-mode cells (`--mode replay`)
//! additionally share one construct-once checkpoint per cell across **all**
//! probes and seeds ([`crate::cache::ReplayCache`]), so full-topology
//! frontier probes stop re-paying the distributed construction on every
//! bisection step — the probe then measures where the *online* phase breaks
//! under deletion. A probe **holds** when
//! every seed succeeds; the bisection maintains a `(holds, breaks]` bracket
//! and narrows it to the spec's resolution. Because equal-seed
//! [`fdn_netsim::Omission`] models are coupled across rates (one
//! rate-independent uniform draw per delivery), per-seed verdicts move
//! smoothly along the axis instead of being independently re-randomized at
//! every probe.
//!
//! Success need **not** be monotone in the drop rate — a drop pattern that
//! stalls the construction at rate `r` can be perturbed back into a passing
//! run at some `r' > r`. The engine never papers over this: after
//! bracketing, a verification sweep probes rates above the bracket and any
//! probe that holds there marks the cell `monotone = false`, with the
//! reappearance rates recorded in the report.
//!
//! [`FrontierReport`] is byte-deterministic (no wall-clock data in JSON/CSV,
//! order-preserving everywhere) and regression-gateable:
//! [`diff_frontier_reports`] compares two saved reports cell-by-cell exactly
//! like the campaign diff gate, and `fdn-lab diff` exits 2 on regression for
//! both report kinds.

use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use fdn_graph::{connectivity, GraphFamily};
use fdn_netsim::{LinkStore, NoiseSpec, SchedulerSpec};
use fdn_protocols::WorkloadSpec;

use crate::cache::Caches;
use crate::diff::{CellChange, CellDelta, ReportDiff};
use crate::error::LabError;
use crate::json::Json;
use crate::report::{md_cell, push_skipped_markdown, skipped_from_json, skipped_to_json};
use crate::runner::{run_scenario_with, CellTiming};
use crate::spec::{
    skip_reason, Campaign, Cell, EncodingSpec, EngineMode, Scenario, SeedRange, SkippedCell,
};

/// Human description of the probe axis, recorded in every report.
pub const FRONTIER_AXIS: &str = "omission drop rate (per mille)";

/// The declarative input of one frontier search.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSpec {
    /// Report name.
    pub name: String,
    /// Graph families to chart.
    pub families: Vec<GraphFamily>,
    /// Engine modes to chart.
    pub modes: Vec<EngineMode>,
    /// Workloads to chart (every probe runs the binary encoding: unary
    /// cannot tolerate deletion noise).
    pub workloads: Vec<WorkloadSpec>,
    /// Delivery scheduler of every probe.
    pub scheduler: SchedulerSpec,
    /// Seeds replicated at every probe rate.
    pub seeds: SeedRange,
    /// Per-scenario delivery limit.
    pub max_steps: u64,
    /// Upper end of the probe axis, in per mille (at most 1000).
    pub max_rate: u16,
    /// Target bracket width, in per mille (at least 1): bisection stops once
    /// `upper - lower <= resolution`.
    pub resolution: u16,
    /// Rates probed above the bracket to detect non-monotone cells
    /// (0 disables the verification sweep).
    pub verify_probes: u16,
}

impl FrontierSpec {
    /// Derives the frontier search of a campaign: its (family, mode,
    /// workload) cells, its seed range and step budget, its first scheduler —
    /// and the default axis (full per-mille range, bracket width 8, three
    /// verification probes).
    pub fn from_campaign(campaign: &Campaign) -> FrontierSpec {
        FrontierSpec {
            name: campaign.name.clone(),
            families: campaign.families.clone(),
            modes: campaign.modes.clone(),
            workloads: campaign.workloads.clone(),
            scheduler: campaign
                .schedulers
                .first()
                .copied()
                .unwrap_or(SchedulerSpec::Random),
            seeds: campaign.seeds,
            max_steps: campaign.max_steps,
            max_rate: 1000,
            resolution: 8,
            verify_probes: 3,
        }
    }

    /// The frontier search of a named campaign preset.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Usage`] for unknown preset names.
    pub fn preset(name: &str) -> Result<FrontierSpec, LabError> {
        Ok(FrontierSpec::from_campaign(&Campaign::preset(name)?))
    }

    fn validate(&self) -> Result<(), LabError> {
        if self.max_rate == 0 || self.max_rate > 1000 {
            return Err(LabError::Usage(
                "frontier max rate must be in 1..=1000 per mille".into(),
            ));
        }
        if self.resolution == 0 {
            return Err(LabError::Usage(
                "frontier resolution must be at least 1 per mille".into(),
            ));
        }
        if self.seeds.count == 0 {
            return Err(LabError::Usage(
                "frontier needs at least one seed per probe".into(),
            ));
        }
        Ok(())
    }
}

/// Where a cell's breaking rate was found on the probe axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierStatus {
    /// The success predicate fails already at rate 0 (the cell is broken
    /// before any deletion happens; nothing to bisect).
    BreaksAtZero,
    /// The smallest breaking rate lies in `(lower, upper]`, bracketed to the
    /// spec's resolution.
    Bracketed,
    /// The predicate still holds at the top of the axis; no breaking rate
    /// `<= max_rate` exists.
    NeverBreaks,
}

impl FrontierStatus {
    /// The stable textual form; [`FrontierStatus::parse`] is the inverse.
    pub fn label(&self) -> &'static str {
        match self {
            FrontierStatus::BreaksAtZero => "breaks-at-zero",
            FrontierStatus::Bracketed => "bracketed",
            FrontierStatus::NeverBreaks => "never-breaks",
        }
    }

    /// Parses a label produced by [`FrontierStatus::label`].
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on unknown names.
    pub fn parse(s: &str) -> Result<FrontierStatus, String> {
        match s {
            "breaks-at-zero" => Ok(FrontierStatus::BreaksAtZero),
            "bracketed" => Ok(FrontierStatus::Bracketed),
            "never-breaks" => Ok(FrontierStatus::NeverBreaks),
            other => Err(format!("unknown frontier status `{other}`")),
        }
    }

    /// Robustness order: a *lower* rank means the cell breaks earlier on the
    /// axis. The diff gate treats any rank decrease as a regression.
    fn rank(self) -> u8 {
        match self {
            FrontierStatus::BreaksAtZero => 0,
            FrontierStatus::Bracketed => 1,
            FrontierStatus::NeverBreaks => 2,
        }
    }
}

/// One probe of a cell: the seed-replicated sweep at a single rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierProbe {
    /// Omission drop rate, in per mille.
    pub rate: u16,
    /// Seeds whose run succeeded.
    pub successes: u32,
    /// Seeds run.
    pub runs: u32,
}

impl FrontierProbe {
    /// The success predicate: a probe holds iff *every* seed succeeded.
    pub fn holds(&self) -> bool {
        self.successes == self.runs
    }
}

/// The bisection result of one (family, mode, workload) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierCell {
    /// Graph family label.
    pub family: String,
    /// Engine mode label.
    pub mode: String,
    /// Workload label.
    pub workload: String,
    /// Nodes in the graph.
    pub nodes: usize,
    /// Edges in the graph.
    pub edges: usize,
    /// Where the breaking rate was found.
    pub status: FrontierStatus,
    /// Largest probed rate (per mille) at which the predicate holds. 0 for
    /// [`FrontierStatus::BreaksAtZero`]; `max_rate` for
    /// [`FrontierStatus::NeverBreaks`].
    pub lower: u16,
    /// Smallest probed rate (per mille) at which the predicate breaks — the
    /// confidence bound's upper end. Equals `lower` when no finite bracket
    /// exists (breaks-at-zero / never-breaks).
    pub upper: u16,
    /// Whether success was monotone across every probed rate. `false` means
    /// at least one probe *above* a breaking rate held — the recorded
    /// bracket is then the first crossing only, not the whole story.
    pub monotone: bool,
    /// Rates (per mille) above the first breaking rate where success
    /// reappeared; empty for monotone cells.
    pub reappear_rates: Vec<u16>,
    /// Every probe taken, in ascending rate order (the frontier curve).
    pub probes: Vec<FrontierProbe>,
}

impl FrontierCell {
    /// The three-axis cell identity the diff gate matches on.
    pub fn cell_id(&self) -> String {
        format!("{}/{}/{}", self.family, self.mode, self.workload)
    }

    /// Width of the confidence bound, in per mille (0 when no finite
    /// bracket exists).
    pub fn bracket_width(&self) -> u16 {
        self.upper - self.lower
    }

    /// Renders the confidence bound on the breaking rate.
    pub fn bracket_label(&self) -> String {
        match self.status {
            FrontierStatus::BreaksAtZero => "0‰".to_string(),
            FrontierStatus::Bracketed => format!("({}, {}]‰", self.lower, self.upper),
            FrontierStatus::NeverBreaks => format!(">{}‰", self.lower),
        }
    }
}

/// The aggregated result of one frontier search.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierReport {
    /// Search name.
    pub name: String,
    /// Upper end of the probe axis, per mille.
    pub max_rate: u16,
    /// Target bracket width, per mille.
    pub resolution: u16,
    /// Seeds replicated at every probe.
    pub seeds_per_cell: u32,
    /// Combinations excluded before probing, with reasons.
    pub skipped: Vec<SkippedCell>,
    /// Per-cell results, in (family, mode, workload) expansion order.
    pub cells: Vec<FrontierCell>,
}

/// One memoized probe runner per cell: rates probed once, results keyed and
/// rendered in ascending order.
struct CellProber<'a> {
    caches: &'a Caches,
    spec: &'a FrontierSpec,
    /// The probed cell; each probe replaces its noise with the probe rate.
    cell: Cell,
    memo: BTreeMap<u16, FrontierProbe>,
}

impl CellProber<'_> {
    /// Probes one rate level: the seed-replicated parallel sweep. Re-probing
    /// a rate is free (memoized), so the verification sweep can overlap the
    /// bisection's probe set without double-paying.
    fn probe(&mut self, rate: u16) -> FrontierProbe {
        if let Some(&p) = self.memo.get(&rate) {
            return p;
        }
        let cell = Cell {
            noise: NoiseSpec::Omission {
                drop_per_mille: rate,
            },
            ..self.cell
        };
        let scenarios: Vec<Scenario> = self
            .spec
            .seeds
            .iter()
            .enumerate()
            .map(|(index, seed)| Scenario {
                index,
                cell,
                seed,
                construction_seed: self.spec.seeds.start,
                max_steps: self.spec.max_steps,
                link_store: LinkStore::Exact,
            })
            .collect();
        let runs = scenarios.len() as u32;
        let successes = scenarios
            .into_par_iter()
            .map(|s| run_scenario_with(self.caches, s))
            .collect::<Vec<_>>()
            .iter()
            .filter(|o| o.success)
            .count() as u32;
        let probe = FrontierProbe {
            rate,
            successes,
            runs,
        };
        self.memo.insert(rate, probe);
        probe
    }

    fn holds(&mut self, rate: u16) -> bool {
        self.probe(rate).holds()
    }
}

/// Bisects one cell to its breaking-rate bracket, then runs the
/// non-monotonicity verification sweep.
fn bisect_cell(
    caches: &Caches,
    spec: &FrontierSpec,
    cell: Cell,
    nodes: usize,
    edges: usize,
) -> FrontierCell {
    let mut prober = CellProber {
        caches,
        spec,
        cell,
        memo: BTreeMap::new(),
    };
    let (status, lower, upper) = if !prober.holds(0) {
        (FrontierStatus::BreaksAtZero, 0, 0)
    } else if prober.holds(spec.max_rate) {
        (FrontierStatus::NeverBreaks, spec.max_rate, spec.max_rate)
    } else {
        // Invariant: holds(lo) && !holds(hi). Integer bisection narrows the
        // bracket to the resolution in ceil(log2(max_rate / resolution))
        // probes.
        let (mut lo, mut hi) = (0u16, spec.max_rate);
        while hi - lo > spec.resolution {
            let mid = lo + (hi - lo) / 2;
            if prober.holds(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (FrontierStatus::Bracketed, lo, hi)
    };
    // Verification sweep: success is not guaranteed to be monotone in the
    // drop rate, and the bisection never looks above its own bracket. Probe
    // evenly spaced rates in (upper, max_rate); any that holds marks the
    // cell non-monotone instead of being silently bisected over.
    if status == FrontierStatus::Bracketed {
        let span = u32::from(spec.max_rate - upper);
        for i in 1..=u32::from(spec.verify_probes) {
            let rate = upper + (span * i / (u32::from(spec.verify_probes) + 1)) as u16;
            if rate > upper && rate < spec.max_rate {
                prober.probe(rate);
            }
        }
    }
    // Monotonicity analysis over *all* probes, in rate order: once any probe
    // breaks, every later probe that holds is a reappearance.
    let probes: Vec<FrontierProbe> = prober.memo.into_values().collect();
    let mut broken_below = false;
    let mut reappear_rates = Vec::new();
    for p in &probes {
        if !p.holds() {
            broken_below = true;
        } else if broken_below {
            reappear_rates.push(p.rate);
        }
    }
    FrontierCell {
        family: cell.family.label(),
        mode: cell.mode.label(),
        workload: cell.workload.label(),
        nodes,
        edges,
        status,
        lower,
        upper,
        monotone: reappear_rates.is_empty(),
        reappear_rates,
        probes,
    }
}

/// Runs the full frontier search: every eligible (family, mode, workload)
/// cell is bisected to its breaking-rate bracket, drawing shared work from
/// `caches` (the hook through which `--store DIR` threads a persistent
/// checkpoint store under the replay tier; the caches only accelerate).
/// Ineligible combinations (the family fails to build, or campaign
/// expansion's eligibility rules reject the cell) are skipped with recorded
/// reasons, exactly like campaign expansion.
///
/// Deterministic: same spec, same report bytes, independent of thread count.
/// Alongside the report comes one [`CellTiming`] per bisected cell, in
/// report order — the only place wall time goes.
///
/// # Errors
///
/// Returns [`LabError::Usage`] for invalid axis parameters and
/// [`LabError::EmptyCampaign`] if no cell is eligible.
pub fn run_frontier(
    caches: &Caches,
    spec: &FrontierSpec,
) -> Result<(FrontierReport, Vec<CellTiming>), LabError> {
    spec.validate()?;
    let mut cells = Vec::new();
    let mut timings: Vec<CellTiming> = Vec::new();
    let mut skipped: Vec<SkippedCell> = Vec::new();
    let skip = |cell: String, reason: String, skipped: &mut Vec<SkippedCell>| {
        if !skipped.iter().any(|s| s.cell == cell) {
            skipped.push(SkippedCell { cell, reason });
        }
    };
    for &family in &spec.families {
        let topo = match caches.topology.get(family) {
            Ok(t) => t,
            Err(e) => {
                skip(
                    family.label(),
                    format!("family does not build: {e}"),
                    &mut skipped,
                );
                continue;
            }
        };
        let graph = &topo.graph;
        let two_ec = connectivity::is_two_edge_connected(graph);
        for &mode in &spec.modes {
            for &workload in &spec.workloads {
                let id = format!("{family}/{mode}/{workload}");
                let cell = Cell {
                    family,
                    mode,
                    encoding: EncodingSpec::Binary,
                    workload,
                    noise: NoiseSpec::Omission { drop_per_mille: 0 },
                    scheduler: spec.scheduler,
                };
                if let Some(reason) = skip_reason(&cell, graph, two_ec) {
                    skip(id, reason, &mut skipped);
                    continue;
                }
                let watch = crate::timing::Stopwatch::start();
                let cell = bisect_cell(caches, spec, cell, graph.node_count(), graph.edge_count());
                timings.push(CellTiming {
                    cell: id,
                    wall_ms: watch.elapsed_ms(),
                    runs: cell.probes.iter().map(|p| p.runs as usize).sum(),
                });
                cells.push(cell);
            }
        }
    }
    if cells.is_empty() {
        return Err(LabError::EmptyCampaign);
    }
    Ok((
        FrontierReport {
            name: spec.name.clone(),
            max_rate: spec.max_rate,
            resolution: spec.resolution,
            seeds_per_cell: spec.seeds.count,
            skipped,
            cells,
        },
        timings,
    ))
}

impl FrontierReport {
    /// Total probes taken across all cells.
    pub fn probe_count(&self) -> usize {
        self.cells.iter().map(|c| c.probes.len()).sum()
    }

    /// Renders the report as a JSON document. The leading `frontier` field
    /// is the kind discriminator `fdn-lab diff` dispatches on (campaign
    /// reports lead with `campaign` instead).
    pub fn to_json_string(&self) -> String {
        let cell_json = |c: &FrontierCell| {
            Json::obj(vec![
                ("family", Json::Str(c.family.clone())),
                ("mode", Json::Str(c.mode.clone())),
                ("workload", Json::Str(c.workload.clone())),
                ("nodes", Json::Num(c.nodes as f64)),
                ("edges", Json::Num(c.edges as f64)),
                ("status", Json::Str(c.status.label().to_string())),
                ("lower", Json::Num(f64::from(c.lower))),
                ("upper", Json::Num(f64::from(c.upper))),
                ("monotone", Json::Bool(c.monotone)),
                (
                    "reappear_rates",
                    Json::Arr(
                        c.reappear_rates
                            .iter()
                            .map(|&r| Json::Num(f64::from(r)))
                            .collect(),
                    ),
                ),
                (
                    "probes",
                    Json::Arr(
                        c.probes
                            .iter()
                            .map(|p| {
                                Json::obj(vec![
                                    ("rate", Json::Num(f64::from(p.rate))),
                                    ("successes", Json::Num(f64::from(p.successes))),
                                    ("runs", Json::Num(f64::from(p.runs))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        Json::obj(vec![
            ("frontier", Json::Str(self.name.clone())),
            ("axis", Json::Str(FRONTIER_AXIS.to_string())),
            ("max_rate", Json::Num(f64::from(self.max_rate))),
            ("resolution", Json::Num(f64::from(self.resolution))),
            ("seeds_per_cell", Json::Num(f64::from(self.seeds_per_cell))),
            ("skipped", skipped_to_json(&self.skipped)),
            (
                "cells",
                Json::Arr(self.cells.iter().map(cell_json).collect()),
            ),
        ])
        .render()
    }

    /// Parses a report previously rendered by
    /// [`FrontierReport::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json_str(text: &str) -> Result<FrontierReport, String> {
        let j = Json::parse(text)?;
        FrontierReport::from_json(&j)
    }

    /// Parses an already-parsed JSON document (see
    /// [`FrontierReport::from_json_str`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json(j: &Json) -> Result<FrontierReport, String> {
        let name = j
            .get("frontier")
            .and_then(Json::as_str)
            .ok_or_else(|| "field `frontier` missing".to_string())?
            .to_string();
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("field `{k}` missing"))
        };
        let skipped = skipped_from_json(j)?;
        let cells = j
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| "field `cells` missing".to_string())?
            .iter()
            .map(FrontierCell::from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FrontierReport {
            name,
            max_rate: num("max_rate")? as u16,
            resolution: num("resolution")? as u16,
            seeds_per_cell: num("seeds_per_cell")? as u32,
            skipped,
            cells,
        })
    }

    /// Renders the frontier curves as CSV: one row per probe, with the cell
    /// identity and bracket repeated on every row of its curve.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "family,mode,workload,nodes,edges,status,lower,upper,monotone,rate,successes,runs\n",
        );
        let field = |s: &str| crate::report::csv_field(s);
        for c in &self.cells {
            for p in &c.probes {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{},{}",
                    field(&c.family),
                    field(&c.mode),
                    field(&c.workload),
                    c.nodes,
                    c.edges,
                    c.status.label(),
                    c.lower,
                    c.upper,
                    c.monotone,
                    p.rate,
                    p.successes,
                    p.runs,
                );
            }
        }
        out
    }

    /// Renders the report as a markdown document.
    pub fn to_markdown(&self) -> String {
        self.to_markdown_with_wall_clock(None)
    }

    /// Renders the report as a markdown document, optionally recording the
    /// search's wall-clock time in the header. As with campaign reports, the
    /// wall clock lives **only** in this rendering; JSON/CSV stay
    /// byte-deterministic for the diff gate.
    pub fn to_markdown_with_wall_clock(&self, wall_clock_secs: Option<f64>) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Frontier `{}`", self.name);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Axis: {FRONTIER_AXIS}, 0..={} at resolution {}‰; {} seeds per probe; \
             {} cells, {} probes total.",
            self.max_rate,
            self.resolution,
            self.seeds_per_cell,
            self.cells.len(),
            self.probe_count(),
        );
        if let Some(secs) = wall_clock_secs {
            let _ = writeln!(out);
            let _ = writeln!(out, "Wall clock: {secs:.2}s.");
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| family | mode | workload | n | m | status | breaking rate | width | probes | monotone |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
        for c in &self.cells {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                md_cell(&c.family),
                md_cell(&c.mode),
                md_cell(&c.workload),
                c.nodes,
                c.edges,
                c.status.label(),
                c.bracket_label(),
                c.bracket_width(),
                c.probes.len(),
                if c.monotone { "yes" } else { "**no**" },
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "## Curves");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Each point is `rate‰:successes/runs`; `*` marks a success \
             reappearing above the first breaking rate."
        );
        let _ = writeln!(out);
        for c in &self.cells {
            let curve: Vec<String> = c
                .probes
                .iter()
                .map(|p| {
                    let star = if c.reappear_rates.contains(&p.rate) {
                        "*"
                    } else {
                        ""
                    };
                    format!("{}:{}/{}{}", p.rate, p.successes, p.runs, star)
                })
                .collect();
            let _ = writeln!(out, "* `{}` — {}", md_cell(&c.cell_id()), curve.join(" "));
        }
        push_skipped_markdown(&mut out, &self.skipped);
        out
    }
}

impl FrontierCell {
    fn from_json(j: &Json) -> Result<FrontierCell, String> {
        let s = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("frontier cell field `{k}` missing"))
        };
        let n = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("frontier cell field `{k}` missing"))
        };
        let rates = |k: &str| -> Result<Vec<u16>, String> {
            j.get(k)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("frontier cell field `{k}` missing"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|r| r as u16)
                        .ok_or_else(|| format!("frontier cell field `{k}` holds a non-number"))
                })
                .collect()
        };
        let probes = j
            .get("probes")
            .and_then(Json::as_arr)
            .ok_or_else(|| "frontier cell field `probes` missing".to_string())?
            .iter()
            .map(|p| {
                let f = |k: &str| {
                    p.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("probe field `{k}` missing"))
                };
                Ok(FrontierProbe {
                    rate: f("rate")? as u16,
                    successes: f("successes")? as u32,
                    runs: f("runs")? as u32,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FrontierCell {
            family: s("family")?,
            mode: s("mode")?,
            workload: s("workload")?,
            nodes: n("nodes")? as usize,
            edges: n("edges")? as usize,
            status: FrontierStatus::parse(&s("status")?)?,
            lower: n("lower")? as u16,
            upper: n("upper")? as u16,
            monotone: match j.get("monotone") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("frontier cell field `monotone` missing".to_string()),
            },
            reappear_rates: rates("reappear_rates")?,
            probes,
        })
    }
}

/// Thresholds of the frontier diff gate, in the axis's own per-mille units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrontierTolerance {
    /// Tolerated decrease of a bracket bound, in per mille (0 = any decrease
    /// is a regression).
    pub mille: u16,
}

fn compare_frontier_cells(
    base: &FrontierCell,
    now: &FrontierCell,
    tol: FrontierTolerance,
) -> CellDelta {
    let mut notes = Vec::new();
    let mut regressions = Vec::new();
    // Widened comparison so a huge --tol-mille cannot overflow u16.
    let fell_beyond_tol = |b: u16, n: u16| u32::from(n) + u32::from(tol.mille) < u32::from(b);
    if base.status != now.status {
        let msg = format!(
            "status moved {} -> {}",
            base.status.label(),
            now.status.label()
        );
        if now.status.rank() < base.status.rank() {
            regressions.push(msg);
        } else {
            notes.push(msg);
        }
    } else if base.status == FrontierStatus::Bracketed {
        // Same status, both finite: the breaking rate moved iff a bracket
        // bound moved. A decrease beyond tolerance means the cliff crept
        // closer — a robustness regression.
        for (label, b, n) in [
            ("lower", base.lower, now.lower),
            ("upper", base.upper, now.upper),
        ] {
            if fell_beyond_tol(b, n) {
                regressions.push(format!("bracket {label} bound fell {b}‰ -> {n}‰"));
            } else if n > b {
                notes.push(format!("bracket {label} bound rose {b}‰ -> {n}‰"));
            } else if n != b {
                notes.push(format!(
                    "bracket {label} bound fell {b}‰ -> {n}‰ (within tolerance)"
                ));
            }
        }
    } else if base.status == FrontierStatus::NeverBreaks {
        // Both never-breaks: `lower` is how far up the axis the claim was
        // actually probed. A shorter candidate axis holds strictly weaker
        // evidence for the same status.
        if fell_beyond_tol(base.lower, now.lower) {
            regressions.push(format!(
                "never-breaks evidence shortened {}‰ -> {}‰",
                base.lower, now.lower
            ));
        } else if now.lower > base.lower {
            notes.push(format!(
                "never-breaks evidence extended {}‰ -> {}‰",
                base.lower, now.lower
            ));
        }
    }
    if base.monotone && !now.monotone {
        regressions.push(format!(
            "cell became non-monotone (success reappears at {:?}‰)",
            now.reappear_rates
        ));
    } else if !base.monotone && now.monotone {
        notes.push("cell became monotone".to_string());
    }
    if base.probes.len() != now.probes.len() {
        notes.push(format!(
            "probe count changed {} -> {}",
            base.probes.len(),
            now.probes.len()
        ));
    }
    CellDelta {
        cell: base.cell_id(),
        change: CellChange::Changed,
        notes,
        regressions,
    }
}

/// Compares the evidence strength recorded in the report headers: a
/// candidate probing a shorter axis, fewer seeds, or a coarser resolution
/// can match every cell's status while holding strictly weaker evidence, so
/// those weakenings must fail the gate on their own.
fn compare_parameters(base: &FrontierReport, candidate: &FrontierReport) -> CellDelta {
    let mut notes = Vec::new();
    let mut regressions = Vec::new();
    let mut param = |label: &str, b: u32, n: u32, weaker_when_smaller: bool| {
        if b == n {
            return;
        }
        let weaker = if weaker_when_smaller { n < b } else { n > b };
        let msg = format!("{label} changed {b} -> {n}");
        if weaker {
            regressions.push(format!("{msg} (weaker evidence)"));
        } else {
            notes.push(msg);
        }
    };
    param(
        "probe axis max rate (per mille)",
        u32::from(base.max_rate),
        u32::from(candidate.max_rate),
        true,
    );
    param(
        "seeds per probe",
        base.seeds_per_cell,
        candidate.seeds_per_cell,
        true,
    );
    param(
        "bracket resolution (per mille)",
        u32::from(base.resolution),
        u32::from(candidate.resolution),
        false,
    );
    CellDelta {
        cell: "(report parameters)".to_string(),
        change: CellChange::Changed,
        notes,
        regressions,
    }
}

/// Compares `candidate` against `base` under `tolerance` — the frontier
/// counterpart of [`crate::diff_reports`], through the same diff core:
/// removed cells, status downgrades, bracket bounds falling beyond
/// tolerance, monotonicity loss and weakened search parameters (shorter
/// axis, fewer seeds, coarser resolution) are regressions; improvements are
/// notes.
pub fn diff_frontier_reports(
    base: &FrontierReport,
    candidate: &FrontierReport,
    tolerance: FrontierTolerance,
) -> ReportDiff {
    let mut diff = ReportDiff::new(
        "Frontier",
        &base.name,
        &candidate.name,
        format!("{}‰", tolerance.mille),
        Json::obj(vec![("mille", Json::Num(f64::from(tolerance.mille)))]),
    );
    let params = compare_parameters(base, candidate);
    if params.has_findings() {
        diff.deltas.push(params);
    }
    diff.match_cells(
        &base.cells,
        &candidate.cells,
        FrontierCell::cell_id,
        |b, n| compare_frontier_cells(b, n, tolerance),
    );
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_frontier(spec: &FrontierSpec) -> Result<FrontierReport, LabError> {
        super::run_frontier(&Caches::new(), spec).map(|(report, _)| report)
    }

    fn tiny_spec() -> FrontierSpec {
        FrontierSpec {
            name: "unit".to_string(),
            families: vec![GraphFamily::Figure3],
            modes: vec![EngineMode::Full],
            workloads: vec![WorkloadSpec::Flood { payload_bytes: 2 }],
            scheduler: SchedulerSpec::Random,
            seeds: SeedRange { start: 1, count: 2 },
            max_steps: 2_000_000,
            max_rate: 1000,
            resolution: 64,
            verify_probes: 2,
        }
    }

    #[test]
    fn frontier_brackets_a_breaking_rate_on_figure3() {
        let report = run_frontier(&tiny_spec()).unwrap();
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        // The construction survives rate 0 (Theorem 2) and dies by 1000‰.
        assert_eq!(cell.status, FrontierStatus::Bracketed);
        assert!(cell.lower < cell.upper);
        assert!(cell.bracket_width() <= 64);
        // The curve holds at the bottom, breaks at the top, and covers both
        // bracket ends.
        assert!(cell.probes.first().unwrap().holds());
        assert!(!cell.probes.last().unwrap().holds());
        assert!(cell.probes.iter().any(|p| p.rate == cell.lower));
        assert!(cell.probes.iter().any(|p| p.rate == cell.upper));
        // Probes are in strictly ascending rate order (the memo key).
        assert!(cell.probes.windows(2).all(|w| w[0].rate < w[1].rate));
        // Reappearances, if any, were detected — never silently bisected over.
        assert_eq!(cell.monotone, cell.reappear_rates.is_empty());
    }

    #[test]
    fn frontier_report_is_deterministic_and_roundtrips() {
        let spec = tiny_spec();
        let a = run_frontier(&spec).unwrap();
        let b = run_frontier(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json_string(), b.to_json_string());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_markdown(), b.to_markdown());
        let parsed = FrontierReport::from_json_str(&a.to_json_string()).unwrap();
        assert_eq!(parsed, a);
        assert_eq!(parsed.to_json_string(), a.to_json_string());
    }

    #[test]
    fn ineligible_cells_are_skipped_with_reasons() {
        let mut spec = tiny_spec();
        spec.families = vec![
            GraphFamily::Figure3,
            GraphFamily::Path { n: 4 },  // not 2EC
            GraphFamily::Cycle { n: 2 }, // does not build
        ];
        spec.workloads = vec![
            WorkloadSpec::Flood { payload_bytes: 2 },
            WorkloadSpec::TokenRing, // unsupported on figure3
        ];
        let report = run_frontier(&spec).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert!(report
            .skipped
            .iter()
            .any(|s| s.cell.starts_with("path(4)") && s.reason.contains("2-edge-connected")));
        assert!(report
            .skipped
            .iter()
            .any(|s| s.cell == "cycle(2)" && s.reason.contains("does not build")));
        assert!(report
            .skipped
            .iter()
            .any(|s| s.cell.contains("token-ring") && s.reason.contains("unsupported")));
    }

    #[test]
    fn empty_or_invalid_specs_are_errors() {
        let mut spec = tiny_spec();
        spec.families = vec![GraphFamily::Path { n: 4 }];
        assert!(matches!(run_frontier(&spec), Err(LabError::EmptyCampaign)));
        let mut bad = tiny_spec();
        bad.resolution = 0;
        assert!(matches!(run_frontier(&bad), Err(LabError::Usage(_))));
        let mut bad = tiny_spec();
        bad.max_rate = 1001;
        assert!(matches!(run_frontier(&bad), Err(LabError::Usage(_))));
        let mut bad = tiny_spec();
        bad.seeds.count = 0;
        assert!(matches!(run_frontier(&bad), Err(LabError::Usage(_))));
    }

    #[test]
    fn from_campaign_inherits_the_cell_axes() {
        let campaign = Campaign::preset("quick").unwrap();
        let spec = FrontierSpec::from_campaign(&campaign);
        assert_eq!(spec.families, campaign.families);
        assert_eq!(spec.modes, campaign.modes);
        assert_eq!(spec.workloads, campaign.workloads);
        assert_eq!(spec.seeds, campaign.seeds);
        assert_eq!(spec.scheduler, campaign.schedulers[0]);
        assert_eq!(spec.max_rate, 1000);
        assert_eq!(spec.resolution, 8);
        assert!(FrontierSpec::preset("warp").is_err());
    }

    #[test]
    fn status_labels_roundtrip() {
        for status in [
            FrontierStatus::BreaksAtZero,
            FrontierStatus::Bracketed,
            FrontierStatus::NeverBreaks,
        ] {
            assert_eq!(FrontierStatus::parse(status.label()).unwrap(), status);
        }
        assert!(FrontierStatus::parse("sideways").is_err());
    }

    fn cell(status: FrontierStatus, lower: u16, upper: u16, monotone: bool) -> FrontierCell {
        FrontierCell {
            family: "figure3".to_string(),
            mode: "full".to_string(),
            workload: "flood(2)".to_string(),
            nodes: 5,
            edges: 8,
            status,
            lower,
            upper,
            monotone,
            reappear_rates: if monotone { vec![] } else { vec![900] },
            probes: vec![
                FrontierProbe {
                    rate: 0,
                    successes: 2,
                    runs: 2,
                },
                FrontierProbe {
                    rate: 1000,
                    successes: 0,
                    runs: 2,
                },
            ],
        }
    }

    fn report(name: &str, cells: Vec<FrontierCell>) -> FrontierReport {
        FrontierReport {
            name: name.to_string(),
            max_rate: 1000,
            resolution: 8,
            seeds_per_cell: 2,
            skipped: vec![],
            cells,
        }
    }

    #[test]
    fn diff_is_clean_on_identical_reports() {
        let a = report("a", vec![cell(FrontierStatus::Bracketed, 40, 48, true)]);
        let d = diff_frontier_reports(&a, &a, FrontierTolerance::default());
        assert!(!d.has_regressions());
        assert_eq!(d.matched, 1);
        assert_eq!(d.unchanged, 1);
        assert!(d.to_markdown().contains("No differences beyond tolerance"));
    }

    #[test]
    fn bracket_decrease_is_a_regression_and_increase_is_not() {
        let base = report("base", vec![cell(FrontierStatus::Bracketed, 40, 48, true)]);
        let closer = report("new", vec![cell(FrontierStatus::Bracketed, 24, 32, true)]);
        let d = diff_frontier_reports(&base, &closer, FrontierTolerance::default());
        assert!(d.has_regressions());
        assert!(d.deltas[0].regressions[0].contains("fell"));
        // The cliff moving away is an improvement.
        let d = diff_frontier_reports(&closer, &base, FrontierTolerance::default());
        assert!(!d.has_regressions());
        assert!(d.deltas[0].notes[0].contains("rose"));
        // A wide-enough tolerance absorbs the decrease.
        let tol = FrontierTolerance { mille: 16 };
        assert!(!diff_frontier_reports(&base, &closer, tol).has_regressions());
    }

    #[test]
    fn status_downgrade_removal_and_monotonicity_loss_fail_the_gate() {
        let never = report(
            "base",
            vec![cell(FrontierStatus::NeverBreaks, 1000, 1000, true)],
        );
        let broke = report("new", vec![cell(FrontierStatus::Bracketed, 40, 48, true)]);
        let d = diff_frontier_reports(&never, &broke, FrontierTolerance::default());
        assert!(d.has_regressions());
        assert!(d.deltas[0].regressions[0].contains("status moved"));
        // The reverse direction is an improvement.
        assert!(
            !diff_frontier_reports(&broke, &never, FrontierTolerance::default()).has_regressions()
        );
        // A removed cell is coverage loss.
        let empty = report("new", vec![]);
        let d = diff_frontier_reports(&never, &empty, FrontierTolerance::default());
        assert!(d.has_regressions());
        assert!(d.deltas[0].regressions[0].contains("removed"));
        // An added cell is a note.
        let d = diff_frontier_reports(&empty, &never, FrontierTolerance::default());
        assert!(!d.has_regressions());
        // Losing monotonicity fails; regaining it is a note.
        let wobbly = report("new", vec![cell(FrontierStatus::Bracketed, 40, 48, false)]);
        let stable = report("base", vec![cell(FrontierStatus::Bracketed, 40, 48, true)]);
        let d = diff_frontier_reports(&stable, &wobbly, FrontierTolerance::default());
        assert!(d.has_regressions());
        assert!(d.deltas[0].regressions[0].contains("non-monotone"));
        assert!(
            !diff_frontier_reports(&wobbly, &stable, FrontierTolerance::default())
                .has_regressions()
        );
    }

    #[test]
    fn weakened_search_parameters_fail_the_gate() {
        // A candidate that probed a shorter axis with fewer seeds at a
        // coarser resolution can agree on every cell status while holding
        // strictly weaker evidence — the header comparison must catch it.
        let base = report(
            "base",
            vec![cell(FrontierStatus::NeverBreaks, 1000, 1000, true)],
        );
        let mut weak = report("new", vec![cell(FrontierStatus::NeverBreaks, 50, 50, true)]);
        weak.max_rate = 50;
        weak.seeds_per_cell = 1;
        weak.resolution = 64;
        let d = diff_frontier_reports(&base, &weak, FrontierTolerance::default());
        assert!(d.has_regressions());
        // Axis, seeds, resolution and the per-cell never-breaks evidence all
        // regressed.
        assert_eq!(d.regression_count(), 4, "{:?}", d.deltas);
        assert!(d.deltas[0].cell.contains("parameters"));
        // The reverse direction (stronger evidence) is all notes.
        let d = diff_frontier_reports(&weak, &base, FrontierTolerance::default());
        assert!(!d.has_regressions());
        assert!(!d.deltas.is_empty());
    }

    #[test]
    fn huge_tolerance_absorbs_instead_of_overflowing() {
        // u16::MAX per mille is far beyond the axis; the comparison must
        // widen instead of wrapping into a spurious regression.
        let base = report(
            "base",
            vec![cell(FrontierStatus::Bracketed, 900, 908, true)],
        );
        let closer = report("new", vec![cell(FrontierStatus::Bracketed, 0, 8, true)]);
        let tol = FrontierTolerance { mille: u16::MAX };
        assert!(!diff_frontier_reports(&base, &closer, tol).has_regressions());
        assert!(
            diff_frontier_reports(&base, &closer, FrontierTolerance::default()).has_regressions()
        );
    }

    #[test]
    fn diff_renderers_cover_both_formats() {
        let base = report("base", vec![cell(FrontierStatus::Bracketed, 40, 48, true)]);
        let worse = report("new", vec![cell(FrontierStatus::BreaksAtZero, 0, 0, true)]);
        let d = diff_frontier_reports(&base, &worse, FrontierTolerance::default());
        let md = d.to_markdown();
        assert!(md.starts_with("# Frontier diff: `base` -> `new`"), "{md}");
        assert!(md.contains("| `figure3/full/flood(2)` | changed | status moved"));
        assert!(md.contains("**REGRESSION**"));
        let j = Json::parse(&d.to_json_string()).unwrap();
        assert_eq!(
            j.get("regression_count").and_then(Json::as_u64),
            Some(d.regression_count() as u64)
        );
        let delta = &j.get("deltas").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(delta.get("change").and_then(Json::as_str), Some("changed"));
        assert_eq!(
            j.get("tolerance").and_then(|t| t.get("mille")),
            Some(&Json::Num(0.0))
        );
    }

    #[test]
    fn parse_rejects_malformed_reports() {
        assert!(FrontierReport::from_json_str("{}").is_err());
        assert!(FrontierReport::from_json_str("not json").is_err());
        let good = report("r", vec![cell(FrontierStatus::Bracketed, 40, 48, true)]);
        let mangled = good.to_json_string().replace("bracketed", "sideways");
        assert!(FrontierReport::from_json_str(&mangled).is_err());
        // A campaign report is *not* a frontier report.
        assert!(
            FrontierReport::from_json_str("{\n  \"campaign\": \"quick\",\n  \"cells\": []\n}")
                .is_err()
        );
    }
}
