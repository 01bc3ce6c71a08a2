//! The adaptive deletion-frontier bisection engine.
//!
//! PR 2's fixed `omission(k)` sweep shows *that* the Theorem 2 construction
//! breaks once the paper's no-deletion assumption is violated; it cannot say
//! *how close* each (family, mode, workload) cell sits to the cliff. This
//! module turns the frontier table into a frontier **curve**: for every such
//! cell of a [`Campaign`], [`run_frontier`] bisects over the omission drop
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
//! and narrows it to the requested resolution. Because equal-seed
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

use fdn_netsim::NoiseSpec;

use crate::cache::Caches;
use crate::diff::{
    cells, exact, fall, id, note, rise, title, Diff, DiffTolerance, Gate, ReportDiff,
};
use crate::error::LabError;
use crate::json::{csv_lines, record, Field, Json};
use crate::report::{check_unique_cells, md_cell, push_skipped_markdown};
use crate::runner::{run_scenario_with, CellTiming};
use crate::spec::{Campaign, Cell, EncodingSpec, Scenario, SkippedCell};

/// Human description of the probe axis, recorded in every report.
pub const FRONTIER_AXIS: &str = "omission drop rate (per mille)";

/// The probe axis of a frontier search; the cells, seeds, step budget,
/// scheduler and link store come from the [`Campaign`] it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierOptions {
    /// Upper end of the probe axis, in per mille (at most 1000).
    pub max_rate: u16,
    /// Target bracket width, in per mille (at least 1): bisection stops once
    /// `upper - lower <= resolution`.
    pub resolution: u16,
    /// Rates probed above the bracket to detect non-monotone cells
    /// (0 disables the verification sweep).
    pub verify_probes: u16,
}

impl Default for FrontierOptions {
    /// The full per-mille axis, bracket width 8, three verification probes.
    fn default() -> Self {
        FrontierOptions {
            max_rate: 1000,
            resolution: 8,
            verify_probes: 3,
        }
    }
}

/// Where a cell's breaking rate was found on the probe axis. The variants
/// are declared in robustness order, from the cell that breaks earliest on
/// the axis, so a status that falls is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FrontierStatus {
    /// The success predicate fails already at rate 0 (the cell is broken
    /// before any deletion happens; nothing to bisect).
    BreaksAtZero,
    /// The smallest breaking rate lies in `(lower, upper]`, bracketed to the
    /// requested resolution.
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
}

/// Written as its [`label`](FrontierStatus::label).
impl Field for FrontierStatus {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_string())
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        FrontierStatus::parse(j.as_str().ok_or("is not a string")?)
    }

    fn csv_columns(key: &str) -> Vec<String> {
        vec![key.to_string()]
    }

    fn csv_cells(&self) -> Vec<String> {
        vec![self.label().to_string()]
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

record! { FrontierProbe { rate, successes, runs } }

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

// Each field names its diff rule (see `crate::diff`); `bracket` is below.
record! {
    FrontierCell {
        family: id, mode: id, workload: id, nodes: exact, edges: exact, status: fall,
        lower: bracket, upper: bracket, monotone: fall, reappear_rates: note, probes: note,
    }
}

/// The diff rule of `lower` and `upper`. With the same bracketed status on
/// both sides, a bound that falls beyond the per-mille tolerance is a
/// regression: the cliff crept closer. With never-breaks on both sides,
/// `lower` is how far up the axis the claim was probed, and is compared the
/// same way. A bound that rises is a note; a status change is the `status`
/// field's finding.
fn bracket(g: &mut Gate, key: &str, b: &u16, n: &u16, (base, now): (&FrontierCell, &FrontierCell)) {
    let compared = match base.status {
        FrontierStatus::Bracketed => true,
        FrontierStatus::NeverBreaks => key == "lower",
        FrontierStatus::BreaksAtZero => false,
    };
    if base.status != now.status || !compared || b == n {
        return;
    }
    // Widened so that a huge --tol-mille cannot overflow u16.
    let beyond = u32::from(*n) + u32::from(g.tol.mille) < u32::from(*b);
    let verb = match (n > b, beyond) {
        (true, _) => "rose",
        (false, true) => "fell",
        (false, false) => "fell within tolerance",
    };
    g.flag(beyond, format!("{key} {verb} {b}‰ -> {n}‰"));
}

impl FrontierCell {
    /// The three-axis cell identity the diff gate matches on, built from
    /// the `id` fields.
    pub fn cell_id(&self) -> String {
        Diff::id(self)
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

/// The probe axis of every frontier report, written as [`FRONTIER_AXIS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierAxis;

impl Field for FrontierAxis {
    fn to_json(&self) -> Json {
        Json::Str(FRONTIER_AXIS.to_string())
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        (j.as_str() == Some(FRONTIER_AXIS))
            .then_some(FrontierAxis)
            .ok_or_else(|| format!("is not `{FRONTIER_AXIS}`"))
    }
}

/// The aggregated result of one frontier search.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierReport {
    /// Search name.
    pub name: String,
    /// The probe axis.
    pub axis: FrontierAxis,
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

// The leading `frontier` key is the kind discriminator `fdn-lab diff`
// dispatches on (campaign reports lead with `campaign` instead). A shorter
// axis, fewer seeds or a coarser resolution is weaker evidence for the same
// statuses, so each fails the gate on its own.
record! {
    FrontierReport {
        name as "frontier": title, axis: exact, max_rate: fall, resolution: rise,
        seeds_per_cell: fall, skipped: note, cells: cells,
    }
}

/// One memoized probe runner per cell: rates probed once, results keyed and
/// rendered in ascending order.
struct CellProber<'a> {
    caches: &'a Caches,
    /// The cell's seed block of the campaign expansion; each probe replaces
    /// its noise with the probe rate.
    block: &'a [Scenario],
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
        let noise = NoiseSpec::Omission {
            drop_per_mille: rate,
        };
        let scenarios: Vec<Scenario> = self
            .block
            .iter()
            .map(|s| Scenario {
                cell: Cell { noise, ..s.cell },
                ..*s
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

/// Bisects one cell (its seed block of the campaign expansion) to its
/// breaking-rate bracket, then runs the non-monotonicity verification sweep.
fn bisect_cell(caches: &Caches, block: &[Scenario], opts: FrontierOptions) -> FrontierCell {
    let mut prober = CellProber {
        caches,
        block,
        memo: BTreeMap::new(),
    };
    let (status, lower, upper) = if !prober.holds(0) {
        (FrontierStatus::BreaksAtZero, 0, 0)
    } else if prober.holds(opts.max_rate) {
        (FrontierStatus::NeverBreaks, opts.max_rate, opts.max_rate)
    } else {
        // Invariant: holds(lo) && !holds(hi). Integer bisection narrows the
        // bracket to the resolution in ceil(log2(max_rate / resolution))
        // probes.
        let (mut lo, mut hi) = (0u16, opts.max_rate);
        while hi - lo > opts.resolution {
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
        let span = u32::from(opts.max_rate - upper);
        for i in 1..=u32::from(opts.verify_probes) {
            let rate = upper + (span * i / (u32::from(opts.verify_probes) + 1)) as u16;
            if rate > upper && rate < opts.max_rate {
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
    let cell = block[0].cell;
    let topo = caches
        .topology
        .get(cell.family)
        .expect("campaign expansion built this family");
    FrontierCell {
        family: cell.family.label(),
        mode: cell.mode.label(),
        workload: cell.workload.label(),
        nodes: topo.graph.node_count(),
        edges: topo.graph.edge_count(),
        status,
        lower,
        upper,
        monotone: reappear_rates.is_empty(),
        reappear_rates,
        probes,
    }
}

/// Runs the full frontier search over `campaign`: each (family, mode,
/// workload) cell is probed with the binary encoding (unary cannot tolerate
/// deletion), the campaign's first scheduler, seeds, step budget and link
/// store, and bisected to its breaking-rate bracket on the `opts` axis. The
/// cells are the seed blocks of the campaign's own expansion, so ineligible
/// combinations are skipped with the same reasons and six-axis ids as in
/// every other report. Shared work is drawn from `caches` (the hook through
/// which `--store DIR` threads a persistent checkpoint store under the
/// replay tier; the caches only accelerate).
///
/// Deterministic: same campaign and options, same report bytes, independent
/// of thread count. Alongside the report comes one [`CellTiming`] per
/// bisected cell, in report order — the only place wall time goes.
///
/// # Errors
///
/// Returns [`LabError::Usage`] for invalid axis parameters or a campaign
/// without seeds, and [`LabError::EmptyCampaign`] if no cell is eligible.
pub fn run_frontier(
    caches: &Caches,
    campaign: &Campaign,
    opts: FrontierOptions,
) -> Result<(FrontierReport, Vec<CellTiming>), LabError> {
    if opts.max_rate == 0 || opts.max_rate > 1000 {
        return Err(LabError::Usage(
            "frontier max rate must be in 1..=1000 per mille".into(),
        ));
    }
    if opts.resolution == 0 {
        return Err(LabError::Usage(
            "frontier resolution must be at least 1 per mille".into(),
        ));
    }
    if campaign.seeds.count == 0 {
        return Err(LabError::Usage(
            "frontier needs at least one seed per probe".into(),
        ));
    }
    let mut probed = campaign.clone();
    probed.encodings = vec![EncodingSpec::Binary];
    probed.noises = vec![NoiseSpec::Omission { drop_per_mille: 0 }];
    probed.schedulers.truncate(1);
    let (scenarios, skipped) = probed.expand_with_skips();
    let mut cells = Vec::new();
    let mut timings = Vec::new();
    for block in scenarios.chunk_by(|a, b| a.cell == b.cell) {
        let watch = crate::timing::Stopwatch::start();
        let cell = bisect_cell(caches, block, opts);
        timings.push(CellTiming {
            cell: cell.cell_id(),
            wall_ms: watch.elapsed_ms(),
            runs: cell.probes.iter().map(|p| p.runs as usize).sum(),
        });
        cells.push(cell);
    }
    if cells.is_empty() {
        return Err(LabError::EmptyCampaign);
    }
    Ok((
        FrontierReport {
            name: campaign.name.clone(),
            axis: FrontierAxis,
            max_rate: opts.max_rate,
            resolution: opts.resolution,
            seeds_per_cell: campaign.seeds.count,
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

    /// Renders the report as a JSON document.
    pub fn to_json_string(&self) -> String {
        Field::to_json(self).render()
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
    /// Returns a description of the first structural problem, or names a
    /// cell that appears twice.
    pub fn from_json(j: &Json) -> Result<FrontierReport, String> {
        let report = <FrontierReport as Field>::from_json(j)?;
        // Bracket ends are ordered, or the width would underflow.
        if let Some(i) = report.cells.iter().position(|c| c.lower > c.upper) {
            return Err(format!("`cells[{i}]` field `lower` is above field `upper`"));
        }
        check_unique_cells(&report.cells)?;
        Ok(report)
    }

    /// Renders the frontier curves as CSV: one row per probe, with the cell
    /// identity and bracket repeated on every row of its curve.
    pub fn to_csv(&self) -> String {
        let header = [
            FrontierCell::csv_columns(""),
            FrontierProbe::csv_columns(""),
        ]
        .concat();
        let rows = self.cells.iter().flat_map(|c| {
            c.probes
                .iter()
                .map(move |p| [c.csv_cells(), p.csv_cells()].concat())
        });
        csv_lines(header, rows)
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

/// Compares `candidate` against `base` under `tolerance` — the frontier
/// counterpart of [`crate::diff_reports`], through the same walk of the
/// `record!` tables; only [`DiffTolerance::mille`] applies.
pub fn diff_frontier_reports(
    base: &FrontierReport,
    candidate: &FrontierReport,
    tolerance: DiffTolerance,
) -> ReportDiff {
    let mut diff = ReportDiff::new(
        "Frontier",
        &base.name,
        &candidate.name,
        format!("{}‰", tolerance.mille),
        Json::obj(vec![("mille", Json::Num(f64::from(tolerance.mille)))]),
    );
    diff.compare_headers(base, candidate, tolerance);
    diff.match_cells(&base.cells, &candidate.cells, tolerance);
    diff
}

/// A figure-3 cell probed at 0 (holds) and 1000 (breaks): the fixture the
/// frontier diff and parser tests vary.
#[cfg(test)]
pub(crate) fn cell(status: FrontierStatus, lower: u16, upper: u16, monotone: bool) -> FrontierCell {
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

/// A report of `cells` on the default axis with two seeds per probe.
#[cfg(test)]
pub(crate) fn report(name: &str, cells: Vec<FrontierCell>) -> FrontierReport {
    FrontierReport {
        name: name.to_string(),
        axis: FrontierAxis,
        max_rate: 1000,
        resolution: 8,
        seeds_per_cell: 2,
        skipped: vec![],
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use fdn_graph::GraphFamily;
    use fdn_netsim::LinkStore;
    use fdn_protocols::WorkloadSpec;

    use crate::spec::SeedRange;

    fn run_frontier(
        campaign: &Campaign,
        opts: FrontierOptions,
    ) -> Result<FrontierReport, LabError> {
        super::run_frontier(&Caches::new(), campaign, opts).map(|(report, _)| report)
    }

    /// One figure-3 full-mode flood cell, two seeds.
    fn tiny_campaign() -> Campaign {
        Campaign {
            workloads: vec![WorkloadSpec::Flood { payload_bytes: 2 }],
            seeds: SeedRange { start: 1, count: 2 },
            max_steps: 2_000_000,
            ..Campaign::new("unit")
        }
    }

    const COARSE: FrontierOptions = FrontierOptions {
        max_rate: 1000,
        resolution: 64,
        verify_probes: 2,
    };

    #[test]
    fn frontier_brackets_a_breaking_rate_on_figure3() {
        let report = run_frontier(&tiny_campaign(), COARSE).unwrap();
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
        let a = run_frontier(&tiny_campaign(), COARSE).unwrap();
        let b = run_frontier(&tiny_campaign(), COARSE).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json_string(), b.to_json_string());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_markdown(), b.to_markdown());
        let parsed = FrontierReport::from_json_str(&a.to_json_string()).unwrap();
        assert_eq!(parsed, a);
        assert_eq!(parsed.to_json_string(), a.to_json_string());
    }

    #[test]
    fn probes_follow_the_campaign_link_store() {
        // The store is an engine choice: the counting store's probes must
        // reproduce the exact store's report, bytes included.
        let exact = run_frontier(&tiny_campaign(), COARSE).unwrap();
        let counting = Campaign {
            link_store_override: Some(LinkStore::Counting),
            ..tiny_campaign()
        };
        let counting = run_frontier(&counting, COARSE).unwrap();
        assert_eq!(counting, exact);
        assert_eq!(counting.to_json_string(), exact.to_json_string());
    }

    #[test]
    fn ineligible_cells_are_skipped_with_reasons() {
        let mut campaign = tiny_campaign();
        campaign.families = vec![
            GraphFamily::Figure3,
            GraphFamily::Path { n: 4 },  // not 2EC
            GraphFamily::Cycle { n: 2 }, // does not build
        ];
        campaign.workloads = vec![
            WorkloadSpec::Flood { payload_bytes: 2 },
            WorkloadSpec::TokenRing, // unsupported on figure3
        ];
        let report = run_frontier(&campaign, COARSE).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert!(report
            .skipped
            .iter()
            .any(|s| s.cell.starts_with("path(4)") && s.reason.contains("2-edge-connected")));
        assert!(report
            .skipped
            .iter()
            .any(|s| s.cell == "cycle(2)" && s.reason.contains("does not build")));
        // Skip ids are the six-axis cell ids of every other report.
        assert!(report.skipped.iter().any(|s| s.cell
            == "figure3/full/binary/token-ring/omission(0)/random"
            && s.reason.contains("unsupported")));
    }

    #[test]
    fn empty_or_invalid_specs_are_errors() {
        let mut campaign = tiny_campaign();
        campaign.families = vec![GraphFamily::Path { n: 4 }];
        assert!(matches!(
            run_frontier(&campaign, COARSE),
            Err(LabError::EmptyCampaign)
        ));
        for bad in [
            FrontierOptions {
                resolution: 0,
                ..COARSE
            },
            FrontierOptions {
                max_rate: 1001,
                ..COARSE
            },
        ] {
            assert!(matches!(
                run_frontier(&tiny_campaign(), bad),
                Err(LabError::Usage(_))
            ));
        }
        let mut seedless = tiny_campaign();
        seedless.seeds.count = 0;
        assert!(matches!(
            run_frontier(&seedless, COARSE),
            Err(LabError::Usage(_))
        ));
    }

    #[test]
    fn one_cell_per_family_mode_and_workload() {
        // Encodings, noises and every scheduler but the first are not probe
        // axes: a preset sweeping several noises and two schedulers still
        // yields one cell per (family, mode, workload), probed on its first
        // scheduler.
        let mut campaign = Campaign::preset("quick").unwrap();
        campaign.families = vec![GraphFamily::Figure3, GraphFamily::Cycle { n: 4 }];
        assert!(campaign.noises.len() > 1 && campaign.schedulers.len() == 2);
        let axis = FrontierOptions {
            resolution: 500,
            verify_probes: 0,
            ..FrontierOptions::default()
        };
        let report = run_frontier(&campaign, axis).unwrap();
        let mut ids: Vec<String> = report.cells.iter().map(FrontierCell::cell_id).collect();
        let expected = campaign.families.len() * campaign.modes.len() * campaign.workloads.len();
        assert_eq!(ids.len() + report.skipped.len(), expected);
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), report.cells.len());
        campaign.schedulers.truncate(1);
        assert_eq!(run_frontier(&campaign, axis).unwrap(), report);
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

    #[test]
    fn diff_is_clean_on_identical_reports() {
        let a = report("a", vec![cell(FrontierStatus::Bracketed, 40, 48, true)]);
        let d = diff_frontier_reports(&a, &a, DiffTolerance::default());
        assert!(!d.has_regressions());
        assert_eq!(d.matched, 1);
        assert_eq!(d.unchanged, 1);
        assert!(d.to_markdown().contains("No differences beyond tolerance"));
    }

    #[test]
    fn bracket_decrease_is_a_regression_and_increase_is_not() {
        let base = report("base", vec![cell(FrontierStatus::Bracketed, 40, 48, true)]);
        let closer = report("new", vec![cell(FrontierStatus::Bracketed, 24, 32, true)]);
        let d = diff_frontier_reports(&base, &closer, DiffTolerance::default());
        assert!(d.has_regressions());
        assert!(d.deltas[0].regressions[0].contains("fell"));
        // The cliff moving away is an improvement.
        let d = diff_frontier_reports(&closer, &base, DiffTolerance::default());
        assert!(!d.has_regressions());
        assert!(d.deltas[0].notes[0].contains("rose"));
        // A wide-enough tolerance absorbs the decrease.
        let tol = DiffTolerance {
            mille: 16,
            ..DiffTolerance::default()
        };
        assert!(!diff_frontier_reports(&base, &closer, tol).has_regressions());
    }

    #[test]
    fn status_downgrade_removal_and_monotonicity_loss_fail_the_gate() {
        let never = report(
            "base",
            vec![cell(FrontierStatus::NeverBreaks, 1000, 1000, true)],
        );
        let broke = report("new", vec![cell(FrontierStatus::Bracketed, 40, 48, true)]);
        let d = diff_frontier_reports(&never, &broke, DiffTolerance::default());
        assert!(d.has_regressions());
        assert!(d.deltas[0].regressions[0].contains("status fell"));
        // The reverse direction is an improvement.
        assert!(!diff_frontier_reports(&broke, &never, DiffTolerance::default()).has_regressions());
        // A removed cell is coverage loss.
        let empty = report("new", vec![]);
        let d = diff_frontier_reports(&never, &empty, DiffTolerance::default());
        assert!(d.has_regressions());
        assert!(d.deltas[0].regressions[0].contains("removed"));
        // An added cell is a note.
        let d = diff_frontier_reports(&empty, &never, DiffTolerance::default());
        assert!(!d.has_regressions());
        // Losing monotonicity fails; regaining it is a note.
        let wobbly = report("new", vec![cell(FrontierStatus::Bracketed, 40, 48, false)]);
        let stable = report("base", vec![cell(FrontierStatus::Bracketed, 40, 48, true)]);
        let d = diff_frontier_reports(&stable, &wobbly, DiffTolerance::default());
        assert!(d.has_regressions());
        assert!(d.deltas[0].regressions[0].contains("monotone fell"));
        assert!(
            !diff_frontier_reports(&wobbly, &stable, DiffTolerance::default()).has_regressions()
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
        let d = diff_frontier_reports(&base, &weak, DiffTolerance::default());
        assert!(d.has_regressions());
        // Axis, seeds, resolution and the per-cell never-breaks evidence all
        // regressed.
        assert_eq!(d.regression_count(), 4, "{:?}", d.deltas);
        assert!(d.deltas[0].cell.contains("parameters"));
        // The reverse direction (stronger evidence) is all notes.
        let d = diff_frontier_reports(&weak, &base, DiffTolerance::default());
        assert!(!d.has_regressions());
        assert!(!d.deltas.is_empty());
    }

    #[test]
    fn every_frontier_report_key_is_gated() {
        let mut full = report("base", vec![cell(FrontierStatus::Bracketed, 4, 8, false)]);
        full.skipped = vec![SkippedCell {
            cell: "path(4)".to_string(),
            reason: "not 2-edge-connected".to_string(),
        }];
        let doc = Json::parse(&full.to_json_string()).unwrap();
        // A status must stay a status label; `lower` and `upper` rise by
        // one within the bracket; the parser accepts no other axis.
        crate::diff::assert_every_key_gated(
            &doc,
            FrontierReport::from_json,
            |b, n| diff_frontier_reports(b, n, DiffTolerance::default()),
            (&["family", "mode", "workload"], "frontier", &["axis"]),
            &[("status", Json::Str("never-breaks".to_string()))],
        );
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
        let tol = DiffTolerance {
            mille: u16::MAX,
            ..DiffTolerance::default()
        };
        assert!(!diff_frontier_reports(&base, &closer, tol).has_regressions());
        assert!(diff_frontier_reports(&base, &closer, DiffTolerance::default()).has_regressions());
    }

    #[test]
    fn diff_renderers_cover_both_formats() {
        let base = report("base", vec![cell(FrontierStatus::Bracketed, 40, 48, true)]);
        let worse = report("new", vec![cell(FrontierStatus::BreaksAtZero, 0, 0, true)]);
        let d = diff_frontier_reports(&base, &worse, DiffTolerance::default());
        let md = d.to_markdown();
        assert!(md.starts_with("# Frontier diff: `base` -> `new`"), "{md}");
        assert!(md.contains("| `figure3/full/flood(2)` | changed | status fell"));
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
        // Numbers a field's type cannot hold are errors naming the field,
        // never wrapped (66536 as u16 would read back as 1000).
        for (from, to, key) in [
            ("\"max_rate\": 1000", "\"max_rate\": 66536", "max_rate"),
            ("\"rate\": 0", "\"rate\": 70000", "rate"),
        ] {
            let tampered = good.to_json_string().replacen(from, to, 1);
            let err = FrontierReport::from_json_str(&tampered).unwrap_err();
            assert!(
                err.contains(&format!("field `{key}` is not an integer in range")),
                "{err}"
            );
        }
        // An inverted bracket is malformed, not a width near u16::MAX.
        let inverted = good
            .to_json_string()
            .replacen("\"lower\": 40", "\"lower\": 50", 1);
        let err = FrontierReport::from_json_str(&inverted).unwrap_err();
        assert!(err.contains("`cells[0]` field `lower`"), "{err}");
        // A campaign report is *not* a frontier report.
        assert!(
            FrontierReport::from_json_str("{\n  \"campaign\": \"quick\",\n  \"cells\": []\n}")
                .is_err()
        );
    }
}
