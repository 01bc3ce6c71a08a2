//! Aggregation of scenario outcomes into a campaign report, with JSON, CSV
//! and markdown renderers.
//!
//! Outcomes are grouped by [`Cell`](crate::spec::Cell) (every axis but the
//! seed) in expansion
//! order and summarized per metric as min / mean / p50 / p95 / max across
//! seeds, plus success and quiescence rates. Reports contain no wall-clock
//! data and all grouping is order-preserving, so a report — and each of its
//! three renderings — is a byte-deterministic function of the campaign.

use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::cache::TopologyCache;
use crate::diff::{cells, cost, cost_if_both, exact, fall, id, note, rate, rise, title, Diff};
use crate::json::{csv_lines, record, Field, Json};
use crate::runner::ScenarioOutcome;
use crate::spec::{Campaign, SkippedCell};

/// Escapes a value for use inside a markdown table cell (`|` would otherwise
/// split the column).
pub(crate) fn md_cell(s: &str) -> String {
    s.replace('|', "\\|")
}

/// Appends the "Skipped combinations" section that closes every markdown
/// rendering; nothing when no combination was skipped.
pub(crate) fn push_skipped_markdown(out: &mut String, skipped: &[SkippedCell]) {
    if skipped.is_empty() {
        return;
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "## Skipped combinations");
    let _ = writeln!(out);
    for s in skipped {
        let _ = writeln!(out, "* `{}` — {}", s.cell, s.reason);
    }
}

/// Renders a rate in `[0, 1]` as a percentage with enough precision that
/// near-misses stay visible: `100%` and `0%` are shown only for *exactly* 1
/// and 0, everything else keeps two decimals (trailing zeros trimmed) and is
/// clamped into `(0, 100)` — so 0.995 renders as `99.5%`, never `100%`.
pub fn fmt_rate(rate: f64) -> String {
    if rate >= 1.0 {
        return "100%".to_string();
    }
    if rate <= 0.0 || rate.is_nan() {
        return "0%".to_string();
    }
    let pct = (rate * 100.0).clamp(0.01, 99.99);
    let mut s = format!("{pct:.2}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    format!("{s}%")
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `[0, 100]`).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty slice");
    let q = q.clamp(0.0, 100.0);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Five-number summary of one metric across the seeds of a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Smallest observation.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// Largest observation.
    pub max: f64,
}

impl MetricSummary {
    /// The all-zero summary, the metrics of the test fixtures.
    #[cfg(test)]
    pub(crate) const ZERO: MetricSummary = MetricSummary {
        min: 0.0,
        mean: 0.0,
        p50: 0.0,
        p95: 0.0,
        max: 0.0,
    };

    /// Summarizes `values`; `None` if there are none.
    ///
    /// NaN observations are deliberately *filtered out* rather than sorted or
    /// averaged: a NaN would poison the mean and (although `total_cmp` cannot
    /// panic) would sort past `+inf` and silently distort max/p95. A metric
    /// whose observations are all NaN summarizes to `None`, same as an empty
    /// one.
    pub fn from_values(values: &[f64]) -> Option<MetricSummary> {
        let finite_or_inf: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if finite_or_inf.is_empty() {
            return None;
        }
        let mut sorted = finite_or_inf.clone();
        sorted.sort_by(f64::total_cmp);
        Some(MetricSummary {
            min: sorted[0],
            mean: finite_or_inf.iter().sum::<f64>() / finite_or_inf.len() as f64,
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            max: sorted[sorted.len() - 1],
        })
    }

    /// The five statistics, in JSON and CSV order.
    pub(crate) const STATS: [&'static str; 5] = ["min", "mean", "p50", "p95", "max"];

    /// The values of the five [`STATS`](Self::STATS), in the same order.
    pub(crate) fn values(&self) -> [f64; 5] {
        [self.min, self.mean, self.p50, self.p95, self.max]
    }
}

/// Written as an object of the five statistics, and as the CSV columns
/// `KEY_min` … `KEY_max`.
impl Field for MetricSummary {
    fn to_json(&self) -> Json {
        Json::obj(
            MetricSummary::STATS
                .into_iter()
                .zip(self.values().map(Json::Num))
                .collect(),
        )
    }

    fn from_json(j: &Json) -> Result<MetricSummary, String> {
        // JSON has no NaN/infinity; the writer renders them as `null`
        // (see `Json::render`), so `null` parses back as NaN — the round
        // trip is lossy in spelling but total, never an error.
        let stat = |k: &str| match j.field(k)? {
            Json::Null => Ok(f64::NAN),
            _ => j.read(k),
        };
        Ok(MetricSummary {
            min: stat("min")?,
            mean: stat("mean")?,
            p50: stat("p50")?,
            p95: stat("p95")?,
            max: stat("max")?,
        })
    }

    fn csv_columns(key: &str) -> Vec<String> {
        MetricSummary::STATS
            .map(|stat| format!("{key}_{stat}"))
            .to_vec()
    }

    fn csv_cells(&self) -> Vec<String> {
        self.values().map(|x| x.to_string()).to_vec()
    }
}

/// Aggregated measurements of one cell (family x mode x encoding x workload
/// x noise x scheduler) across its seed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Graph family label.
    pub family: String,
    /// Engine mode label.
    pub mode: String,
    /// Encoding label.
    pub encoding: String,
    /// Workload label.
    pub workload: String,
    /// Noise label.
    pub noise: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Index (in the campaign's full expansion) of the cell's first scenario.
    /// Identifies the cell's position in expansion order even when the
    /// report covers only a shard of the matrix — [`merge_reports`] sorts by
    /// it to recombine shards into the unsharded cell order.
    pub first_scenario_index: usize,
    /// Nodes in the graph.
    pub nodes: usize,
    /// Edges in the graph.
    pub edges: usize,
    /// Length of the centralized reference Robbins cycle (0 if unavailable).
    pub reference_cycle_len: usize,
    /// Scenarios aggregated (one per seed).
    pub runs: usize,
    /// Runs that ended in an error (step limit, engine error).
    pub errors: usize,
    /// Runs whose noiseless direct baseline failed (distinct from "the
    /// workload has no baseline": these cells *should* have an overhead
    /// column and don't, and the markdown rendering marks them explicitly).
    pub baseline_errors: usize,
    /// The construct-once seed of replay cells (`None` for the other
    /// modes). Recorded so replay reports stay diffable: two reports measure
    /// the same thing only if their cells replay the same construction.
    pub construction_seed: Option<u64>,
    /// Fraction of runs whose workload predicate held.
    pub success_rate: f64,
    /// Fraction of runs that reached quiescence.
    pub quiescence_rate: f64,
    /// Total pulses sent.
    pub pulses: MetricSummary,
    /// Deliveries performed.
    pub steps: MetricSummary,
    /// Messages deleted in transit (0 under the paper's alteration-only
    /// model; positive under the deletion-side noise adversaries).
    pub dropped: MetricSummary,
    /// Construction-phase pulses (`CCinit`).
    pub cc_init: MetricSummary,
    /// Online-phase pulses.
    pub online_pulses: MetricSummary,
    /// Pulses sent by the busiest node.
    pub max_node_pulses: MetricSummary,
    /// Pulses sent over the busiest edge.
    pub max_edge_pulses: MetricSummary,
    /// High-water mark of messages simultaneously in flight (queue-depth
    /// observability of the link-indexed event core).
    pub max_inflight: MetricSummary,
    /// Length of the cycle actually used.
    pub cycle_len: MetricSummary,
    /// Messages of the noiseless direct baseline (0 when the workload cannot
    /// run directly).
    pub baseline_messages: MetricSummary,
    /// Online pulses per baseline message (`CCoverhead`), when a noiseless
    /// baseline exists for the workload.
    pub overhead: Option<MetricSummary>,
    /// One diagnostic line per run that stalled mid-construction (prefixed
    /// with its seed). Empty — and absent from the JSON — for healthy cells.
    pub stall_diagnostics: Vec<String>,
}

// The stall diagnostics are optional: omitted when empty, so healthy
// campaigns keep the exact bytes they produced before the field existed
// (the byte identity the CI rerun gates compare). Each field names its
// diff rule (see `crate::diff`).
record! {
    CellReport {
        family: id, mode: id, encoding: id, workload: id, noise: id, scheduler: id,
        first_scenario_index: note, nodes: exact, edges: exact, reference_cycle_len: exact,
        runs: note, errors: rise, baseline_errors: rise,
        construction_seed: note, success_rate: rate, quiescence_rate: rate, pulses: cost,
        steps: cost, dropped: cost, cc_init: cost, online_pulses: cost,
        max_node_pulses: cost, max_edge_pulses: cost, max_inflight: cost, cycle_len: cost,
        baseline_messages: cost, overhead: cost_if_both,
    } optional {
        stall_diagnostics: note,
    }
}

/// The aggregated result of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Scenarios executed.
    pub scenario_count: usize,
    /// Seeds per cell.
    pub seeds_per_cell: u32,
    /// Matrix combinations excluded at expansion time.
    pub skipped: Vec<SkippedCell>,
    /// Per-cell aggregates, in expansion order.
    pub cells: Vec<CellReport>,
}

record! {
    CampaignReport {
        name as "campaign": title, scenario_count as "scenarios": note, seeds_per_cell: fall,
        skipped: note, cells: cells,
    }
}

/// Groups outcomes by cell and summarizes each group. Outcomes must arrive
/// in expansion order (as [`crate::run_campaign`] collects them): each
/// cell's seeds are then one contiguous run, which is what is grouped. The
/// `cache` supplies the per-family reference cycle for the
/// `reference_cycle_len` column without rebuilding it per cell.
pub fn aggregate(
    campaign: &Campaign,
    outcomes: &[ScenarioOutcome],
    skipped: &[SkippedCell],
    cache: &TopologyCache,
) -> CampaignReport {
    let cells = outcomes
        .chunk_by(|a, b| a.scenario.cell == b.scenario.cell)
        .map(|group| summarize_cell(group, cache))
        .collect();
    CampaignReport {
        name: campaign.name.clone(),
        scenario_count: outcomes.len(),
        seeds_per_cell: campaign.seeds.count,
        skipped: skipped.to_vec(),
        cells,
    }
}

fn summarize_cell(group: &[ScenarioOutcome], cache: &TopologyCache) -> CellReport {
    let cell = group[0].scenario.cell;
    let runs = group.len();
    let metric = |f: &dyn Fn(&ScenarioOutcome) -> f64| {
        let values: Vec<f64> = group.iter().map(f).collect();
        MetricSummary::from_values(&values).expect("group is non-empty")
    };
    let overhead_values: Vec<f64> = group.iter().filter_map(|o| o.overhead_ratio()).collect();
    let reference_cycle_len = cache
        .get(cell.family)
        .ok()
        .and_then(|topo| topo.cycle.as_ref().ok().map(fdn_graph::RobbinsCycle::len))
        .unwrap_or(0);
    CellReport {
        family: cell.family.label(),
        mode: cell.mode.label(),
        encoding: cell.encoding.label(),
        workload: cell.workload.label(),
        noise: cell.noise.label(),
        scheduler: cell.scheduler.label(),
        first_scenario_index: group[0].scenario.index,
        nodes: group[0].nodes,
        edges: group[0].edges,
        reference_cycle_len,
        runs,
        errors: group.iter().filter(|o| o.error.is_some()).count(),
        baseline_errors: group.iter().filter(|o| o.baseline_error.is_some()).count(),
        construction_seed: (cell.mode == crate::spec::EngineMode::Replay)
            .then(|| group[0].scenario.construction_seed),
        success_rate: group.iter().filter(|o| o.success).count() as f64 / runs as f64,
        quiescence_rate: group.iter().filter(|o| o.quiescent).count() as f64 / runs as f64,
        pulses: metric(&|o| o.stats.sent_total as f64),
        steps: metric(&|o| o.steps as f64),
        dropped: metric(&|o| o.stats.dropped_total as f64),
        cc_init: metric(&|o| o.cc_init() as f64),
        online_pulses: metric(&|o| o.online_pulses() as f64),
        max_node_pulses: metric(&|o| o.stats.max_sent_by_node() as f64),
        max_edge_pulses: metric(&|o| o.stats.max_sent_on_edge() as f64),
        max_inflight: metric(&|o| o.stats.max_inflight as f64),
        cycle_len: metric(&|o| o.cycle_len as f64),
        baseline_messages: metric(&|o| o.baseline_messages as f64),
        overhead: MetricSummary::from_values(&overhead_values),
        stall_diagnostics: group
            .iter()
            .filter_map(|o| {
                o.stall_diagnostic
                    .as_ref()
                    .map(|d| format!("s{}: {d}", o.scenario.seed))
            })
            .collect(),
    }
}

impl CellReport {
    /// The cell identity, in the same `/`-joined label format as
    /// `Cell::id()` (and as skipped-cell entries): the key reports are
    /// matched on when diffing and merging, built from the `id` fields.
    pub fn cell_id(&self) -> String {
        Diff::id(self)
    }
}

impl CampaignReport {
    /// Renders the report as a JSON document.
    pub fn to_json_string(&self) -> String {
        Field::to_json(self).render()
    }

    /// Parses a report previously rendered by
    /// [`CampaignReport::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json_str(text: &str) -> Result<CampaignReport, String> {
        let j = Json::parse(text)?;
        CampaignReport::from_json(&j)
    }

    /// Parses an already-parsed JSON document (see
    /// [`CampaignReport::from_json_str`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem, or names a
    /// cell that appears twice.
    pub fn from_json(j: &Json) -> Result<CampaignReport, String> {
        let report = <CampaignReport as Field>::from_json(j)?;
        check_unique_cells(&report.cells)?;
        Ok(report)
    }

    /// Renders the report as CSV (one row per cell).
    pub fn to_csv(&self) -> String {
        csv_lines(
            CellReport::csv_columns(""),
            self.cells.iter().map(Field::csv_cells),
        )
    }

    /// Renders the report as a markdown document.
    pub fn to_markdown(&self) -> String {
        self.to_markdown_with_wall_clock(None)
    }

    /// Renders the report as a markdown document, optionally recording the
    /// campaign's wall-clock time in the header. The wall clock lives **only**
    /// in this rendering: the JSON/CSV reports stay clock-free so that equal
    /// campaigns keep producing byte-identical machine-readable artifacts
    /// (the determinism the diff gate and shard merging rely on).
    pub fn to_markdown_with_wall_clock(&self, wall_clock_secs: Option<f64>) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Campaign `{}`", self.name);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} scenarios across {} cells ({} seeds per cell).",
            self.scenario_count,
            self.cells.len(),
            self.seeds_per_cell
        );
        if let Some(secs) = wall_clock_secs {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "Wall clock: {secs:.2}s ({:.1} scenarios/s).",
                self.scenario_count as f64 / secs.max(1e-9),
            );
        }
        let _ = writeln!(out);
        out.push_str(
            "| family | mode | enc | workload | noise | sched | n | m | \\|C\\| p50 | \
             success | quiesc | pulses p50 | pulses p95 | dropped p50 | maxQ p50 | \
             CCinit p50 | overhead p50 |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
        for c in &self.cells {
            // A failed baseline is an explicit marker, never a blank cell:
            // "—" is reserved for workloads that genuinely have no baseline,
            // and a partial failure annotates the surviving seeds' ratio.
            let overhead = match (c.overhead, c.baseline_errors) {
                (Some(o), 0) => format!("{:.1}", o.p50),
                (Some(o), k) => format!("{:.1} (baseline-error×{k})", o.p50),
                (None, 0) => "—".to_string(),
                (None, k) => format!("baseline-error×{k}"),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {:.0} | {} | {} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {} |",
                md_cell(&c.family),
                md_cell(&c.mode),
                md_cell(&c.encoding),
                md_cell(&c.workload),
                md_cell(&c.noise),
                md_cell(&c.scheduler),
                c.nodes,
                c.edges,
                c.cycle_len.p50,
                fmt_rate(c.success_rate),
                fmt_rate(c.quiescence_rate),
                c.pulses.p50,
                c.pulses.p95,
                c.dropped.p50,
                c.max_inflight.p50,
                c.cc_init.p50,
                overhead,
            );
        }
        let replay_cells: Vec<&CellReport> = self
            .cells
            .iter()
            .filter(|c| c.construction_seed.is_some())
            .collect();
        if !replay_cells.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "Replay cells construct once and sweep only the online phase; \
                 construction seeds: {}.",
                replay_cells
                    .iter()
                    .map(|c| format!(
                        "`{}` s{}",
                        md_cell(&c.cell_id()),
                        c.construction_seed.expect("filtered above")
                    ))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        let stalled: Vec<&CellReport> = self
            .cells
            .iter()
            .filter(|c| !c.stall_diagnostics.is_empty())
            .collect();
        if !stalled.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "## Stall diagnostics");
            let _ = writeln!(out);
            for c in stalled {
                for d in &c.stall_diagnostics {
                    let _ = writeln!(out, "* `{}` {}", c.cell_id(), d);
                }
            }
        }
        push_skipped_markdown(&mut out, &self.skipped);
        out
    }
}

/// Checks that no two of a report's `cells` share an id. Diffs and merges
/// match cells by id, so a repeated cell would be compared through one of
/// its copies only.
fn check_unique_cells(cells: &[CellReport]) -> Result<(), String> {
    let mut seen = BTreeMap::new();
    for (i, c) in cells.iter().enumerate() {
        match seen.entry(c.id()) {
            btree_map::Entry::Vacant(slot) => {
                slot.insert(i);
            }
            btree_map::Entry::Occupied(first) => {
                return Err(format!(
                    "cell `{}` appears twice, as `cells[{}]` and `cells[{i}]`",
                    first.key(),
                    first.get()
                ));
            }
        }
    }
    Ok(())
}

/// Recombines per-shard [`CampaignReport`]s (produced by `fdn-lab run
/// --shard K/M`) into the report of the whole campaign.
///
/// Cell aggregation is associative because sharding is **cell-atomic**: a
/// shard runs every seed of each of its cells, so each shard report already
/// carries the cell's final summary and merging reduces to re-interleaving
/// cells into expansion order (by [`CellReport::first_scenario_index`]).
/// Every shard expands the *full* matrix before slicing, so the skip lists
/// coincide and deduplicate to the unsharded list. The result is
/// **byte-identical** to the report of an unsharded run of the same
/// campaign.
///
/// # Errors
///
/// Returns a description of the problem if no report is given, the reports
/// disagree on campaign name or seed count, or two reports cover the same
/// cell (overlapping or repeated shards).
pub fn merge_reports(reports: &[CampaignReport]) -> Result<CampaignReport, String> {
    let first = reports
        .first()
        .ok_or_else(|| "merge needs at least one report".to_string())?;
    let mut cells: Vec<CellReport> = Vec::new();
    let mut skipped: Vec<SkippedCell> = Vec::new();
    let mut scenario_count = 0usize;
    for r in reports {
        if r.name != first.name {
            return Err(format!(
                "cannot merge campaigns `{}` and `{}`: shard reports must come from the same \
                 campaign",
                first.name, r.name
            ));
        }
        if r.seeds_per_cell != first.seeds_per_cell {
            return Err(format!(
                "cannot merge: seeds per cell differ ({} vs {})",
                first.seeds_per_cell, r.seeds_per_cell
            ));
        }
        scenario_count += r.scenario_count;
        for s in &r.skipped {
            if !skipped.contains(s) {
                skipped.push(s.clone());
            }
        }
        cells.extend(r.cells.iter().cloned());
    }
    cells.sort_by_key(|c| c.first_scenario_index);
    let mut seen = BTreeSet::new();
    for c in &cells {
        let id = c.cell_id();
        if !seen.insert(id.clone()) {
            return Err(format!(
                "cell `{id}` appears in more than one report: shards overlap or a report was \
                 merged twice"
            ));
        }
    }
    // Cells tile the expansion's scenario indices (each cell is a contiguous
    // seed block), so a *missing* shard leaves a hole the duplicate check
    // cannot see. Limitation: a shard set whose only gaps are at the *tail*
    // (possible when there are more shards than cells) tiles perfectly and
    // cannot be detected from report content alone; the `fdn-lab merge` CLI
    // closes that hole by checking `.shardKofM` file names for a complete
    // 0..M set.
    let mut expected = 0usize;
    for c in &cells {
        if c.first_scenario_index != expected {
            return Err(format!(
                "shard set is incomplete: scenarios {expected}..{} are missing (cell \
                 `{}` starts at {}); pass every shard of the campaign to merge",
                c.first_scenario_index,
                c.cell_id(),
                c.first_scenario_index
            ));
        }
        expected += c.runs;
    }
    if expected != scenario_count {
        return Err(format!(
            "shard set is incomplete: cells cover {expected} scenarios but the reports claim \
             {scenario_count}"
        ));
    }
    Ok(CampaignReport {
        name: first.name.clone(),
        scenario_count,
        seeds_per_cell: first.seeds_per_cell,
        skipped,
        cells,
    })
}

/// A healthy one-run figure-3 cell with all-zero metrics: the fixture the
/// report and diff tests vary field by field.
#[cfg(test)]
pub(crate) fn plain_cell() -> CellReport {
    CellReport {
        family: "figure3".to_string(),
        mode: "full".to_string(),
        encoding: "binary".to_string(),
        workload: "flood(4)".to_string(),
        noise: "noiseless".to_string(),
        scheduler: "random".to_string(),
        first_scenario_index: 0,
        nodes: 5,
        edges: 8,
        reference_cycle_len: 8,
        runs: 1,
        errors: 0,
        baseline_errors: 0,
        construction_seed: None,
        success_rate: 1.0,
        quiescence_rate: 1.0,
        pulses: MetricSummary::ZERO,
        steps: MetricSummary::ZERO,
        dropped: MetricSummary::ZERO,
        cc_init: MetricSummary::ZERO,
        online_pulses: MetricSummary::ZERO,
        max_node_pulses: MetricSummary::ZERO,
        max_edge_pulses: MetricSummary::ZERO,
        max_inflight: MetricSummary::ZERO,
        cycle_len: MetricSummary::ZERO,
        baseline_messages: MetricSummary::ZERO,
        overhead: None,
        stall_diagnostics: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::csv_field;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        // Out-of-range quantiles clamp.
        assert_eq!(percentile(&v, 200.0), 10.0);
        // 25th percentile of 4 values is the first (nearest rank).
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 25.0), 1.0);
    }

    #[test]
    #[should_panic]
    fn percentile_rejects_empty() {
        percentile(&[], 50.0);
    }

    #[test]
    fn metric_summary_basics() {
        let m = MetricSummary::from_values(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 4.0);
        assert_eq!(m.mean, 2.5);
        assert_eq!(m.p50, 2.0);
        assert_eq!(m.p95, 4.0);
        assert!(MetricSummary::from_values(&[]).is_none());
    }

    #[test]
    fn csv_fields_with_commas_are_quoted() {
        assert_eq!(csv_field("leader"), "leader");
        assert_eq!(csv_field("theta(1,2,3)"), "\"theta(1,2,3)\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
    }

    #[test]
    fn csv_fields_with_line_breaks_are_quoted() {
        // RFC 4180 requires quoting CR, not just LF.
        assert_eq!(csv_field("a\nb"), "\"a\nb\"");
        assert_eq!(csv_field("a\rb"), "\"a\rb\"");
        assert_eq!(csv_field("a\r\nb"), "\"a\r\nb\"");
    }

    #[test]
    fn metric_summary_json_roundtrip() {
        let m = MetricSummary::from_values(&[1.5, 2.5, 9.0]).unwrap();
        let j = m.to_json();
        assert_eq!(MetricSummary::from_json(&j).unwrap(), m);
    }

    #[test]
    fn metric_summary_nan_round_trips_as_null() {
        // A NaN metric renders as `null` and must parse back (as NaN), not
        // fail the whole report parse.
        let m = MetricSummary {
            mean: f64::NAN,
            ..MetricSummary::ZERO
        };
        let j = m.to_json();
        assert!(j.render().contains("null"));
        let parsed = MetricSummary::from_json(&j).unwrap();
        assert!(parsed.mean.is_nan());
        assert_eq!(parsed.min, 0.0);
        // A non-numeric, non-null field is still a structural error.
        let bad = Json::obj(vec![
            ("min", Json::Str("oops".into())),
            ("mean", Json::Num(0.0)),
            ("p50", Json::Num(0.0)),
            ("p95", Json::Num(0.0)),
            ("max", Json::Num(0.0)),
        ]);
        assert!(MetricSummary::from_json(&bad).is_err());
    }

    #[test]
    fn from_values_filters_nan_deliberately() {
        // NaN observations neither panic, poison the mean, nor distort the
        // order statistics: they are dropped before summarizing.
        let m = MetricSummary::from_values(&[f64::NAN, 4.0, 1.0, f64::NAN, 3.0, 2.0]).unwrap();
        assert_eq!(
            m,
            MetricSummary::from_values(&[4.0, 1.0, 3.0, 2.0]).unwrap()
        );
        assert_eq!(m.max, 4.0);
        assert!(!m.mean.is_nan());
        // All-NaN behaves like empty.
        assert!(MetricSummary::from_values(&[f64::NAN, f64::NAN]).is_none());
    }

    #[test]
    fn rates_render_with_enough_precision() {
        assert_eq!(fmt_rate(1.0), "100%");
        assert_eq!(fmt_rate(0.0), "0%");
        assert_eq!(fmt_rate(0.995), "99.5%");
        assert_eq!(fmt_rate(0.5), "50%");
        assert_eq!(fmt_rate(0.3333), "33.33%");
        // Near-misses never collapse into the exact endpoints.
        assert_eq!(fmt_rate(0.99999), "99.99%");
        assert_eq!(fmt_rate(0.00001), "0.01%");
    }

    fn report_of(cell: &CellReport) -> CampaignReport {
        CampaignReport {
            name: "md".to_string(),
            scenario_count: cell.runs,
            seeds_per_cell: cell.runs as u32,
            skipped: vec![],
            cells: vec![cell.clone()],
        }
    }

    #[test]
    fn markdown_escapes_pipes_in_label_cells() {
        assert_eq!(md_cell("flood(4)"), "flood(4)");
        assert_eq!(md_cell("weird|label"), "weird\\|label");
        let cell = CellReport {
            family: "fam|ily".to_string(),
            noise: "mix|ed".to_string(),
            runs: 2,
            errors: 1,
            success_rate: 0.995,
            quiescence_rate: 0.5,
            ..plain_cell()
        };
        let md = report_of(&cell).to_markdown();
        assert!(md.contains("fam\\|ily"));
        assert!(md.contains("mix\\|ed"));
        assert!(md.contains("| 99.5% | 50% |"));
        // Every row has the same number of columns as the header (escaped
        // pipes inside cell values do not count as separators).
        let bars = |line: &str| line.replace("\\|", "").matches('|').count();
        let lines: Vec<&str> = md.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.len() >= 3);
        assert!(lines.iter().all(|l| bars(l) == bars(lines[0])));
    }

    /// `doc` without its field `key`.
    fn strip(doc: &Json, key: &str) -> Json {
        match doc {
            Json::Obj(fields) => {
                Json::Obj(fields.iter().filter(|(k, _)| k != key).cloned().collect())
            }
            _ => panic!("records render as objects"),
        }
    }

    /// Parses `doc` once without each of its keys: every key but the
    /// `optional` ones is required, and the error names it.
    fn assert_keys_required<T>(
        doc: &Json,
        parse: fn(&Json) -> Result<T, String>,
        optional: &[&str],
    ) {
        let Json::Obj(fields) = doc else {
            panic!("records render as objects")
        };
        assert!(parse(doc).is_ok());
        for (key, _) in fields {
            match parse(&strip(doc, key)) {
                Ok(_) => assert!(optional.contains(&key.as_str()), "`{key}` is not required"),
                Err(e) => assert!(e.contains(&format!("field `{key}` missing")), "{key}: {e}"),
            }
        }
    }

    #[test]
    fn reports_missing_a_required_field_are_rejected_by_name() {
        // Every key the writers emit is required: a report from an older
        // binary fails to parse and the error names what is missing, instead
        // of parsing with made-up defaults. The keys come from the rendered
        // documents, so the check follows the record tables.
        let first = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_arr).unwrap()[0].clone();
        let cell = CellReport {
            stall_diagnostics: vec!["s1: stalled".to_string()],
            ..plain_cell()
        };
        let mut report = report_of(&cell);
        report.skipped = vec![SkippedCell {
            cell: "path(4)".to_string(),
            reason: "not 2-edge-connected".to_string(),
        }];
        let doc = Json::parse(&report.to_json_string()).unwrap();
        assert_keys_required(&doc, CampaignReport::from_json, &[]);
        assert_keys_required(&first(&doc, "skipped"), SkippedCell::from_json, &[]);
        let cell_doc = first(&doc, "cells");
        assert_keys_required(&cell_doc, CellReport::from_json, &["stall_diagnostics"]);
        assert_keys_required(
            cell_doc.get("pulses").unwrap(),
            MetricSummary::from_json,
            &[],
        );
        // Fields that are optional by design parse as absent.
        let bare = strip(&cell_doc, "stall_diagnostics");
        assert_eq!(CellReport::from_json(&bare).unwrap(), plain_cell());
        // Sampled runs of older binaries wrote one more optional key, a
        // retired in-flight curve summary, between `overhead` and
        // `stall_diagnostics`. Such a cell still parses, and re-renders
        // without the key.
        let Json::Obj(mut fields) = cell_doc.clone() else {
            panic!("records render as objects")
        };
        let curve = Json::obj(vec![
            ("sample_every", Json::num_u64(8)),
            ("peak", MetricSummary::ZERO.to_json()),
            ("mean", MetricSummary::ZERO.to_json()),
        ]);
        let at = fields.iter().position(|(k, _)| k == "stall_diagnostics");
        fields.insert(at.unwrap(), ("inflight_curve".to_string(), curve));
        let retired = CellReport::from_json(&Json::Obj(fields)).unwrap();
        assert_eq!(retired, cell);
        assert_eq!(retired.to_json(), cell_doc);
    }

    #[test]
    fn reports_that_repeat_a_cell_are_rejected_by_name() {
        let intact = plain_cell();
        let degraded = CellReport {
            errors: 1,
            ..plain_cell()
        };
        let mut report = report_of(&intact);
        report.cells.insert(0, degraded);
        let err = CampaignReport::from_json_str(&report.to_json_string()).unwrap_err();
        assert_eq!(
            err,
            "cell `figure3/full/binary/flood(4)/noiseless/random` appears twice, as `cells[0]` \
             and `cells[1]`"
        );
        report.cells[1].scheduler = "fifo".to_string();
        assert!(CampaignReport::from_json_str(&report.to_json_string()).is_ok());
    }

    #[test]
    fn numbers_outside_a_field_type_are_rejected_by_name() {
        // A fractional, negative or too-wide count is a parse error naming
        // the field, never a truncated or wrapped value.
        let text = report_of(&CellReport {
            runs: 2,
            ..plain_cell()
        })
        .to_json_string();
        for (from, to, key) in [
            ("\"runs\": 2,", "\"runs\": 2.9,", "runs"),
            ("\"errors\": 0,", "\"errors\": -7,", "errors"),
            (
                "\"seeds_per_cell\": 2,",
                "\"seeds_per_cell\": 4294967298,",
                "seeds_per_cell",
            ),
        ] {
            let tampered = text.replacen(from, to, 1);
            assert_ne!(tampered, text);
            let err = CampaignReport::from_json_str(&tampered).unwrap_err();
            assert!(
                err.contains(&format!("field `{key}` is not an integer in range")),
                "{err}"
            );
        }
    }

    #[test]
    fn markdown_marks_baseline_errors_and_replay_seeds() {
        let mut cell = CellReport {
            runs: 2,
            cc_init: MetricSummary::from_values(&[100.0]).unwrap(),
            ..plain_cell()
        };
        let render = |cell: &CellReport| report_of(cell).to_markdown();
        // No baseline at all: the overhead column stays the em dash.
        assert!(render(&cell).contains("| — |"));
        // A *failed* baseline is an explicit marker, never a blank cell.
        cell.baseline_errors = 2;
        let md = render(&cell);
        assert!(md.contains("baseline-error×2"), "{md}");
        assert!(!md.contains("| — |"));
        // A *partial* failure still surfaces: the survivors' ratio is
        // annotated, not rendered as if every baseline had succeeded.
        cell.overhead = MetricSummary::from_values(&[2.5]);
        cell.baseline_errors = 1;
        let md = render(&cell);
        assert!(md.contains("2.5 (baseline-error×1)"), "{md}");
        // The CCinit column shows the p50.
        assert!(md.contains("| 100 | 2.5 (baseline-error×1) |"), "{md}");
        // Replay cells list their construction seed below the table.
        cell.mode = "replay".to_string();
        cell.construction_seed = Some(9);
        let md = render(&cell);
        assert!(md.contains("construction seeds:"), "{md}");
        assert!(md.contains("s9"), "{md}");
    }
}
