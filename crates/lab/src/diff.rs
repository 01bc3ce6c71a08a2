//! Cell-by-cell comparison of two saved reports — the regression gate.
//!
//! Reports are byte-deterministic, so any difference between two saved
//! reports of the same campaign (or frontier search) is a real behavioural
//! change. This module is the one diff core both report kinds share: one
//! matching loop pairs the cells of a *base* and a *candidate* report by
//! id, and [`ReportDiff`] renders the findings as markdown or JSON. Each
//! kind supplies only its per-cell comparison, a title and a tolerance
//! description: [`diff_reports`] for campaign reports (cells matched by
//! [`CellReport::cell_id`]) and [`crate::diff_frontier_reports`] for
//! frontier reports. The `fdn-lab diff` subcommand exits non-zero iff
//! [`ReportDiff::has_regressions`], which makes `lab-out/` artifacts
//! directly comparable across commits.
//!
//! What counts as a campaign **regression**:
//!
//! * a cell present in the base but missing from the candidate (coverage
//!   loss);
//! * a success- or quiescence-rate drop beyond the rate tolerance;
//! * more erroring runs than before;
//! * a relative increase of the p50 or p95 pulse cost beyond the metric
//!   tolerance.
//!
//! New cells, rate improvements, and pulse-cost decreases are reported but
//! never fail the gate.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::json::Json;
use crate::report::{fmt_rate, md_cell, CampaignReport, CellReport};

/// Thresholds below which a change is noise, not a finding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffTolerance {
    /// Absolute tolerated drop of success/quiescence rates (in `[0, 1]`;
    /// `0.0` means any drop is a regression).
    pub rate: f64,
    /// Tolerated relative increase of p50/p95 pulses (`0.1` = +10%; `0.0`
    /// means any increase is a regression).
    pub pulses: f64,
}

impl Default for DiffTolerance {
    /// The strict gate: identical reports pass, any regression fails.
    fn default() -> Self {
        DiffTolerance {
            rate: 0.0,
            pulses: 0.0,
        }
    }
}

/// How a cell changed between the two reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellChange {
    /// Present only in the candidate report.
    Added,
    /// Present only in the base report.
    Removed,
    /// Present in both with at least one noted difference.
    Changed,
}

impl CellChange {
    /// The label the renderers print.
    pub fn label(self) -> &'static str {
        match self {
            CellChange::Added => "added",
            CellChange::Removed => "removed",
            CellChange::Changed => "changed",
        }
    }
}

/// The comparison result for one cell identity.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDelta {
    /// The cell id the reports were matched on.
    pub cell: String,
    /// The kind of change.
    pub change: CellChange,
    /// Human-readable differences that do not fail the gate.
    pub notes: Vec<String>,
    /// Differences that count as regressions (each fails the gate).
    pub regressions: Vec<String>,
}

impl CellDelta {
    /// Whether the comparison found anything at all.
    pub fn has_findings(&self) -> bool {
        !self.notes.is_empty() || !self.regressions.is_empty()
    }
}

/// The full delta between two reports of one kind.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    /// The report kind, as the markdown title names it (`Campaign`,
    /// `Frontier`).
    pub kind: &'static str,
    /// Name of the base report.
    pub base: String,
    /// Name of the candidate report.
    pub candidate: String,
    /// Cells matched in both reports.
    pub matched: usize,
    /// Matched cells with no noted difference at the configured tolerance.
    pub unchanged: usize,
    /// Per-cell changes, in base-report order (removed/changed first, then
    /// added cells in candidate order).
    pub deltas: Vec<CellDelta>,
    /// The tolerance the comparison ran under, as the markdown summary
    /// states it.
    pub tolerance: String,
    /// The same tolerance as the JSON rendering's `tolerance` object.
    pub tolerance_json: Json,
}

/// Relative change of `now` versus `base` (`0.1` = +10%); `None` when the
/// base is zero (no meaningful ratio).
fn rel_change(base: f64, now: f64) -> Option<f64> {
    (base != 0.0).then(|| (now - base) / base)
}

fn compare_cells(base: &CellReport, now: &CellReport, tol: &DiffTolerance) -> CellDelta {
    let mut notes = Vec::new();
    let mut regressions = Vec::new();

    let mut rate = |label: &str, b: f64, n: f64| {
        let delta = n - b;
        if delta < -tol.rate {
            regressions.push(format!("{label} fell {} -> {}", fmt_rate(b), fmt_rate(n)));
        } else if delta > tol.rate {
            notes.push(format!(
                "{label} improved {} -> {}",
                fmt_rate(b),
                fmt_rate(n)
            ));
        }
    };
    rate("success rate", base.success_rate, now.success_rate);
    rate("quiescence rate", base.quiescence_rate, now.quiescence_rate);

    let mut count = |label: &str, b: usize, n: usize| {
        if n > b {
            regressions.push(format!("{label} rose {b} -> {n}"));
        } else if n < b {
            notes.push(format!("{label} fell {b} -> {n}"));
        }
    };
    count("errors", base.errors, now.errors);
    count("baseline errors", base.baseline_errors, now.baseline_errors);
    count(
        "construction skews",
        base.construction_skews,
        now.construction_skews,
    );

    if base.construction_seed != now.construction_seed {
        // Not a regression by itself, but the cells no longer replay the
        // same construction — every other change in the cell follows.
        let fmt = |s: Option<u64>| s.map_or("none".to_string(), |v| v.to_string());
        notes.push(format!(
            "construction seed changed {} -> {}",
            fmt(base.construction_seed),
            fmt(now.construction_seed)
        ));
    }

    let mut pulse = |label: &str, b: f64, n: f64| {
        if b == n {
            return;
        }
        match rel_change(b, n) {
            Some(rel) if rel > tol.pulses => {
                regressions.push(format!(
                    "{label} rose {b:.0} -> {n:.0} (+{:.1}%)",
                    rel * 100.0
                ));
            }
            Some(rel) if rel < -tol.pulses => {
                notes.push(format!(
                    "{label} fell {b:.0} -> {n:.0} ({:.1}%)",
                    rel * 100.0
                ));
            }
            Some(_) => {}
            None => notes.push(format!("{label} changed {b:.0} -> {n:.0}")),
        }
    };
    pulse("pulses p50", base.pulses.p50, now.pulses.p50);
    pulse("pulses p95", base.pulses.p95, now.pulses.p95);

    if base.runs != now.runs {
        notes.push(format!("runs changed {} -> {}", base.runs, now.runs));
    }

    // The sampled in-flight curve is an observability attachment, never a
    // gated metric: whether (and how densely) a run was sampled is a flag on
    // the invocation, not a property of the simulated system, so curve
    // changes are always notes.
    match (&base.inflight_curve, &now.inflight_curve) {
        (None, None) => {}
        (Some(b), Some(n)) if b == n => {}
        (Some(b), Some(n)) => notes.push(format!(
            "inflight curve changed (peak p50 {:.0} -> {:.0}, mean p50 {:.2} -> {:.2})",
            b.peak.p50, n.peak.p50, b.mean.p50, n.mean.p50
        )),
        (None, Some(_)) => {
            notes.push("inflight curve attached (candidate was sampled)".to_string())
        }
        (Some(_), None) => notes.push("inflight curve dropped (candidate not sampled)".to_string()),
    }
    // Stall diagnostics ride along the same way: the *count* of stalls is
    // already gated through `construction skews` above, so the diagnostic
    // text itself only annotates.
    if base.stall_diagnostics != now.stall_diagnostics {
        notes.push(format!(
            "stall diagnostics changed ({} -> {} line(s))",
            base.stall_diagnostics.len(),
            now.stall_diagnostics.len()
        ));
    }

    CellDelta {
        cell: base.cell_id(),
        change: CellChange::Changed,
        notes,
        regressions,
    }
}

/// Compares `candidate` against `base` under `tolerance`.
pub fn diff_reports(
    base: &CampaignReport,
    candidate: &CampaignReport,
    tolerance: DiffTolerance,
) -> ReportDiff {
    let mut diff = ReportDiff::new(
        "Campaign",
        &base.name,
        &candidate.name,
        format!(
            "rate {}, pulses {:.1}%",
            fmt_rate(tolerance.rate),
            tolerance.pulses * 100.0
        ),
        Json::obj(vec![
            ("rate", Json::Num(tolerance.rate)),
            ("pulses", Json::Num(tolerance.pulses)),
        ]),
    );
    diff.match_cells(
        &base.cells,
        &candidate.cells,
        CellReport::cell_id,
        |b, n| compare_cells(b, n, &tolerance),
    );
    diff
}

impl ReportDiff {
    /// An empty diff of two named reports of one kind.
    pub(crate) fn new(
        kind: &'static str,
        base: &str,
        candidate: &str,
        tolerance: String,
        tolerance_json: Json,
    ) -> ReportDiff {
        ReportDiff {
            kind,
            base: base.to_string(),
            candidate: candidate.to_string(),
            matched: 0,
            unchanged: 0,
            deltas: Vec::new(),
            tolerance,
            tolerance_json,
        }
    }

    /// The matching loop: every base cell is compared with the candidate
    /// cell of the same `id` (a missing one is a coverage-loss regression),
    /// then candidate-only cells are noted as added. Deltas follow base
    /// order, then candidate order; matched cells without findings count as
    /// unchanged.
    pub(crate) fn match_cells<C>(
        &mut self,
        base: &[C],
        candidate: &[C],
        id: impl Fn(&C) -> String,
        compare: impl Fn(&C, &C) -> CellDelta,
    ) {
        // Index each side once: reports can hold thousands of cells, and the
        // formatted id is too expensive to rebuild per probe.
        let candidate_by_id: BTreeMap<String, &C> = candidate.iter().map(|c| (id(c), c)).collect();
        let base_ids: BTreeSet<String> = base.iter().map(&id).collect();
        for b in base {
            let key = id(b);
            match candidate_by_id.get(&key) {
                Some(now) => {
                    self.matched += 1;
                    let delta = compare(b, now);
                    if delta.has_findings() {
                        self.deltas.push(delta);
                    } else {
                        self.unchanged += 1;
                    }
                }
                None => self.deltas.push(CellDelta {
                    cell: key,
                    change: CellChange::Removed,
                    notes: Vec::new(),
                    regressions: vec![format!(
                        "cell removed from the {} (coverage loss)",
                        self.kind.to_lowercase()
                    )],
                }),
            }
        }
        for c in candidate {
            let key = id(c);
            if !base_ids.contains(&key) {
                self.deltas.push(CellDelta {
                    cell: key,
                    change: CellChange::Added,
                    notes: vec!["new cell (not present in the base report)".to_string()],
                    regressions: Vec::new(),
                });
            }
        }
    }

    /// Number of individual regression findings across all cells.
    pub fn regression_count(&self) -> usize {
        self.deltas.iter().map(|d| d.regressions.len()).sum()
    }

    /// Whether the gate fails.
    pub fn has_regressions(&self) -> bool {
        self.regression_count() > 0
    }

    /// Renders the delta as a markdown document.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} diff: `{}` -> `{}`",
            self.kind, self.base, self.candidate
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} matched cell(s), {} unchanged, {} changed, {} regression finding(s) \
             (tolerance: {}).",
            self.matched,
            self.unchanged,
            self.deltas.len(),
            self.regression_count(),
            self.tolerance,
        );
        if self.deltas.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "No differences beyond tolerance.");
            return out;
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "| cell | change | finding | gate |");
        let _ = writeln!(out, "|---|---|---|---|");
        for d in &self.deltas {
            // Backticks do not protect `|` inside a markdown table cell, so
            // the cell id needs the same escaping as the finding text.
            let cell = md_cell(&d.cell);
            let change = d.change.label();
            for r in &d.regressions {
                let _ = writeln!(
                    out,
                    "| `{cell}` | {change} | {} | **REGRESSION** |",
                    md_cell(r)
                );
            }
            for n in &d.notes {
                let _ = writeln!(out, "| `{cell}` | {change} | {} | ok |", md_cell(n));
            }
        }
        out
    }

    /// Renders the delta as a JSON document.
    pub fn to_json_string(&self) -> String {
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        let delta_json = |d: &CellDelta| {
            Json::obj(vec![
                ("cell", Json::Str(d.cell.clone())),
                ("change", Json::Str(d.change.label().to_string())),
                ("regressions", strings(&d.regressions)),
                ("notes", strings(&d.notes)),
            ])
        };
        Json::obj(vec![
            ("base", Json::Str(self.base.clone())),
            ("candidate", Json::Str(self.candidate.clone())),
            ("matched", Json::Num(self.matched as f64)),
            ("unchanged", Json::Num(self.unchanged as f64)),
            (
                "regression_count",
                Json::Num(self.regression_count() as f64),
            ),
            ("tolerance", self.tolerance_json.clone()),
            (
                "deltas",
                Json::Arr(self.deltas.iter().map(delta_json).collect()),
            ),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MetricSummary;

    fn cell(noise: &str, success: f64, p50: f64) -> CellReport {
        CellReport {
            noise: noise.to_string(),
            runs: 4,
            success_rate: success,
            pulses: MetricSummary {
                min: p50,
                mean: p50,
                p50,
                p95: p50,
                max: p50,
            },
            ..crate::report::plain_cell()
        }
    }

    fn report(name: &str, cells: Vec<CellReport>) -> CampaignReport {
        CampaignReport {
            name: name.to_string(),
            scenario_count: cells.len() * 4,
            seeds_per_cell: 4,
            skipped: vec![],
            cells,
        }
    }

    #[test]
    fn identical_reports_diff_clean() {
        let a = report("a", vec![cell("noiseless", 1.0, 100.0)]);
        let d = diff_reports(&a, &a, DiffTolerance::default());
        assert!(!d.has_regressions());
        assert_eq!(d.matched, 1);
        assert_eq!(d.unchanged, 1);
        assert!(d.deltas.is_empty());
        assert!(d.to_markdown().contains("No differences beyond tolerance"));
    }

    #[test]
    fn success_rate_drop_is_a_regression_and_rise_is_not() {
        let base = report("base", vec![cell("noiseless", 1.0, 100.0)]);
        let worse = report("new", vec![cell("noiseless", 0.75, 100.0)]);
        let d = diff_reports(&base, &worse, DiffTolerance::default());
        assert!(d.has_regressions());
        assert_eq!(d.regression_count(), 1);
        assert!(d.deltas[0].regressions[0].contains("success rate fell 100% -> 75%"));
        // The reverse direction is an improvement, not a regression.
        let d = diff_reports(&worse, &base, DiffTolerance::default());
        assert!(!d.has_regressions());
        assert_eq!(d.deltas[0].notes[0], "success rate improved 75% -> 100%");
    }

    #[test]
    fn rate_tolerance_absorbs_small_drops() {
        let base = report("base", vec![cell("noiseless", 1.0, 100.0)]);
        let slightly = report("new", vec![cell("noiseless", 0.95, 100.0)]);
        let tol = DiffTolerance {
            rate: 0.10,
            pulses: 0.0,
        };
        assert!(!diff_reports(&base, &slightly, tol).has_regressions());
        assert!(diff_reports(&base, &slightly, DiffTolerance::default()).has_regressions());
    }

    #[test]
    fn pulse_increase_beyond_tolerance_is_a_regression() {
        let base = report("base", vec![cell("noiseless", 1.0, 100.0)]);
        let slower = report("new", vec![cell("noiseless", 1.0, 130.0)]);
        let tol = |pulses| DiffTolerance { rate: 0.0, pulses };
        let d = diff_reports(&base, &slower, tol(0.1));
        assert!(d.has_regressions());
        // p50 and p95 both moved by +30%.
        assert_eq!(d.regression_count(), 2);
        assert!(d.deltas[0].regressions[0].contains("+30.0%"));
        // A 50% tolerance absorbs it; a speedup is never a regression.
        assert!(!diff_reports(&base, &slower, tol(0.5)).has_regressions());
        assert!(!diff_reports(&slower, &base, tol(0.1)).has_regressions());
    }

    #[test]
    fn removed_cells_fail_the_gate_and_added_cells_do_not() {
        let both = report(
            "base",
            vec![
                cell("noiseless", 1.0, 100.0),
                cell("omission(200)", 0.5, 80.0),
            ],
        );
        let only_one = report("new", vec![cell("noiseless", 1.0, 100.0)]);
        let d = diff_reports(&both, &only_one, DiffTolerance::default());
        assert!(d.has_regressions());
        assert_eq!(d.deltas.len(), 1);
        assert_eq!(d.deltas[0].change, CellChange::Removed);
        assert!(d.deltas[0].cell.contains("omission(200)"));
        // Adding a cell is a note, not a failure.
        let d = diff_reports(&only_one, &both, DiffTolerance::default());
        assert!(!d.has_regressions());
        assert_eq!(d.deltas[0].change, CellChange::Added);
    }

    #[test]
    fn error_increase_is_a_regression() {
        let base = report("base", vec![cell("noiseless", 1.0, 100.0)]);
        let mut bad_cell = cell("noiseless", 1.0, 100.0);
        bad_cell.errors = 2;
        let bad = report("new", vec![bad_cell]);
        let d = diff_reports(&base, &bad, DiffTolerance::default());
        assert!(d.has_regressions());
        assert!(d.deltas[0].regressions[0].contains("errors rose 0 -> 2"));
    }

    #[test]
    fn renderers_are_deterministic_and_cover_both_formats() {
        let base = report(
            "base",
            vec![cell("noiseless", 1.0, 100.0), cell("burst(8,2)", 0.9, 90.0)],
        );
        let new = report("new", vec![cell("noiseless", 0.5, 150.0)]);
        let d = diff_reports(&base, &new, DiffTolerance::default());
        assert_eq!(d.to_markdown(), d.to_markdown());
        assert_eq!(d.to_json_string(), d.to_json_string());
        let md = d.to_markdown();
        assert!(md.contains("**REGRESSION**"));
        assert!(md.contains("removed"));
        let j = Json::parse(&d.to_json_string()).unwrap();
        assert_eq!(
            j.get("regression_count").and_then(Json::as_u64),
            Some(d.regression_count() as u64)
        );
        assert_eq!(j.get("base").and_then(Json::as_str), Some("base"));
    }

    #[test]
    fn markdown_escapes_pipes_in_cell_keys() {
        let base = report("base", vec![cell("weird|noise", 1.0, 100.0)]);
        let now = report("new", vec![cell("weird|noise", 0.5, 100.0)]);
        let d = diff_reports(&base, &now, DiffTolerance::default());
        assert!(d.has_regressions());
        let md = d.to_markdown();
        assert!(md.contains("weird\\|noise"));
        let bars = |line: &str| line.replace("\\|", "").matches('|').count();
        let lines: Vec<&str> = md.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.iter().all(|l| bars(l) == bars(lines[0])));
    }

    #[test]
    fn zero_base_pulses_is_a_note_not_a_division() {
        let mut z = cell("noiseless", 1.0, 0.0);
        z.pulses = MetricSummary::ZERO;
        let base = report("base", vec![z]);
        let now = report("new", vec![cell("noiseless", 1.0, 10.0)]);
        let d = diff_reports(&base, &now, DiffTolerance::default());
        // 0 -> 10 has no meaningful relative change; it is reported as a note.
        assert!(!d.has_regressions());
        assert!(d.deltas[0]
            .notes
            .iter()
            .any(|n| n.contains("changed 0 -> 10")));
    }

    #[test]
    fn baseline_error_and_skew_increases_are_regressions() {
        let base = report("base", vec![cell("noiseless", 1.0, 100.0)]);
        let mut flagged = cell("noiseless", 1.0, 100.0);
        flagged.baseline_errors = 1;
        flagged.construction_skews = 2;
        let bad = report("new", vec![flagged.clone()]);
        let d = diff_reports(&base, &bad, DiffTolerance::default());
        assert!(d.has_regressions());
        assert_eq!(d.regression_count(), 2);
        assert!(d.deltas[0]
            .regressions
            .iter()
            .any(|r| r.contains("baseline errors rose 0 -> 1")));
        assert!(d.deltas[0]
            .regressions
            .iter()
            .any(|r| r.contains("construction skews rose 0 -> 2")));
        // The reverse direction is an improvement, not a regression.
        let d = diff_reports(&bad, &base, DiffTolerance::default());
        assert!(!d.has_regressions());
        assert_eq!(d.deltas[0].notes.len(), 2);
    }

    #[test]
    fn inflight_curve_and_stall_changes_are_notes_not_regressions() {
        use crate::report::CurveSummary;
        let curve = |peak: f64| CurveSummary {
            sample_every: 64,
            peak: MetricSummary {
                min: peak,
                mean: peak,
                p50: peak,
                p95: peak,
                max: peak,
            },
            mean: MetricSummary::ZERO,
        };
        let mut a = cell("noiseless", 1.0, 100.0);
        let mut b = cell("noiseless", 1.0, 100.0);
        // Attaching a curve where there was none: note only.
        b.inflight_curve = Some(curve(12.0));
        let d = diff_reports(
            &report("base", vec![a.clone()]),
            &report("new", vec![b.clone()]),
            DiffTolerance::default(),
        );
        assert!(!d.has_regressions());
        assert!(d.deltas[0]
            .notes
            .iter()
            .any(|n| n.contains("curve attached")));
        // A changed curve (even a worse peak): still only a note.
        a.inflight_curve = Some(curve(5.0));
        let d = diff_reports(
            &report("base", vec![a.clone()]),
            &report("new", vec![b.clone()]),
            DiffTolerance::default(),
        );
        assert!(!d.has_regressions());
        assert!(d.deltas[0]
            .notes
            .iter()
            .any(|n| n.contains("peak p50 5 -> 12")));
        // Identical curves: unchanged cell, no delta at all.
        b.inflight_curve = Some(curve(5.0));
        let d = diff_reports(
            &report("base", vec![a.clone()]),
            &report("new", vec![b.clone()]),
            DiffTolerance::default(),
        );
        assert_eq!(d.unchanged, 1);
        // Stall diagnostics annotate without failing the gate.
        b.stall_diagnostics = vec!["s3: stalled mid-construction".to_string()];
        let d = diff_reports(
            &report("base", vec![a]),
            &report("new", vec![b]),
            DiffTolerance::default(),
        );
        assert!(!d.has_regressions());
        assert!(d.deltas[0]
            .notes
            .iter()
            .any(|n| n.contains("stall diagnostics changed (0 -> 1")));
    }

    #[test]
    fn construction_seed_change_is_a_note_not_a_regression() {
        let mut a = cell("noiseless", 1.0, 100.0);
        a.construction_seed = Some(1);
        let mut b = cell("noiseless", 1.0, 100.0);
        b.construction_seed = Some(5);
        let d = diff_reports(
            &report("base", vec![a.clone()]),
            &report("new", vec![b]),
            DiffTolerance::default(),
        );
        assert!(!d.has_regressions());
        assert!(d.deltas[0]
            .notes
            .iter()
            .any(|n| n.contains("construction seed changed 1 -> 5")));
        // Dropping the seed entirely (replay -> other mode) is also noted.
        let plain = cell("noiseless", 1.0, 100.0);
        let d = diff_reports(
            &report("base", vec![a]),
            &report("new", vec![plain]),
            DiffTolerance::default(),
        );
        assert!(d.deltas[0]
            .notes
            .iter()
            .any(|n| n.contains("construction seed changed 1 -> none")));
    }
}
