//! Cell-by-cell comparison of two saved reports — the regression gate.
//!
//! Reports are byte-deterministic, so any difference between two saved
//! reports of the same campaign (or frontier search) is a real behavioural
//! change. Every field of a compared record names its diff rule in the
//! record's `record!` table, next to the field's name, and the table
//! generates the walk that runs those rules. [`diff_reports`] (campaign
//! reports) and [`crate::diff_frontier_reports`] (frontier reports) walk
//! the two headers, listing any finding under `(report parameters)`, then
//! pair the cells of the *base* and the *candidate* by id and walk each
//! pair. [`ReportDiff`] renders the findings as markdown or JSON; each
//! finding names its field by JSON key. The `fdn-lab diff` subcommand exits
//! non-zero iff [`ReportDiff::has_regressions`].
//!
//! The rules are the functions `id`, `title`, `cells`, `exact`, `note`,
//! `rise`, `fall`, `rate`, `cost` and `cost_if_both` below, each documented
//! where it is defined; the frontier's `bracket` rule is in `frontier.rs`.
//! A changed id is a removed cell (a regression: coverage loss) plus an
//! added one.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::json::{Field, Json};
use crate::report::{fmt_rate, md_cell, CampaignReport, MetricSummary};

/// Thresholds below which a change is noise, not a finding. The default is
/// the strict gate: identical reports pass, any regression fails.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DiffTolerance {
    /// Tolerated absolute drop of a rate field, in `[0, 1]`
    /// (`--tol-rate`).
    pub rate: f64,
    /// Tolerated relative rise of a cost field's p50 or p95: `0.1` = +10%
    /// (`--tol-pulses`).
    pub pulses: f64,
    /// Tolerated fall of a frontier bracket bound, in per mille
    /// (`--tol-mille`).
    pub mille: u16,
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
    /// Per-cell changes: header findings first, then removed/changed cells
    /// in base-report order, then added cells in candidate order.
    pub deltas: Vec<CellDelta>,
    /// The tolerance the comparison ran under, as the markdown summary
    /// states it.
    pub tolerance: String,
    /// The same tolerance as the JSON rendering's `tolerance` object.
    pub tolerance_json: Json,
}

/// A report record the gate compares field by field. Its `record!` table
/// implements it.
pub(crate) trait Diff {
    /// The id cells are matched on: the fields whose rule is `id`, in table
    /// order, joined by `/` (empty for a report header).
    fn id(&self) -> String;

    /// Runs every field's rule on `base` and `now`, in table order.
    fn diff(base: &Self, now: &Self, gate: &mut Gate);
}

/// What a rule reads and writes: the tolerance, and the findings of the
/// record pair being compared.
pub(crate) struct Gate {
    /// The thresholds the rules apply.
    pub(crate) tol: DiffTolerance,
    notes: Vec<String>,
    regressions: Vec<String>,
}

impl Gate {
    /// Records `finding`: a regression if `regression`, else a note.
    pub(crate) fn flag(&mut self, regression: bool, finding: String) {
        if regression {
            self.regressions.push(finding);
        } else {
            self.notes.push(finding);
        }
    }
}

/// Walks one record pair under `tol`; the findings become the delta of
/// `cell`.
fn compare<R: Diff>(cell: String, base: &R, now: &R, tol: DiffTolerance) -> CellDelta {
    let mut gate = Gate {
        tol,
        notes: Vec::new(),
        regressions: Vec::new(),
    };
    R::diff(base, now, &mut gate);
    CellDelta {
        cell,
        change: CellChange::Changed,
        notes: gate.notes,
        regressions: gate.regressions,
    }
}

/// Rule `id`: cells are matched on these fields, so a pair agrees on them.
pub(crate) fn id<T, R>(_: &mut Gate, _: &str, _: &T, _: &T, _: (&R, &R)) {}

/// Rule `title`: the report's name heads the diff and is not a finding.
pub(crate) fn title<T, R>(_: &mut Gate, _: &str, _: &T, _: &T, _: (&R, &R)) {}

/// Rule `cells`: the cells are matched by id and walked by their own table
/// ([`ReportDiff::match_cells`]).
pub(crate) fn cells<T, R>(_: &mut Gate, _: &str, _: &T, _: &T, _: (&R, &R)) {}

/// Rule `exact`: any change is a regression (the cell measured another
/// graph).
pub(crate) fn exact<T: Field + PartialEq, R>(g: &mut Gate, key: &str, b: &T, n: &T, _: (&R, &R)) {
    changed(g, true, "changed", key, (b, n));
}

/// Rule `note`: any change is a note.
pub(crate) fn note<T: Field + PartialEq, R>(g: &mut Gate, key: &str, b: &T, n: &T, _: (&R, &R)) {
    changed(g, false, "changed", key, (b, n));
}

/// Rule `rise`: a rise is a regression, a fall a note.
pub(crate) fn rise<T: Field + PartialOrd, R>(g: &mut Gate, key: &str, b: &T, n: &T, _: (&R, &R)) {
    changed(g, n > b, if n > b { "rose" } else { "fell" }, key, (b, n));
}

/// Rule `fall`: a fall is a regression (weaker evidence), a rise a note.
pub(crate) fn fall<T: Field + PartialOrd, R>(g: &mut Gate, key: &str, b: &T, n: &T, _: (&R, &R)) {
    changed(g, n < b, if n > b { "rose" } else { "fell" }, key, (b, n));
}

/// Flags `key` as `verb` from `b` to `n`, unless the two are equal.
fn changed<T: Field + PartialEq>(
    g: &mut Gate,
    regression: bool,
    verb: &str,
    key: &str,
    (b, n): (&T, &T),
) {
    if b != n {
        let (b, n) = (quote(b), quote(n));
        g.flag(regression, format!("{key} {verb} {b} -> {n}"));
    }
}

/// Rule `rate`: a drop beyond the rate tolerance is a regression, a rise
/// beyond it a note.
pub(crate) fn rate<R>(g: &mut Gate, key: &str, b: &f64, n: &f64, _: (&R, &R)) {
    let delta = n - b;
    if delta.abs() > g.tol.rate {
        let verb = if delta < 0.0 { "fell" } else { "improved" };
        let (b, n) = (fmt_rate(*b), fmt_rate(*n));
        g.flag(delta < 0.0, format!("{key} {verb} {b} -> {n}"));
    }
}

/// Rule `cost`: compares the p50 and p95 of a summary. A relative rise
/// beyond the cost tolerance, or a statistic that becomes `null` (read back
/// as NaN), is a regression; a fall beyond the tolerance, or a move off a
/// zero or `null` base, a note.
pub(crate) fn cost<R>(g: &mut Gate, key: &str, b: &MetricSummary, n: &MetricSummary, _: (&R, &R)) {
    for (stat, b, n) in [("p50", b.p50, n.p50), ("p95", b.p95, n.p95)] {
        let moved = |verb: &str| format!("{key} {stat} {verb} {} -> {}", num(b), num(n));
        match rel_change(b, n) {
            _ if b == n || (b.is_nan() && n.is_nan()) => {}
            _ if n.is_nan() => g.flag(true, format!("{key} {stat} became null (was {})", num(b))),
            // A zero or null base has no meaningful ratio.
            None => g.flag(false, moved("changed")),
            Some(rel) if rel.abs() > g.tol.pulses => {
                let verb = if rel > 0.0 { "rose" } else { "fell" };
                g.flag(rel > 0.0, format!("{} ({:+.1}%)", moved(verb), rel * 100.0));
            }
            Some(_) => {}
        }
    }
}

/// Rule `cost_if_both`: `cost`, when both cells have a summary.
pub(crate) fn cost_if_both<R>(
    g: &mut Gate,
    key: &str,
    b: &Option<MetricSummary>,
    n: &Option<MetricSummary>,
    records: (&R, &R),
) {
    if let (Some(b), Some(n)) = (b, n) {
        cost(g, key, b, n, records);
    }
}

/// Relative change of `now` versus `base` (`0.1` = +10%); `None` when the
/// base is zero or NaN.
fn rel_change(base: f64, now: f64) -> Option<f64> {
    (base != 0.0 && !base.is_nan()).then(|| (now - base) / base)
}

/// A statistic as a finding prints it: whole numbers without decimals,
/// fractions to 0.01, NaN as `null`.
fn num(x: f64) -> String {
    if x.is_nan() {
        "null".to_string()
    } else if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// A value as a finding quotes it: its compact JSON (a string without its
/// quotes), or the length of an array too long to read in one line.
fn quote<T: Field>(value: &T) -> String {
    let json = value.to_json();
    let text = json.render_compact();
    match json {
        Json::Str(s) => s,
        Json::Arr(items) if text.len() > 60 => format!("{} entries", items.len()),
        _ => text,
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
    diff.compare_headers(base, candidate, tolerance);
    diff.match_cells(&base.cells, &candidate.cells, tolerance);
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

    /// Walks the two report headers; any finding is listed under
    /// `(report parameters)`. Call it before [`ReportDiff::match_cells`],
    /// so that the header findings come first.
    pub(crate) fn compare_headers<R: Diff>(&mut self, base: &R, candidate: &R, tol: DiffTolerance) {
        let delta = compare("(report parameters)".to_string(), base, candidate, tol);
        if delta.has_findings() {
            self.deltas.push(delta);
        }
    }

    /// The matching loop: every base cell is walked with the candidate cell
    /// of the same id (a missing one is a coverage-loss regression), then
    /// candidate-only cells are noted as added. Deltas follow base order,
    /// then candidate order; matched cells without findings count as
    /// unchanged.
    pub(crate) fn match_cells<C: Diff>(&mut self, base: &[C], candidate: &[C], tol: DiffTolerance) {
        // Index each side once: reports can hold thousands of cells, and the
        // formatted id is too expensive to rebuild per probe.
        let candidate_by_id: BTreeMap<String, &C> = candidate.iter().map(|c| (c.id(), c)).collect();
        let base_ids: BTreeSet<String> = base.iter().map(C::id).collect();
        for b in base {
            let key = b.id();
            match candidate_by_id.get(&key) {
                Some(now) => {
                    self.matched += 1;
                    let delta = compare(key, b, *now, tol);
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
            let key = c.id();
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

/// Checks that the gate reads every key of a rendered one-cell report
/// `doc`: each key of the header and of the cell in turn gets a new value
/// (`edits` names one for keys the parser restricts to a few values), the
/// report is parsed back and diffed against the original. The `ids` keys
/// must give a removed and an added cell, the `title` key no finding, and
/// `cells` emptied a removed cell; every other key must give a finding
/// that starts with its name, unless the parser rejects the edit and the
/// key is `pinned`.
#[cfg(test)]
pub(crate) fn assert_every_key_gated<R>(
    doc: &Json,
    parse: fn(&Json) -> Result<R, String>,
    diff: fn(&R, &R) -> ReportDiff,
    (ids, title, pinned): (&[&str], &str, &[&str]),
    edits: &[(&str, Json)],
) {
    /// `j` with every number raised by one, every string extended and every
    /// boolean negated.
    fn perturb(j: &Json) -> Json {
        match j {
            Json::Num(x) => Json::Num(x + 1.0),
            Json::Str(s) => Json::Str(format!("{s}x")),
            Json::Bool(b) => Json::Bool(!b),
            Json::Arr(items) => Json::Arr(items.iter().map(perturb).collect()),
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), perturb(v)))
                    .collect(),
            ),
            Json::Null => panic!("the fixture sets every optional field"),
        }
    }
    /// The object `obj` with `value` at `key`.
    fn set(obj: &Json, key: &str, value: &Json) -> Json {
        let Json::Obj(fields) = obj else {
            panic!("records render as objects")
        };
        let field = |(k, v): &(String, Json)| (k.clone(), if k == key { value } else { v }.clone());
        Json::Obj(fields.iter().map(field).collect())
    }
    let base = parse(doc).unwrap();
    let cell = &doc.get("cells").and_then(Json::as_arr).unwrap()[0];
    for (record, in_cell) in [(doc, false), (cell, true)] {
        let Json::Obj(fields) = record else {
            panic!("records render as objects")
        };
        for (key, value) in fields {
            let value = match edits.iter().find(|(k, _)| k == key) {
                Some((_, edit)) => edit.clone(),
                None if key == "cells" => Json::Arr(vec![]),
                None => perturb(value),
            };
            let edited = match in_cell {
                false => set(doc, key, &value),
                true => set(doc, "cells", &Json::Arr(vec![set(cell, key, &value)])),
            };
            let Ok(candidate) = parse(&edited) else {
                assert!(
                    pinned.contains(&key.as_str()),
                    "`{key}` edit does not parse"
                );
                continue;
            };
            let d = diff(&base, &candidate);
            let changes: Vec<CellChange> = d.deltas.iter().map(|d| d.change).collect();
            let findings: Vec<&String> = d
                .deltas
                .iter()
                .flat_map(|d| d.regressions.iter().chain(&d.notes))
                .collect();
            if ids.contains(&key.as_str()) {
                assert_eq!(changes, [CellChange::Removed, CellChange::Added], "{key}");
            } else if key == "cells" {
                assert_eq!(changes, [CellChange::Removed], "{key}");
            } else if key == title {
                assert!(d.deltas.is_empty() && d.candidate.ends_with('x'), "{key}");
            } else {
                let named = findings.iter().any(|f| f.starts_with(&format!("{key} ")));
                assert!(named, "`{key}` is not gated: {findings:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CellReport;

    /// A summary whose five statistics all equal `x`.
    fn flat(x: f64) -> MetricSummary {
        MetricSummary::from_values(&[x]).unwrap()
    }

    fn cell(noise: &str, success: f64, p50: f64) -> CellReport {
        CellReport {
            noise: noise.to_string(),
            runs: 4,
            success_rate: success,
            pulses: flat(p50),
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

    /// The strict gate with only the cost tolerance widened.
    fn pulses(pulses: f64) -> DiffTolerance {
        DiffTolerance {
            pulses,
            ..DiffTolerance::default()
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
        assert!(d.deltas[0].regressions[0].contains("success_rate fell 100% -> 75%"));
        // The reverse direction is an improvement, not a regression.
        let d = diff_reports(&worse, &base, DiffTolerance::default());
        assert!(!d.has_regressions());
        assert_eq!(d.deltas[0].notes[0], "success_rate improved 75% -> 100%");
    }

    #[test]
    fn rate_tolerance_absorbs_small_drops() {
        let base = report("base", vec![cell("noiseless", 1.0, 100.0)]);
        let slightly = report("new", vec![cell("noiseless", 0.95, 100.0)]);
        let tol = DiffTolerance {
            rate: 0.10,
            ..DiffTolerance::default()
        };
        assert!(!diff_reports(&base, &slightly, tol).has_regressions());
        assert!(diff_reports(&base, &slightly, DiffTolerance::default()).has_regressions());
    }

    #[test]
    fn pulse_increase_beyond_tolerance_is_a_regression() {
        let base = report("base", vec![cell("noiseless", 1.0, 100.0)]);
        let slower = report("new", vec![cell("noiseless", 1.0, 130.0)]);
        let d = diff_reports(&base, &slower, pulses(0.1));
        assert!(d.has_regressions());
        // p50 and p95 both moved by +30%.
        assert_eq!(d.regression_count(), 2);
        assert!(d.deltas[0].regressions[0].contains("+30.0%"));
        // A 50% tolerance absorbs it; a speedup is never a regression.
        assert!(!diff_reports(&base, &slower, pulses(0.5)).has_regressions());
        assert!(!diff_reports(&slower, &base, pulses(0.1)).has_regressions());
    }

    #[test]
    fn the_paper_cost_columns_are_gated_like_pulses() {
        let mut b = cell("noiseless", 1.0, 100.0);
        b.cc_init = flat(400.0);
        b.online_pulses = flat(60.0);
        b.overhead = Some(flat(1.5));
        // CCinit doubled, online pulses halved, overhead tripled.
        let mut n = b.clone();
        n.cc_init = flat(800.0);
        n.online_pulses = flat(30.0);
        n.overhead = Some(flat(4.5));
        let (base, now) = (report("base", vec![b.clone()]), report("new", vec![n]));
        let d = diff_reports(&base, &now, DiffTolerance::default());
        assert_eq!(
            d.deltas[0].regressions,
            [
                "cc_init p50 rose 400 -> 800 (+100.0%)",
                "cc_init p95 rose 400 -> 800 (+100.0%)",
                "overhead p50 rose 1.50 -> 4.50 (+200.0%)",
                "overhead p95 rose 1.50 -> 4.50 (+200.0%)",
            ]
        );
        assert_eq!(
            d.deltas[0].notes,
            [
                "online_pulses p50 fell 60 -> 30 (-50.0%)",
                "online_pulses p95 fell 60 -> 30 (-50.0%)",
            ]
        );
        assert!(!diff_reports(&base, &now, pulses(2.0)).has_regressions());
        // A cost from a zero base is a note; overhead is compared only when
        // both cells have one.
        let mut z = b.clone();
        z.cc_init = MetricSummary::ZERO;
        z.overhead = None;
        let d = diff_reports(
            &report("base", vec![z]),
            &report("new", vec![b]),
            DiffTolerance::default(),
        );
        assert!(!d.has_regressions());
        assert_eq!(
            d.deltas[0].notes,
            [
                "cc_init p50 changed 0 -> 400",
                "cc_init p95 changed 0 -> 400"
            ]
        );
    }

    #[test]
    fn the_five_field_edit_fails_the_gate_on_each_field() {
        // The edit that once diffed "60 unchanged": CCinit doubled, online
        // pulses halved, |C| doubled, overhead tripled, busiest edge doubled.
        let b = CellReport {
            cc_init: flat(400.0),
            online_pulses: flat(60.0),
            cycle_len: flat(8.0),
            overhead: Some(flat(1.5)),
            max_edge_pulses: flat(30.0),
            ..cell("noiseless", 1.0, 100.0)
        };
        let n = CellReport {
            cc_init: flat(800.0),
            online_pulses: flat(30.0),
            cycle_len: flat(16.0),
            overhead: Some(flat(4.5)),
            max_edge_pulses: flat(60.0),
            ..b.clone()
        };
        let d = diff_reports(
            &report("base", vec![b]),
            &report("new", vec![n]),
            DiffTolerance::default(),
        );
        let names = |findings: &[String], key: &str| {
            findings.iter().any(|f| f.starts_with(&format!("{key} ")))
        };
        let delta = &d.deltas[0];
        for key in ["cc_init", "cycle_len", "overhead", "max_edge_pulses"] {
            assert!(names(&delta.regressions, key), "{key}: {delta:?}");
            assert!(!names(&delta.notes, key), "{key}: {delta:?}");
        }
        assert!(names(&delta.notes, "online_pulses"), "{delta:?}");
        assert!(!names(&delta.regressions, "online_pulses"), "{delta:?}");
    }

    #[test]
    fn a_cost_statistic_that_becomes_null_is_a_regression() {
        let base = report("base", vec![cell("noiseless", 1.0, 100.0)]);
        let mut nulled = base.clone();
        nulled.cells[0].pulses.p50 = f64::NAN;
        // Through the saved bytes, as `fdn-lab diff` reads them: NaN is
        // written as `null` and read back as NaN.
        let text = nulled.to_json_string();
        assert!(text.contains("\"p50\": null"));
        let nulled = CampaignReport::from_json_str(&text).unwrap();
        let d = diff_reports(&base, &nulled, DiffTolerance::default());
        assert_eq!(
            d.deltas[0].regressions,
            ["pulses p50 became null (was 100)"]
        );
        // Leaving null behind is a note; null on both sides is unchanged.
        let d = diff_reports(&nulled, &base, DiffTolerance::default());
        assert!(!d.has_regressions());
        assert_eq!(d.deltas[0].notes, ["pulses p50 changed null -> 100"]);
        let d = diff_reports(&nulled, &nulled, DiffTolerance::default());
        assert_eq!(d.unchanged, 1);
    }

    #[test]
    fn every_campaign_report_key_is_gated() {
        use crate::report::CurveSummary;
        use crate::spec::SkippedCell;
        let cell = CellReport {
            mode: "replay".to_string(),
            construction_seed: Some(1),
            overhead: Some(flat(2.0)),
            inflight_curve: Some(CurveSummary {
                sample_every: 64,
                peak: flat(3.0),
                mean: flat(1.5),
            }),
            stall_diagnostics: vec!["s1: stalled".to_string()],
            ..cell("noiseless", 1.0, 100.0)
        };
        let mut full = report("base", vec![cell]);
        full.skipped = vec![SkippedCell {
            cell: "path(4)".to_string(),
            reason: "not 2-edge-connected".to_string(),
        }];
        let doc = Json::parse(&full.to_json_string()).unwrap();
        let ids = [
            "family",
            "mode",
            "encoding",
            "workload",
            "noise",
            "scheduler",
        ];
        assert_every_key_gated(
            &doc,
            CampaignReport::from_json,
            |b, n| diff_reports(b, n, DiffTolerance::default()),
            (&ids, "campaign", &[]),
            &[],
        );
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
        // The header notes the scenario count; the cell is a coverage loss.
        assert_eq!(d.deltas.len(), 2);
        assert_eq!(d.deltas[0].notes, ["scenarios changed 8 -> 4"]);
        assert_eq!(d.deltas[1].change, CellChange::Removed);
        assert!(d.deltas[1].cell.contains("omission(200)"));
        // Adding a cell is a note, not a failure.
        let d = diff_reports(&only_one, &both, DiffTolerance::default());
        assert!(!d.has_regressions());
        assert_eq!(d.deltas[1].change, CellChange::Added);
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
            .any(|r| r.contains("baseline_errors rose 0 -> 1")));
        assert!(d.deltas[0]
            .regressions
            .iter()
            .any(|r| r.contains("construction_skews rose 0 -> 2")));
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
            peak: flat(peak),
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
            .any(|n| n.starts_with("inflight_curve changed null -> {")));
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
            .any(|n| n.contains(r#""peak":{"min":5,"#) && n.contains(r#""peak":{"min":12,"#)));
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
            .any(|n| n.contains("stall_diagnostics changed [] -> [")));
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
            .any(|n| n.contains("construction_seed changed 1 -> 5")));
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
            .any(|n| n.contains("construction_seed changed 1 -> null")));
    }
}
