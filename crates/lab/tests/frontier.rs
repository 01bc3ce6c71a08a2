//! Integration tests of the frontier bisection engine: bracketing quality,
//! determinism across worker-thread counts, and the `fdn-lab diff` exit-code
//! contract on frontier reports (the CI gate's exact interface).

mod common;

use common::{fdn_lab, report_artifacts, scratch};
use fdn_graph::GraphFamily;
use fdn_lab::{
    diff_frontier_reports, Caches, EngineMode, FrontierReport, FrontierSpec, FrontierStatus,
    FrontierTolerance, LabError, RunOptions, SeedRange,
};
use fdn_netsim::SchedulerSpec;
use fdn_protocols::WorkloadSpec;

fn run_frontier(spec: &FrontierSpec) -> Result<FrontierReport, LabError> {
    fdn_lab::run_frontier(&Caches::new(), spec).map(|(report, _)| report)
}

fn small_spec(name: &str) -> FrontierSpec {
    FrontierSpec {
        name: name.to_string(),
        families: vec![GraphFamily::Figure3, GraphFamily::Cycle { n: 4 }],
        modes: vec![EngineMode::Full],
        workloads: vec![WorkloadSpec::Flood { payload_bytes: 2 }],
        scheduler: SchedulerSpec::Random,
        seeds: SeedRange { start: 1, count: 2 },
        max_steps: 2_000_000,
        max_rate: 1000,
        resolution: 8,
        verify_probes: 3,
    }
}

#[test]
fn frontier_brackets_tightly_and_to_spec_resolution() {
    let report = run_frontier(&small_spec("it")).unwrap();
    assert_eq!(report.cells.len(), 2);
    for cell in &report.cells {
        // The acceptance bar: a finite breaking rate, bracketed to at most
        // 8 per mille.
        assert_eq!(cell.status, FrontierStatus::Bracketed, "{}", cell.cell_id());
        assert!(cell.bracket_width() <= 8, "{}", cell.cell_id());
        assert!(cell.upper > 0);
        // Verification probes above the bracket were actually taken.
        assert!(
            cell.probes.iter().any(|p| p.rate > cell.upper),
            "{}: no probe above the bracket",
            cell.cell_id()
        );
    }
}

#[test]
fn frontier_diff_of_independent_runs_is_clean() {
    let a = run_frontier(&small_spec("it")).unwrap();
    let b = run_frontier(&small_spec("it")).unwrap();
    assert_eq!(a.to_json_string(), b.to_json_string());
    let d = diff_frontier_reports(&a, &b, FrontierTolerance::default());
    assert!(!d.has_regressions());
    assert_eq!(d.unchanged, a.cells.len());
}

#[test]
fn frontier_cli_is_byte_deterministic_across_worker_thread_counts() {
    // The report must be a pure function of the spec: one worker and four
    // workers have to produce identical bytes for every artifact. Thread
    // count is pinned via RAYON_NUM_THREADS in child processes so the two
    // runs cannot share a global pool.
    let dir = scratch("threads");
    let mut artifacts: Vec<Vec<(String, Vec<u8>)>> = Vec::new();
    for threads in ["1", "4"] {
        let out_dir = dir.join(format!("t{threads}"));
        let out = fdn_lab(
            &[
                "frontier",
                "--preset",
                "quick",
                "--families",
                "figure3",
                "--resolution",
                "16",
                "--out",
                out_dir.to_str().unwrap(),
            ],
            &[("RAYON_NUM_THREADS", threads)],
        );
        assert!(
            out.status.success(),
            "frontier run failed with {threads} thread(s): {}",
            String::from_utf8_lossy(&out.stderr)
        );
        artifacts.push(report_artifacts(&out_dir, "quick.frontier"));
    }
    assert_eq!(
        artifacts[0], artifacts[1],
        "artifacts differ between 1 and 4 worker threads"
    );
}

#[test]
fn diff_exit_code_contract_on_frontier_reports() {
    // The CI gate's interface, end to end through the binary: clean diff
    // exits 0, a regression exits exactly 2, and a parse error is an
    // ordinary failure (1) — never mistakable for a regression.
    let dir = scratch("exit-codes");
    let base = run_frontier(&small_spec("gate")).unwrap();
    let base_path = dir.join("base.json");
    std::fs::write(&base_path, base.to_json_string()).unwrap();

    // Identical reports: exit 0.
    let out = fdn_lab(
        &[
            "diff",
            base_path.to_str().unwrap(),
            base_path.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(0), "clean diff must exit 0");

    // A degraded report (cliff moved closer + a cell removed): exit 2.
    let mut worse = base.clone();
    worse.cells[0].lower = 0;
    worse.cells[0].upper = worse.cells[0].upper.saturating_sub(1).max(1);
    worse.cells.pop();
    let worse_path = dir.join("worse.json");
    std::fs::write(&worse_path, worse.to_json_string()).unwrap();
    let out = fdn_lab(
        &[
            "diff",
            base_path.to_str().unwrap(),
            worse_path.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(2), "regression must exit 2");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));

    // Unparseable input: exit 1, not 2.
    let garbage_path = dir.join("garbage.json");
    std::fs::write(&garbage_path, "not a report").unwrap();
    let out = fdn_lab(
        &[
            "diff",
            base_path.to_str().unwrap(),
            garbage_path.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(1), "parse error must exit 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));

    // Kind mismatch (campaign vs frontier): usage error, exit 1.
    let (campaign, _) = fdn_lab::run_campaign(
        &Caches::new(),
        &fdn_lab::Campaign::new("mixed"),
        RunOptions::default(),
    )
    .unwrap();
    let campaign_path = dir.join("campaign.json");
    std::fs::write(&campaign_path, campaign.to_json_string()).unwrap();
    let out = fdn_lab(
        &[
            "diff",
            base_path.to_str().unwrap(),
            campaign_path.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(1), "kind mismatch must exit 1");

    // The frontier tolerance flag absorbs the bracket decrease but not the
    // removed cell; the campaign tolerances are rejected outright.
    let out = fdn_lab(
        &[
            "diff",
            "--tol-mille",
            "1000",
            base_path.to_str().unwrap(),
            worse_path.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(
        out.status.code(),
        Some(2),
        "coverage loss survives tolerance"
    );
    let out = fdn_lab(
        &[
            "diff",
            "--tol-pulses",
            "0.5",
            base_path.to_str().unwrap(),
            base_path.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "campaign tolerance on frontier reports"
    );
}

#[test]
fn frontier_report_parses_back_from_disk_bytes() {
    // The exact bytes the CLI writes are what CI re-reads: round-trip
    // through a file, not just through strings.
    let dir = scratch("roundtrip");
    let report = run_frontier(&small_spec("rt")).unwrap();
    let path = dir.join("rt.frontier.json");
    std::fs::write(&path, report.to_json_string()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = FrontierReport::from_json_str(&text).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json_string(), report.to_json_string());
}
