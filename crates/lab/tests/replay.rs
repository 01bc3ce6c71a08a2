//! Integration tests of the construct-once replay engine mode: agreement
//! with full mode at the construction/online boundary, byte-determinism
//! across worker-thread counts (through the CLI, the CI gate's exact
//! interface), report round-tripping of the replay provenance fields, and
//! the `fdn-lab diff` exit-code contract on replay cells.

mod common;

use common::{fdn_lab, report_artifacts, scratch};
use fdn_graph::GraphFamily;
use fdn_lab::{
    run_scenario_with, Caches, Campaign, CampaignReport, Cell, EncodingSpec, EngineMode, LabError,
    RunOptions, Scenario, SeedRange,
};
use fdn_netsim::{NoiseSpec, SchedulerSpec};
use fdn_protocols::WorkloadSpec;

fn run_campaign(campaign: &Campaign) -> Result<CampaignReport, LabError> {
    fdn_lab::run_campaign(&Caches::new(), campaign, RunOptions::default()).map(|(r, _)| r)
}

fn figure3_cell(mode: EngineMode) -> Cell {
    Cell {
        family: GraphFamily::Figure3,
        mode,
        encoding: EncodingSpec::Binary,
        workload: WorkloadSpec::Flood { payload_bytes: 3 },
        noise: NoiseSpec::FullCorruption,
        scheduler: SchedulerSpec::Random,
    }
}

fn scenario(cell: Cell, seed: u64, construction_seed: u64) -> Scenario {
    Scenario {
        index: 0,
        cell,
        seed,
        construction_seed,
        max_steps: 2_000_000,
        link_store: fdn_netsim::LinkStore::Exact,
    }
}

#[test]
fn replay_and_full_agree_on_online_pulses_for_equal_construction_seed() {
    // The boundary-agreement contract on figure 3: a full-mode run of seed s
    // and a replay run whose checkpoint was built with construction seed s
    // cross the *same* construction/online boundary (identical `CCinit`,
    // identical learned cycle — the construction is content-oblivious and
    // equal scheduler streams drive equal trajectories), and the online
    // phase they then measure costs the same number of pulses.
    let caches = Caches::new();
    for seed in 1..=4u64 {
        let full = run_scenario_with(
            &caches,
            scenario(figure3_cell(EngineMode::Full), seed, seed),
        );
        let replay = run_scenario_with(
            &caches,
            scenario(figure3_cell(EngineMode::Replay), seed, seed),
        );
        assert!(full.success && replay.success, "seed {seed}");
        assert_eq!(replay.cc_init, full.cc_init, "seed {seed}: CCinit");
        assert_eq!(replay.cycle_len, full.cycle_len, "seed {seed}: cycle");
        assert_eq!(
            replay.online_pulses, full.online_pulses,
            "seed {seed}: online overhead"
        );
        // Full mode pays construction inside the run; replay outside it.
        assert_eq!(full.stats.sent_total, full.cc_init + full.online_pulses);
        assert_eq!(replay.stats.sent_total, replay.online_pulses);
        assert_eq!(replay.overhead_ratio(), full.overhead_ratio());
    }
}

#[test]
fn replay_campaign_reports_record_the_construction_seed() {
    let mut campaign = Campaign::new("replay-it");
    campaign.families = vec![GraphFamily::Figure3, GraphFamily::Cycle { n: 5 }];
    campaign.modes = vec![EngineMode::Full, EngineMode::Replay];
    campaign.seeds = SeedRange { start: 3, count: 3 };
    let report = run_campaign(&campaign).unwrap();
    assert_eq!(report.cells.len(), 4);
    for cell in &report.cells {
        assert_eq!(cell.success_rate, 1.0, "{}", cell.cell_id());
        match cell.mode.as_str() {
            "replay" => {
                // The construct-once provenance: seed recorded, CCinit a
                // constant across the seed range (min == max), online
                // overhead present.
                assert_eq!(cell.construction_seed, Some(3), "{}", cell.cell_id());
                assert!(cell.cc_init.min > 0.0);
                assert_eq!(cell.cc_init.min, cell.cc_init.max);
                assert!(cell.online_pulses.min > 0.0);
                assert!(cell.overhead.is_some());
            }
            _ => assert_eq!(cell.construction_seed, None, "{}", cell.cell_id()),
        }
    }
    // The provenance survives the JSON round trip bit-for-bit.
    let parsed = CampaignReport::from_json_str(&report.to_json_string()).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json_string(), report.to_json_string());
    // CSV carries the seed column; markdown names the replay cells.
    assert!(report.to_csv().contains("construction_seed"));
    assert!(report.to_markdown().contains("construction seeds:"));
}

#[test]
fn replay_cli_is_byte_deterministic_across_worker_thread_counts() {
    // The replay-mode report must be a pure function of the campaign: one
    // worker and four workers produce identical bytes for every artifact —
    // the construct-once checkpoint is built single-flight and shared, never
    // raced. Thread count is pinned via RAYON_NUM_THREADS in child
    // processes so the runs cannot share a global pool.
    let dir = scratch("replay-threads");
    let mut artifacts: Vec<Vec<(String, Vec<u8>)>> = Vec::new();
    for threads in ["1", "4"] {
        let out_dir = dir.join(format!("t{threads}"));
        let out = fdn_lab(
            &[
                "run",
                "--preset",
                "quick",
                "--mode",
                "replay",
                "--name",
                "quick-replay",
                "--out",
                out_dir.to_str().unwrap(),
            ],
            &[("RAYON_NUM_THREADS", threads)],
        );
        assert!(
            out.status.success(),
            "replay run failed with {threads} thread(s): {}",
            String::from_utf8_lossy(&out.stderr)
        );
        artifacts.push(report_artifacts(&out_dir, "quick-replay"));
    }
    assert_eq!(
        artifacts[0], artifacts[1],
        "artifacts differ between 1 and 4 worker threads"
    );
    // The artifacts actually contain replay cells, not an empty matrix.
    let json = String::from_utf8(artifacts[0][0].1.clone()).unwrap();
    assert!(json.contains("\"mode\": \"replay\""));
    assert!(json.contains("construction_seed"));
}

#[test]
fn diff_exit_code_contract_on_replay_reports() {
    // The replay smoke gate's interface: identical replay reports diff
    // clean (exit 0); a degraded replay cell fails the gate (exit 2).
    let dir = scratch("replay-exit-codes");
    let mut campaign = Campaign::new("replay-gate");
    campaign.families = vec![GraphFamily::Figure3];
    campaign.modes = vec![EngineMode::Replay];
    campaign.seeds = SeedRange { start: 1, count: 2 };
    let base = run_campaign(&campaign).unwrap();
    let base_path = dir.join("base.json");
    std::fs::write(&base_path, base.to_json_string()).unwrap();
    let out = fdn_lab(
        &[
            "diff",
            base_path.to_str().unwrap(),
            base_path.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(0), "clean replay diff must exit 0");

    let mut worse = base.clone();
    worse.cells[0].success_rate = 0.5;
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
    assert_eq!(out.status.code(), Some(2), "replay regression must exit 2");
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));
}

#[test]
fn seeds_a_report_cannot_store_exactly_are_refused() {
    // Reports record seeds as JSON numbers, exact only up to 2^53: a seed
    // range reaching past it is a usage error naming `--seed-start` (exit 1),
    // never a report with a rounded or unreadable construction seed.
    let dir = scratch("large-seeds");
    let out_dir = dir.to_str().unwrap();
    let run = |start: &str, seeds: &str| {
        let mut args: Vec<&str> = "run --preset quick --families figure3 --modes replay \
                                   --workloads flood(2) --noises noiseless --schedulers random"
            .split_whitespace()
            .collect();
        args.extend(["--seeds", seeds, "--seed-start", start, "--out", out_dir]);
        fdn_lab(&args, &[])
    };
    for (start, seeds) in [
        ("9007199254740993", "1"),
        ("1152921504606846977", "1"),
        ("9007199254740992", "2"),
        ("18446744073709551615", "2"),
    ] {
        let out = run(start, seeds);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{start} x {seeds}: {stderr}");
        assert!(stderr.contains("`--seed-start`"), "{stderr}");
    }
    // The last exact seed runs, and its report reads back exactly.
    let out = run("9007199254740992", "1");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("quick.json")).unwrap();
    assert!(text.contains("\"construction_seed\": 9007199254740992"));
    let report = CampaignReport::from_json_str(&text).unwrap();
    assert_eq!(report.cells[0].construction_seed, Some(1 << 53));
}
