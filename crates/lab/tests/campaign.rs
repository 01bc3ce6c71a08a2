//! Integration tests of the campaign engine: determinism under parallelism,
//! correctness of aggregation, JSON round-tripping, the deletion-noise
//! frontier, the report diff gate, the construction cache, and sharded
//! campaign recombination.

use fdn_graph::GraphFamily;
use fdn_lab::{
    diff_reports, merge_reports, run_scenario_with, Caches, Campaign, CampaignReport,
    DiffTolerance, EngineMode, LabError, RunOptions, SeedRange, Shard,
};
use fdn_netsim::{NoiseSpec, SchedulerSpec};
use fdn_protocols::WorkloadSpec;

/// Runs `campaign` (or one shard of it) with fresh caches.
fn run(campaign: &Campaign, shard: Option<Shard>) -> Result<CampaignReport, LabError> {
    let opts = RunOptions {
        shard,
        ..RunOptions::default()
    };
    fdn_lab::run_campaign(&Caches::new(), campaign, opts).map(|(report, _)| report)
}

fn run_campaign(campaign: &Campaign) -> Result<CampaignReport, LabError> {
    run(campaign, None)
}

/// 4 families (one of which is filtered out) x 2 noises x 2 schedulers x 4
/// seeds, both engine modes: the determinism matrix from the issue spec.
fn test_campaign() -> Campaign {
    let mut c = Campaign::new("integration");
    c.families = vec![
        GraphFamily::Cycle { n: 5 },
        GraphFamily::Figure1,
        GraphFamily::Figure3,
        GraphFamily::Barbell { k: 3 }, // not 2EC: must be skipped, not run
    ];
    c.modes = vec![EngineMode::Full, EngineMode::CycleOnly];
    c.workloads = vec![WorkloadSpec::Flood { payload_bytes: 3 }];
    c.noises = vec![NoiseSpec::Noiseless, NoiseSpec::FullCorruption];
    c.schedulers = vec![SchedulerSpec::Random, SchedulerSpec::Lifo];
    c.seeds = SeedRange { start: 7, count: 4 };
    c
}

#[test]
fn parallel_campaign_reports_are_byte_identical() {
    let campaign = test_campaign();
    let first = run_campaign(&campaign).unwrap();
    let second = run_campaign(&campaign).unwrap();
    assert_eq!(first, second);
    // The real guarantee is at the byte level, for every renderer.
    assert_eq!(first.to_json_string(), second.to_json_string());
    assert_eq!(first.to_csv(), second.to_csv());
    assert_eq!(first.to_markdown(), second.to_markdown());
}

#[test]
fn campaign_shape_and_rates() {
    let campaign = test_campaign();
    let report = run_campaign(&campaign).unwrap();
    // 3 runnable families x 2 modes x 2 noises x 2 schedulers = 24 cells,
    // 4 seeds each.
    assert_eq!(report.cells.len(), 24);
    assert_eq!(report.scenario_count, 96);
    assert_eq!(report.seeds_per_cell, 4);
    for cell in &report.cells {
        assert_eq!(cell.runs, 4, "{}", cell.family);
        assert_eq!(cell.errors, 0);
        assert_eq!(cell.success_rate, 1.0);
        assert_eq!(cell.quiescence_rate, 1.0);
        assert!(cell.pulses.min > 0.0);
        assert!(cell.pulses.min <= cell.pulses.p50 && cell.pulses.p50 <= cell.pulses.max);
        // Full mode pays a construction phase; cycle mode does not.
        if cell.mode == "full" {
            assert!(cell.cc_init.min > 0.0);
        } else {
            assert_eq!(cell.cc_init.max, 0.0);
            // The reference cycle is what cycle mode runs on.
            assert_eq!(cell.cycle_len.p50, cell.reference_cycle_len as f64);
        }
        // flood(3) has a noiseless baseline, so overhead is reported.
        assert!(cell.overhead.is_some());
    }
    // The barbell family was skipped with the Theorem 3 reason.
    assert!(report
        .skipped
        .iter()
        .any(|s| s.cell.starts_with("barbell(3)") && s.reason.contains("2-edge-connected")));
}

#[test]
fn report_json_roundtrip_preserves_everything() {
    let report = run_campaign(&test_campaign()).unwrap();
    let json = report.to_json_string();
    let parsed = CampaignReport::from_json_str(&json).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json_string(), json);
}

#[test]
fn deletion_noise_frontier_degrades_gracefully_and_deterministically() {
    // The three deletion-side adversaries violate the paper's no-deletion
    // assumption: the construction is expected to lose success (recorded per
    // cell), while the runs themselves must neither panic nor hang, and the
    // report must stay byte-deterministic.
    let mut campaign = Campaign::new("frontier");
    campaign.families = vec![GraphFamily::Figure3, GraphFamily::Cycle { n: 5 }];
    campaign.noises = std::iter::once(NoiseSpec::FullCorruption)
        .chain(NoiseSpec::DELETION)
        .collect();
    campaign.seeds = SeedRange { start: 1, count: 3 };
    let report = run_campaign(&campaign).unwrap();
    assert_eq!(
        report.to_json_string(),
        run_campaign(&campaign).unwrap().to_json_string()
    );
    // The paper-model cells still succeed everywhere …
    for cell in report.cells.iter().filter(|c| c.noise == "full-corruption") {
        assert_eq!(cell.success_rate, 1.0, "{}", cell.family);
        assert_eq!(cell.dropped.max, 0.0);
    }
    // … while every deletion cell recorded drops, and the sweep as a whole
    // shows the frontier (at these rates the construction reliably breaks).
    let deletion_cells: Vec<_> = report
        .cells
        .iter()
        .filter(|c| c.noise != "full-corruption")
        .collect();
    assert_eq!(deletion_cells.len(), 6);
    for cell in &deletion_cells {
        assert!(cell.dropped.min > 0.0, "{}/{}", cell.family, cell.noise);
    }
    assert!(deletion_cells.iter().any(|c| c.success_rate < 1.0));
    // The JSON round trip carries the new dropped metric.
    let parsed = CampaignReport::from_json_str(&report.to_json_string()).unwrap();
    assert_eq!(parsed, report);
}

#[test]
fn diff_gate_passes_on_rerun_and_fails_on_degradation() {
    let campaign = test_campaign();
    let base = run_campaign(&campaign).unwrap();
    let rerun = run_campaign(&campaign).unwrap();
    let clean = diff_reports(&base, &rerun, DiffTolerance::default());
    assert!(!clean.has_regressions());
    assert_eq!(clean.unchanged, base.cells.len());

    // Degrade one cell the way a behavioural regression would: lower its
    // success rate and raise its pulse cost, then round-trip through JSON as
    // the CLI does.
    let mut worse = rerun.clone();
    worse.cells[0].success_rate = 0.25;
    worse.cells[1].pulses.p50 *= 2.0;
    let worse = CampaignReport::from_json_str(&worse.to_json_string()).unwrap();
    let gate = diff_reports(&base, &worse, DiffTolerance::default());
    assert!(gate.has_regressions());
    assert!(gate.regression_count() >= 2);
    let md = gate.to_markdown();
    assert!(md.contains("REGRESSION"));
    // A generous tolerance absorbs the pulse change but not the rate drop.
    let loose = diff_reports(
        &base,
        &worse,
        DiffTolerance {
            pulses: 2.0,
            ..DiffTolerance::default()
        },
    );
    assert!(loose
        .deltas
        .iter()
        .all(|d| d.regressions.iter().all(|r| r.contains("success_rate"))));
}

#[test]
fn cached_topologies_do_not_change_outcomes() {
    // The construction-cache soundness claim, checked end to end: a scenario
    // run against a shared, pre-warmed cache is *identical* to one run with
    // a private throwaway cache, for both engine modes and across seeds —
    // the cached graph/cycle reuse must not leak state between seeds.
    let campaign = test_campaign();
    let (scenarios, _) = campaign.expand_with_skips();
    let shared = Caches::new();
    for scenario in scenarios.iter().take(24).copied() {
        let cached = run_scenario_with(&shared, scenario);
        let fresh = run_scenario_with(&Caches::new(), scenario);
        assert_eq!(cached, fresh, "{}", scenario.id());
    }
    // One topology per distinct family made it into the shared cache.
    assert_eq!(
        shared.topology.len(),
        1,
        "first 24 scenarios share one family"
    );
}

#[test]
fn sharded_runs_merge_into_the_unsharded_report_byte_for_byte() {
    let campaign = test_campaign();
    let unsharded = run_campaign(&campaign).unwrap();
    for shards in [2usize, 3, 5] {
        let reports: Vec<CampaignReport> = (0..shards)
            .map(|index| {
                let shard = Shard {
                    index,
                    count: shards,
                };
                run(&campaign, Some(shard)).unwrap()
            })
            .collect();
        // Shards partition the matrix: cell counts add up, no overlap.
        let total_cells: usize = reports.iter().map(|r| r.cells.len()).sum();
        assert_eq!(total_cells, unsharded.cells.len());
        // Merging in any order reproduces the unsharded report exactly —
        // same value, same bytes, for every renderer.
        let merged = merge_reports(&reports).unwrap();
        assert_eq!(merged, unsharded, "{shards} shards");
        assert_eq!(merged.to_json_string(), unsharded.to_json_string());
        assert_eq!(merged.to_csv(), unsharded.to_csv());
        assert_eq!(merged.to_markdown(), unsharded.to_markdown());
        let reversed: Vec<CampaignReport> = reports.iter().rev().cloned().collect();
        assert_eq!(merge_reports(&reversed).unwrap(), unsharded);
        // And the merged report survives the CLI's JSON round trip.
        let rt = CampaignReport::from_json_str(&merged.to_json_string()).unwrap();
        assert_eq!(rt, unsharded);
    }
}

#[test]
fn more_shards_than_cells_yields_empty_reports_that_merge_neutrally() {
    // A CI matrix runs `for k in 0..M` without knowing the cell count;
    // shards beyond the last cell must produce valid *empty* reports, and
    // merging all M of them must still reproduce the unsharded bytes.
    let mut campaign = Campaign::new("tiny");
    campaign.seeds = SeedRange { start: 1, count: 2 }; // a single cell
    let unsharded = run_campaign(&campaign).unwrap();
    let m = 3;
    let reports: Vec<CampaignReport> = (0..m)
        .map(|index| run(&campaign, Some(Shard { index, count: m })).unwrap())
        .collect();
    assert_eq!(reports[0].cells.len(), 1);
    assert!(reports[1].cells.is_empty() && reports[2].cells.is_empty());
    assert_eq!(reports[1].scenario_count, 0);
    let merged = merge_reports(&reports).unwrap();
    assert_eq!(merged, unsharded);
    assert_eq!(merged.to_json_string(), unsharded.to_json_string());
}

#[test]
fn merge_rejects_mismatched_or_overlapping_shards() {
    let report = run(&test_campaign(), Some(Shard { index: 0, count: 2 })).unwrap();

    assert!(merge_reports(&[]).is_err(), "empty merge is an error");
    // The same shard twice: overlapping cells.
    let err = merge_reports(&[report.clone(), report.clone()]).unwrap_err();
    assert!(err.contains("more than one report"), "{err}");
    // A report from a different campaign: name mismatch.
    let mut other = report.clone();
    other.name = "something-else".to_string();
    let err = merge_reports(&[report.clone(), other]).unwrap_err();
    assert!(err.contains("same campaign"), "{err}");
    // Disagreeing seed counts.
    let mut odd = report.clone();
    odd.name.clone_from(&report.name);
    odd.seeds_per_cell += 1;
    assert!(merge_reports(&[report, odd]).is_err());
}

#[test]
fn merge_detects_a_missing_shard() {
    // Passing only shards 0 and 2 of 3 must not silently produce a partial
    // report claiming to be the whole campaign: the cells no longer tile the
    // expansion's scenario indices, which merge detects.
    let campaign = test_campaign();
    let reports: Vec<CampaignReport> = [0usize, 2]
        .into_iter()
        .map(|index| run(&campaign, Some(Shard { index, count: 3 })).unwrap())
        .collect();
    let err = merge_reports(&reports).unwrap_err();
    assert!(err.contains("incomplete"), "{err}");
    // The first cell after the hole (shard 2's first) is named in full.
    let after_hole = reports[1].cells[0].cell_id();
    assert!(err.contains(&format!("`{after_hole}`")), "{err}");
}

#[test]
fn queue_depth_metric_is_populated() {
    let report = run_campaign(&test_campaign()).unwrap();
    // The chatter of a Theorem 2 run keeps more than one message in flight.
    assert!(report.cells.iter().all(|c| c.max_inflight.p50 >= 1.0));
}

#[test]
fn full_and_cycle_modes_agree_on_workload_outputs() {
    // The same workload under the same noise succeeds in both engine modes —
    // the paper's Theorem 2 vs Theorem 10 comparison at campaign level.
    let mut campaign = test_campaign();
    campaign.workloads = vec![WorkloadSpec::Leader];
    campaign.noises = vec![NoiseSpec::FullCorruption];
    let report = run_campaign(&campaign).unwrap();
    assert!(report.cells.iter().all(|c| c.success_rate == 1.0));
    // Construction dominates: full-mode pulse medians strictly exceed
    // cycle-mode medians on every (family, scheduler) pair.
    for full_cell in report.cells.iter().filter(|c| c.mode == "full") {
        let twin = report
            .cells
            .iter()
            .find(|c| {
                c.mode == "cycle"
                    && c.family == full_cell.family
                    && c.scheduler == full_cell.scheduler
            })
            .expect("cycle twin exists");
        assert!(full_cell.pulses.p50 > twin.pulses.p50);
    }
}

#[test]
fn engine_modes_pin_exact_counts() {
    // One cell per engine mode at one seed, with every count the report
    // derives from pinned exactly: a change to the reactors must leave each
    // mode's trajectory untouched, not merely its success rate. Replay's
    // checkpoint is built with construction seed 1, so it crosses the same
    // boundary as the full-mode run of seed 1 (same CCinit, same online
    // traffic); cycle mode runs on the reference cycle instead.
    let mut campaign = Campaign::new("pinned");
    campaign.modes = vec![EngineMode::Full, EngineMode::CycleOnly, EngineMode::Replay];
    campaign.workloads = vec![WorkloadSpec::Flood { payload_bytes: 2 }];
    campaign.seeds = SeedRange { start: 1, count: 1 };
    let caches = Caches::new();
    // (sent_total, delivered_total, cc_init, online_pulses, cycle_len)
    let expected = [
        ("full", (11_131, 11_131, 8_132, 2_999, 8)),
        ("cycle", (2_995, 2_995, 0, 2_995, 8)),
        ("replay", (2_999, 2_999, 8_132, 2_999, 8)),
    ];
    let scenarios = campaign.expand();
    assert_eq!(scenarios.len(), expected.len());
    for (scenario, (mode, counts)) in scenarios.into_iter().zip(expected) {
        let id = scenario.id();
        assert_eq!(
            id,
            format!("figure3/{mode}/binary/flood(2)/full-corruption/random/s1")
        );
        let out = run_scenario_with(&caches, scenario);
        assert_eq!(out.error, None, "{id}");
        assert!(out.success, "{id}");
        let measured = (
            out.stats.sent_total,
            out.stats.delivered_total,
            out.cc_init,
            out.online_pulses,
            out.cycle_len,
        );
        assert_eq!(measured, counts, "{id}");
    }
}
