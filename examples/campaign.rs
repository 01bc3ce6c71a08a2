//! Run a small experiment campaign programmatically and print its markdown
//! report.
//!
//! The same engine powers the `fdn-lab` CLI:
//!
//! ```text
//! cargo run --release -p fdn-lab -- run --preset standard
//! ```
//!
//! Usage: `cargo run --release --example campaign`

use fdn_lab::{errln, out, outln};
use fully_defective::prelude::*;

fn main() -> Result<(), LabError> {
    // The matrix: 4 graph families x 2 engine modes x 2 noise models x 2
    // schedulers x 2 workloads x 3 seeds, minus combinations that cannot run
    // (the campaign filters those out with recorded reasons).
    let mut campaign = Campaign::new("example");
    campaign.families = vec![
        GraphFamily::Cycle { n: 6 },
        GraphFamily::Figure3,
        GraphFamily::Petersen,
        GraphFamily::RandomTwoEdgeConnected {
            n: 8,
            extra_edges: 4,
            seed: 5,
        },
    ];
    campaign.modes = vec![EngineMode::Full, EngineMode::CycleOnly];
    campaign.noises = vec![NoiseSpec::Noiseless, NoiseSpec::FullCorruption];
    campaign.schedulers = vec![SchedulerSpec::Random, SchedulerSpec::Lifo];
    campaign.workloads = vec![
        WorkloadSpec::Flood { payload_bytes: 4 },
        WorkloadSpec::Leader,
    ];
    campaign.seeds = SeedRange { start: 1, count: 3 };

    // The caches share seed-independent work (topologies, baselines) across
    // both campaigns; they never change a report's bytes.
    let caches = Caches::new();
    errln!("running {} scenarios…", campaign.scenario_count());
    let (report, _timings) = run_campaign(&caches, &campaign, None)?;

    // Every cell should succeed: content-oblivious simulation is exact even
    // under total corruption (that is the paper's Theorem 2).
    assert!(report.cells.iter().all(|c| c.success_rate == 1.0));

    out!("{}", report.to_markdown());

    // The frontier: the same matrix under deletion-side adversaries, which
    // the paper's model forbids. Success is *expected* to collapse — the
    // interesting output is where and how (early quiescence with dropped
    // pulses, never a panic or hang).
    let mut frontier = campaign.clone();
    frontier.name = "example-frontier".to_string();
    frontier.noises = NoiseSpec::DELETION.to_vec();
    errln!(
        "running {} deletion-frontier scenarios…",
        frontier.scenario_count()
    );
    let (frontier_report, _) = run_campaign(&caches, &frontier, None)?;
    out!("\n{}", frontier_report.to_markdown());
    let broken = frontier_report
        .cells
        .iter()
        .filter(|c| c.success_rate < 1.0)
        .count();
    outln!(
        "\ndeletion frontier: {} of {} cells lost success once messages could be dropped",
        broken,
        frontier_report.cells.len()
    );
    Ok(())
}
