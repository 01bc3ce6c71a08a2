//! Regenerates the experiment tables of EXPERIMENTS.md via the `fdn-lab`
//! campaign engine.
//!
//! Usage: `cargo run -p fdn-bench --release --bin report [e1|...|e8|all]`
//!
//! Exits 0 when every table printed, 1 when a correctness sweep (E5, E7)
//! found a failure, and 2, with a usage line on stderr, when the argument
//! names no experiment.
//!
//! Every experiment is one declarative [`Campaign`]: the matrix is expanded,
//! swept in parallel, aggregated per cell, and the table below is a custom
//! rendering of the resulting [`fdn_lab::CampaignReport`]. E1–E4 and E6
//! reproduce the paper's cost tables (Lemmas 7/9/13/14, Theorem 15,
//! Theorem 2); E5 and E7 are correctness sweeps (success rates must be 100%
//! everywhere); E8 deliberately leaves the paper's model and charts the
//! deletion-noise frontier (success is *expected* to collapse).

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "D5: the experiment-table binary prints its tables, and its usage line on stderr"
)]

use std::process::ExitCode;

use fdn_graph::GraphFamily;
use fdn_lab::{
    run_campaign, Caches, Campaign, CampaignReport, EncodingSpec, EngineMode, RunOptions, SeedRange,
};
use fdn_netsim::{NoiseSpec, SchedulerSpec};
use fdn_protocols::WorkloadSpec;

/// Runs a campaign, exiting loudly if the matrix is empty.
fn run(campaign: &Campaign) -> CampaignReport {
    run_campaign(&Caches::new(), campaign, RunOptions::default())
        .map(|(report, _)| report)
        .unwrap_or_else(|e| panic!("campaign `{}`: {e}", campaign.name))
}

/// Payload bytes of a flood workload label (`flood(k)` -> `k`).
fn flood_payload(workload: &str) -> usize {
    workload
        .strip_prefix("flood(")
        .and_then(|r| r.strip_suffix(')'))
        .and_then(|k| k.parse().ok())
        .unwrap_or(0)
}

fn e1_unary_simple_cycle() -> bool {
    println!("\n## E1 — Lemma 7: unary overhead over a simple cycle (campaign: cycle x unary)\n");
    let mut c = Campaign::preset("quick").expect("preset");
    c.name = "e1".into();
    c.families = vec![
        GraphFamily::Cycle { n: 4 },
        GraphFamily::Cycle { n: 6 },
        GraphFamily::Cycle { n: 8 },
    ];
    c.modes = vec![EngineMode::CycleOnly];
    c.encodings = vec![EncodingSpec::Unary];
    c.workloads = vec![WorkloadSpec::Flood { payload_bytes: 0 }];
    c.noises = vec![NoiseSpec::FullCorruption];
    c.schedulers = vec![SchedulerSpec::Random];
    c.seeds = SeedRange { start: 7, count: 3 };
    // Unary runs on cycle(8) need ~5M deliveries; keep clear of the limit.
    c.max_steps = 20_000_000;
    let report = run(&c);
    println!("| n (cycle) | payload bytes | message bits | pulses p50 | pulses / 2^bits |");
    println!("|---|---|---|---|---|");
    for cell in &report.cells {
        let bits = 2 * 8; // 0-byte payload + 2 header bytes
        println!(
            "| {} | 0 | {bits} | {:.0} | {:.3} |",
            cell.nodes,
            cell.pulses.p50,
            cell.pulses.p50 / 2f64.powi(bits),
        );
    }
    println!("\n(unary cost ~ n * 2^|M|; payloads beyond a couple of bytes are infeasible, which is the Lemma 7 point)");
    true
}

fn e2_binary_simple_cycle() -> bool {
    println!(
        "\n## E2 — Lemma 9: binary overhead over a simple cycle (campaign: cycle x payload)\n"
    );
    let mut c = Campaign::preset("quick").expect("preset");
    c.name = "e2".into();
    c.families = vec![
        GraphFamily::Cycle { n: 4 },
        GraphFamily::Cycle { n: 8 },
        GraphFamily::Cycle { n: 16 },
        GraphFamily::Cycle { n: 32 },
    ];
    c.modes = vec![EngineMode::CycleOnly];
    c.encodings = vec![EncodingSpec::Binary];
    c.workloads = vec![
        WorkloadSpec::Flood { payload_bytes: 1 },
        WorkloadSpec::Flood { payload_bytes: 4 },
        WorkloadSpec::Flood { payload_bytes: 16 },
    ];
    c.noises = vec![NoiseSpec::FullCorruption];
    c.schedulers = vec![SchedulerSpec::Random];
    c.seeds = SeedRange {
        start: 11,
        count: 3,
    };
    let report = run(&c);
    println!("| n (cycle) | payload bytes | pulses/message p50 | per-message / (n * bits) |");
    println!("|---|---|---|---|");
    for cell in &report.cells {
        let payload = flood_payload(&cell.workload);
        let bits = ((payload + 2) * 8) as f64;
        let per_message = cell.overhead.expect("flood(k>0) has a baseline").p50;
        println!(
            "| {} | {payload} | {per_message:.1} | {:.3} |",
            cell.nodes,
            per_message / (cell.nodes as f64 * bits),
        );
    }
    println!("\n(the last column is roughly constant: cost = O(n·|m| + n log n), Lemma 9)");
    true
}

fn e3_robbins_overhead() -> bool {
    println!("\n## E3 — Lemmas 13/14: overhead over non-simple Robbins cycles\n");
    let mut c = Campaign::preset("quick").expect("preset");
    c.name = "e3".into();
    c.families = vec![
        GraphFamily::Figure1,
        GraphFamily::Figure3,
        GraphFamily::Theta { a: 1, b: 2, c: 3 },
        GraphFamily::Wheel { n: 8 },
        GraphFamily::Petersen,
        GraphFamily::RandomTwoEdgeConnected {
            n: 12,
            extra_edges: 6,
            seed: 3,
        },
    ];
    c.modes = vec![EngineMode::CycleOnly];
    c.encodings = vec![EncodingSpec::Binary];
    c.workloads = vec![
        WorkloadSpec::Flood { payload_bytes: 1 },
        WorkloadSpec::Flood { payload_bytes: 8 },
    ];
    c.noises = vec![NoiseSpec::FullCorruption];
    c.schedulers = vec![SchedulerSpec::Random];
    c.seeds = SeedRange { start: 5, count: 3 };
    let report = run(&c);
    println!("| graph | n | \\|C\\| | payload bytes | pulses/message p50 | per-message / (\\|C\\| * bits) |");
    println!("|---|---|---|---|---|---|");
    for cell in &report.cells {
        let payload = flood_payload(&cell.workload);
        let bits = ((payload + 2) * 8) as f64;
        let per_message = cell.overhead.expect("flood(k>0) has a baseline").p50;
        println!(
            "| {} | {} | {} | {payload} | {per_message:.1} | {:.3} |",
            cell.family,
            cell.nodes,
            cell.reference_cycle_len,
            per_message / (cell.reference_cycle_len as f64 * bits),
        );
    }
    true
}

fn e4_construction() -> bool {
    println!("\n## E4 — Theorem 15 / Lemma 19: Robbins-cycle construction\n");
    let mut c = Campaign::preset("quick").expect("preset");
    c.name = "e4".into();
    c.families = vec![
        GraphFamily::Cycle { n: 8 },
        GraphFamily::Figure1,
        GraphFamily::Figure3,
        GraphFamily::Theta { a: 1, b: 2, c: 3 },
        GraphFamily::Complete { n: 5 },
        GraphFamily::Wheel { n: 7 },
        GraphFamily::Petersen,
        GraphFamily::RandomTwoEdgeConnected {
            n: 6,
            extra_edges: 3,
            seed: 42,
        },
        GraphFamily::RandomTwoEdgeConnected {
            n: 8,
            extra_edges: 4,
            seed: 42,
        },
        GraphFamily::RandomTwoEdgeConnected {
            n: 10,
            extra_edges: 5,
            seed: 42,
        },
        GraphFamily::RandomTwoEdgeConnected {
            n: 12,
            extra_edges: 6,
            seed: 42,
        },
    ];
    c.modes = vec![EngineMode::Full];
    c.workloads = vec![WorkloadSpec::Flood { payload_bytes: 1 }];
    c.noises = vec![NoiseSpec::FullCorruption];
    c.schedulers = vec![SchedulerSpec::Random];
    c.seeds = SeedRange { start: 9, count: 3 };
    let report = run(&c);
    println!("| graph | n | m | \\|C\\| constructed p50 | \\|C\\| reference | \\|C\\| / n^2 | CCinit p50 | CCinit / n^8 log n |");
    println!("|---|---|---|---|---|---|---|---|");
    for cell in &report.cells {
        let n = cell.nodes as f64;
        let bound = n.powi(8) * n.log2();
        println!(
            "| {} | {} | {} | {:.0} | {} | {:.3} | {:.0} | {:.2e} |",
            cell.family,
            cell.nodes,
            cell.edges,
            cell.cycle_len.p50,
            cell.reference_cycle_len,
            cell.cycle_len.p50 / (n * n),
            cell.cc_init.p50,
            cell.cc_init.p50 / bound,
        );
    }
    println!(
        "\n(|C| stays far below the O(n^3) bound and CCinit far below the O(n^8 log n) bound)"
    );
    true
}

fn e5_equivalence() -> bool {
    println!(
        "\n## E5 — Theorems 4/10: workload equivalence sweep (success must be 100% everywhere)\n"
    );
    let mut c = Campaign::preset("quick").expect("preset");
    c.name = "e5".into();
    c.families = vec![
        GraphFamily::Cycle { n: 6 },
        GraphFamily::Figure3,
        GraphFamily::Theta { a: 1, b: 2, c: 3 },
        GraphFamily::Petersen,
    ];
    c.modes = vec![EngineMode::Full, EngineMode::CycleOnly];
    c.workloads = vec![
        WorkloadSpec::Flood { payload_bytes: 4 },
        WorkloadSpec::Leader,
        WorkloadSpec::Echo,
        WorkloadSpec::Gossip,
        WorkloadSpec::TokenRing,
    ];
    c.noises = vec![NoiseSpec::Noiseless, NoiseSpec::FullCorruption];
    c.schedulers = vec![
        SchedulerSpec::Random,
        SchedulerSpec::Fifo,
        SchedulerSpec::Lifo,
    ];
    c.seeds = SeedRange { start: 1, count: 3 };
    let report = run(&c);
    summarize_correctness(&report)
}

fn e6_end_to_end() -> bool {
    println!("\n## E6 — Theorem 2: end-to-end cost split (broadcast workload)\n");
    let mut c = Campaign::preset("quick").expect("preset");
    c.name = "e6".into();
    c.families = vec![
        GraphFamily::Figure3,
        GraphFamily::Figure1,
        GraphFamily::Theta { a: 1, b: 1, c: 2 },
        GraphFamily::Cycle { n: 8 },
        GraphFamily::RandomTwoEdgeConnected {
            n: 8,
            extra_edges: 4,
            seed: 1,
        },
        GraphFamily::RandomTwoEdgeConnected {
            n: 10,
            extra_edges: 5,
            seed: 2,
        },
    ];
    c.modes = vec![EngineMode::Full];
    c.workloads = vec![WorkloadSpec::Flood { payload_bytes: 4 }];
    c.noises = vec![NoiseSpec::FullCorruption];
    c.schedulers = vec![SchedulerSpec::Random];
    c.seeds = SeedRange {
        start: 13,
        count: 3,
    };
    let report = run(&c);
    println!("| graph | n | \\|C\\| p50 | CCinit p50 | online p50 | baseline messages | online pulses / baseline message |");
    println!("|---|---|---|---|---|---|---|");
    for cell in &report.cells {
        println!(
            "| {} | {} | {:.0} | {:.0} | {:.0} | {:.0} | {:.1} |",
            cell.family,
            cell.nodes,
            cell.cycle_len.p50,
            cell.cc_init.p50,
            cell.online_pulses.p50,
            cell.baseline_messages.p50,
            cell.overhead.expect("flood(4) has a baseline").p50,
        );
    }
    true
}

fn e7_robustness() -> bool {
    println!(
        "\n## E7 — robustness: noise x scheduler invariance (success must be 100% everywhere)\n"
    );
    let mut c = Campaign::preset("quick").expect("preset");
    c.name = "e7".into();
    c.families = vec![GraphFamily::Figure3, GraphFamily::Petersen];
    c.modes = vec![EngineMode::Full];
    c.workloads = vec![
        WorkloadSpec::Flood { payload_bytes: 4 },
        WorkloadSpec::Leader,
    ];
    c.noises = vec![
        NoiseSpec::Noiseless,
        NoiseSpec::FullCorruption,
        NoiseSpec::ConstantOne,
        NoiseSpec::BitFlip { p: 0.2 },
    ];
    c.schedulers = vec![
        SchedulerSpec::Random,
        SchedulerSpec::Fifo,
        SchedulerSpec::Lifo,
    ];
    c.seeds = SeedRange {
        start: 21,
        count: 3,
    };
    let report = run(&c);
    summarize_correctness(&report)
}

fn e8_deletion_frontier() -> bool {
    println!(
        "\n## E8 — beyond the model: the deletion-noise frontier (the paper forbids deletion; \
         these adversaries chart where Theorem 2 breaks)\n"
    );
    let mut c = Campaign::preset("quick").expect("preset");
    c.name = "e8".into();
    c.families = vec![
        GraphFamily::Figure3,
        GraphFamily::Cycle { n: 8 },
        GraphFamily::Petersen,
    ];
    c.modes = vec![EngineMode::Full];
    c.workloads = vec![WorkloadSpec::Flood { payload_bytes: 4 }];
    c.noises = vec![
        NoiseSpec::FullCorruption, // in-model baseline: must stay at 100%
        NoiseSpec::Omission { drop_per_mille: 10 },
        NoiseSpec::Omission { drop_per_mille: 50 },
        NoiseSpec::Omission {
            drop_per_mille: 200,
        },
        NoiseSpec::CrashLink { at_pulse: 40 },
        NoiseSpec::Burst { period: 8, len: 2 },
    ];
    c.schedulers = vec![SchedulerSpec::Random];
    c.seeds = SeedRange {
        start: 31,
        count: 5,
    };
    let report = run(&c);
    println!("| graph | noise | success | quiescent | errors | dropped p50 | pulses p50 |");
    println!("|---|---|---|---|---|---|---|");
    for cell in &report.cells {
        println!(
            "| {} | {} | {} | {} | {} | {:.0} | {:.0} |",
            cell.family,
            cell.noise,
            fdn_lab::fmt_rate(cell.success_rate),
            fdn_lab::fmt_rate(cell.quiescence_rate),
            cell.errors,
            cell.dropped.p50,
            cell.pulses.p50,
        );
    }
    println!(
        "\n(full-corruption rows stay at 100% — alteration alone is harmless, Theorem 2; \
         every deletion row shows the no-deletion assumption is load-bearing)"
    );
    true
}

/// Renders a correctness sweep: per-(noise, scheduler) success rates plus a
/// verdict line. Returns whether every scenario succeeded and quiesced.
fn summarize_correctness(report: &CampaignReport) -> bool {
    println!("| noise | scheduler | cells | scenarios | success | quiescent |");
    println!("|---|---|---|---|---|---|");
    let mut keys: Vec<(String, String)> = Vec::new();
    for cell in &report.cells {
        let key = (cell.noise.clone(), cell.scheduler.clone());
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let mut all_ok = true;
    for (noise, scheduler) in keys {
        let group: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.noise == noise && c.scheduler == scheduler)
            .collect();
        let cells = group.len();
        let runs: usize = group.iter().map(|c| c.runs).sum();
        let success: f64 = group
            .iter()
            .map(|c| c.success_rate * c.runs as f64)
            .sum::<f64>()
            / runs as f64;
        let quiescent: f64 = group
            .iter()
            .map(|c| c.quiescence_rate * c.runs as f64)
            .sum::<f64>()
            / runs as f64;
        all_ok &= success == 1.0 && quiescent == 1.0;
        println!(
            "| {noise} | {scheduler} | {cells} | {runs} | {:.1}% | {:.1}% |",
            success * 100.0,
            quiescent * 100.0
        );
    }
    println!(
        "\n({} scenarios; verdict: {})",
        report.scenario_count,
        if all_ok {
            "all succeeded — simulation is noise- and schedule-invariant"
        } else {
            "FAILURES PRESENT"
        }
    );
    all_ok
}

/// An experiment's command-line name and the function that prints its table
/// and returns whether its correctness verdict holds. Only the sweeps E5 and
/// E7 have a verdict; the cost tables always return `true`.
type Experiment = (&'static str, fn() -> bool);

/// Every experiment, in run order.
const EXPERIMENTS: [Experiment; 8] = [
    ("e1", e1_unary_simple_cycle),
    ("e2", e2_binary_simple_cycle),
    ("e3", e3_robbins_overhead),
    ("e4", e4_construction),
    ("e5", e5_equivalence),
    ("e6", e6_end_to_end),
    ("e7", e7_robustness),
    ("e8", e8_deletion_frontier),
];

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| arg == "all" || arg == *name)
        .collect();
    if selected.is_empty() {
        let names: Vec<_> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: report [{}|all]", names.join("|"));
        return ExitCode::from(2);
    }
    println!("# Measured reproduction of the paper's complexity claims");
    println!("\n(every table is an `fdn-lab` campaign; re-run any row set with the CLI, e.g.");
    println!(
        "`cargo run -p fdn-lab --release -- run --families petersen --noises full-corruption`)"
    );
    let mut verdicts_hold = true;
    for (_, experiment) in selected {
        verdicts_hold &= experiment();
    }
    if verdicts_hold {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
