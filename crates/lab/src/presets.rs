//! Ready-made campaigns.
//!
//! * `quick` — a smoke-test sweep (a minute of laptop time is overkill).
//! * `standard` — the default: 10 graph families under both engine modes,
//!   all three schedulers, the paper's noise models *and* the three
//!   deletion-side frontier adversaries; several hundred scenarios.
//! * `paper` — the broadest built-in matrix: adds the heavier workloads
//!   (echo, gossip, token ring), the §6 constant-one adversary and more
//!   seeds.
//! * `scale` — the big-topology sweep: rings, theta graphs and chorded
//!   random 2EC graphs at n ∈ {50, 80, 120}, all three engine modes.
//!   Exercises the construction cache (the reference Robbins cycle of each
//!   family is built once and reused across the seed range) and the
//!   link-indexed event core; its report charts where the Lemma 19
//!   construction cost outgrows the step budget (full mode on chorded
//!   graphs at n >= 80), while every cycle-mode cell completes well under
//!   the default limit. The **replay** cells are what full mode cannot
//!   reach: the distributed construction runs once per family (its own
//!   generous budget, outside the per-scenario limit) and the n ∈ {80, 120}
//!   full-topology online sweeps then fit comfortably inside the 20M-step
//!   budget that full mode exhausts mid-construction. The campaign
//!   wall-clock is recorded in the markdown report header so future changes
//!   can track the speedup.
//! * `huge` — the big-n cycle-mode sweep on the counting link store: a
//!   minimal flood on rings and thetas at n ∈ {400, 1000} and the n = 10⁴
//!   ring. A ring broadcast costs `Θ(n²)` deliveries, so the n = 10⁴ cell
//!   is a multi-billion-step run (tens of minutes); it exists as a bounded,
//!   reproducible profiling target, not as a CI gate (`--families` picks
//!   the smaller cells).
//!
//! Every preset sweeps [`NoiseSpec::DELETION`] alongside the paper-model
//! noises: the alteration cells must stay at 100% success (Theorem 2) while
//! the deletion cells chart where the construction breaks once the paper's
//! no-deletion assumption is violated.

use fdn_graph::GraphFamily;
use fdn_netsim::{LinkStore, NoiseSpec, SchedulerSpec};
use fdn_protocols::WorkloadSpec;

use crate::error::LabError;
use crate::spec::{Campaign, EncodingSpec, EngineMode, SeedRange};

/// The built-in preset names, in documentation order.
pub const PRESET_NAMES: [&str; 5] = ["quick", "standard", "paper", "scale", "huge"];

/// The given alteration noises plus the canonical deletion-side frontier
/// sweep ([`NoiseSpec::DELETION`]).
fn with_deletion(alteration: &[NoiseSpec]) -> Vec<NoiseSpec> {
    alteration
        .iter()
        .copied()
        .chain(NoiseSpec::DELETION)
        .collect()
}

impl Campaign {
    /// Builds a named preset campaign.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Usage`] for unknown names (see [`PRESET_NAMES`]).
    pub fn preset(name: &str) -> Result<Campaign, LabError> {
        match name {
            "quick" => Ok(Campaign {
                families: vec![
                    GraphFamily::Cycle { n: 4 },
                    GraphFamily::Figure1,
                    GraphFamily::Figure3,
                ],
                modes: vec![EngineMode::Full],
                encodings: vec![EncodingSpec::Binary],
                workloads: vec![
                    WorkloadSpec::Flood { payload_bytes: 2 },
                    WorkloadSpec::Leader,
                ],
                noises: with_deletion(&[NoiseSpec::Noiseless, NoiseSpec::FullCorruption]),
                schedulers: vec![SchedulerSpec::Random, SchedulerSpec::Fifo],
                seeds: SeedRange { start: 1, count: 2 },
                ..Campaign::new("quick")
            }),
            "standard" => Ok(Campaign {
                families: vec![
                    GraphFamily::Cycle { n: 6 },
                    GraphFamily::Cycle { n: 8 },
                    GraphFamily::Figure1,
                    GraphFamily::Figure3,
                    GraphFamily::Theta { a: 1, b: 2, c: 3 },
                    GraphFamily::Wheel { n: 6 },
                    GraphFamily::Petersen,
                    GraphFamily::CircularLadder { n: 4 },
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
                ],
                modes: vec![EngineMode::Full, EngineMode::CycleOnly],
                encodings: vec![EncodingSpec::Binary],
                workloads: vec![
                    WorkloadSpec::Flood { payload_bytes: 4 },
                    WorkloadSpec::Leader,
                ],
                noises: with_deletion(&[NoiseSpec::Noiseless, NoiseSpec::FullCorruption]),
                schedulers: vec![
                    SchedulerSpec::Random,
                    SchedulerSpec::Fifo,
                    SchedulerSpec::Lifo,
                ],
                seeds: SeedRange { start: 1, count: 2 },
                ..Campaign::new("standard")
            }),
            "paper" => Ok(Campaign {
                families: vec![
                    GraphFamily::Cycle { n: 6 },
                    GraphFamily::Cycle { n: 10 },
                    GraphFamily::Figure1,
                    GraphFamily::Figure3,
                    GraphFamily::Theta { a: 1, b: 2, c: 3 },
                    GraphFamily::Wheel { n: 6 },
                    GraphFamily::CompleteBipartite { a: 2, b: 3 },
                    GraphFamily::Petersen,
                    GraphFamily::GridTorus { w: 3, h: 3 },
                    GraphFamily::Hypercube { d: 3 },
                    GraphFamily::CircularLadder { n: 4 },
                    GraphFamily::RandomTwoEdgeConnected {
                        n: 8,
                        extra_edges: 4,
                        seed: 1,
                    },
                    GraphFamily::RandomEar {
                        base: 4,
                        ears: 3,
                        max_ear_len: 2,
                        seed: 1,
                    },
                ],
                modes: vec![EngineMode::Full, EngineMode::CycleOnly],
                encodings: vec![EncodingSpec::Binary],
                workloads: vec![
                    WorkloadSpec::Flood { payload_bytes: 4 },
                    WorkloadSpec::Leader,
                    WorkloadSpec::Echo,
                    WorkloadSpec::TokenRing,
                ],
                noises: with_deletion(&[
                    NoiseSpec::Noiseless,
                    NoiseSpec::FullCorruption,
                    NoiseSpec::ConstantOne,
                ]),
                schedulers: vec![
                    SchedulerSpec::Random,
                    SchedulerSpec::Fifo,
                    SchedulerSpec::Lifo,
                ],
                seeds: SeedRange { start: 1, count: 3 },
                ..Campaign::new("paper")
            }),
            "scale" => Ok(Campaign {
                families: vec![
                    GraphFamily::Cycle { n: 50 },
                    GraphFamily::Cycle { n: 80 },
                    GraphFamily::Cycle { n: 120 },
                    GraphFamily::Theta {
                        a: 16,
                        b: 16,
                        c: 16,
                    },
                    GraphFamily::Theta {
                        a: 26,
                        b: 26,
                        c: 26,
                    },
                    GraphFamily::Theta {
                        a: 40,
                        b: 39,
                        c: 39,
                    },
                    GraphFamily::RandomTwoEdgeConnected {
                        n: 50,
                        extra_edges: 10,
                        seed: 1,
                    },
                    GraphFamily::RandomTwoEdgeConnected {
                        n: 80,
                        extra_edges: 15,
                        seed: 1,
                    },
                    GraphFamily::RandomTwoEdgeConnected {
                        n: 120,
                        extra_edges: 20,
                        seed: 1,
                    },
                ],
                modes: vec![EngineMode::Full, EngineMode::CycleOnly, EngineMode::Replay],
                encodings: vec![EncodingSpec::Binary],
                // One small-payload workload and one scheduler: at this
                // size the interesting axis is n, not the matrix breadth.
                workloads: vec![WorkloadSpec::Flood { payload_bytes: 2 }],
                noises: vec![NoiseSpec::FullCorruption],
                schedulers: vec![SchedulerSpec::Random],
                seeds: SeedRange { start: 1, count: 2 },
                // Enough for every cycle-mode cell and for full mode on
                // rings/thetas at n = 120 (~11M pulses); full mode on the
                // chorded random graphs at n >= 80 exceeds any practical
                // budget (Lemma 19, ~66M deliveries at n = 120) and is
                // *expected* to hit this limit — that frontier is part of
                // the preset's report. The replay cells sidestep it: their
                // construction runs once per family under
                // `CONSTRUCTION_MAX_STEPS` and only the online phase counts
                // against this per-scenario budget.
                max_steps: 20_000_000,
                ..Campaign::new("scale")
            }),
            "huge" => Ok(Campaign {
                // The n = 10⁴ ring first, so it keeps index 0. Full mode
                // cannot construct at these sizes, and replay's construction
                // outgrows `CONSTRUCTION_MAX_STEPS` from n = 400 on.
                families: vec![
                    GraphFamily::Cycle { n: 10_000 },
                    GraphFamily::Cycle { n: 400 },
                    GraphFamily::Cycle { n: 1000 },
                    GraphFamily::Theta {
                        a: 133,
                        b: 133,
                        c: 132,
                    },
                    GraphFamily::Theta {
                        a: 333,
                        b: 333,
                        c: 332,
                    },
                ],
                modes: vec![EngineMode::CycleOnly],
                encodings: vec![EncodingSpec::Binary],
                // The minimal flood: every byte of payload multiplies the
                // Θ(n²)-per-bit broadcast cost.
                workloads: vec![WorkloadSpec::Flood { payload_bytes: 0 }],
                noises: vec![NoiseSpec::FullCorruption],
                schedulers: vec![SchedulerSpec::Random],
                seeds: SeedRange { start: 1, count: 1 },
                max_steps: 12_000_000_000,
                // The preset is the profiling target of the compressed
                // store; `--link-store exact` reruns it byte-identically.
                link_store_override: Some(LinkStore::Counting),
                ..Campaign::new("huge")
            }),
            other => Err(LabError::Usage(format!(
                "unknown preset `{other}` (expected one of {})",
                PRESET_NAMES.join("|")
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_exist_and_standard_is_large() {
        for name in PRESET_NAMES {
            let c = Campaign::preset(name).unwrap();
            assert_eq!(c.name, name);
            assert!(c.scenario_count() > 0, "{name} expands to nothing");
        }
        // The acceptance bar: the default campaign runs >= 100 scenarios.
        assert!(Campaign::preset("standard").unwrap().scenario_count() >= 100);
        assert!(Campaign::preset("quick").unwrap().scenario_count() >= 20);
    }

    #[test]
    fn unknown_preset_is_a_usage_error() {
        assert!(matches!(Campaign::preset("warp"), Err(LabError::Usage(_))));
    }

    #[test]
    fn every_small_preset_sweeps_the_deletion_frontier() {
        // `scale` and `huge` are exempt: a deletion adversary on an n >= 50
        // topology only stalls the construction into the step budget, seed
        // after seed — the frontier is already charted by the small presets.
        for name in PRESET_NAMES
            .iter()
            .filter(|&&n| n != "scale" && n != "huge")
        {
            let c = Campaign::preset(name).unwrap();
            for noise in NoiseSpec::DELETION {
                assert!(c.noises.contains(&noise), "{name} misses {noise}");
            }
            // The deletion variants expand into runnable scenarios, not just
            // spec entries.
            assert!(
                c.expand().iter().any(|s| s.cell.noise.deletes()),
                "{name} expands no deletion scenario"
            );
        }
    }

    #[test]
    fn scale_preset_reaches_n_120_in_every_mode() {
        let c = Campaign::preset("scale").unwrap();
        let (scenarios, skipped) = c.expand_with_skips();
        assert!(skipped.is_empty(), "every scale family is 2EC and floods");
        // 9 families x 3 modes x 2 seeds, every cell id on the six paper
        // axes.
        assert_eq!(scenarios.len(), 54);
        assert!(scenarios
            .iter()
            .all(|s| s.cell.id().split('/').count() == 6 && s.link_store == LinkStore::Exact));
        for family in &c.families {
            let g = family.build().unwrap();
            assert!(g.node_count() >= 50, "{family} is not a scale topology");
        }
        assert!(c
            .families
            .iter()
            .any(|f| f.build().unwrap().node_count() >= 120));
        for mode in EngineMode::ALL {
            assert!(scenarios.iter().any(|s| s.cell.mode == mode));
        }
        // The replay cells cover the n ∈ {80, 120} full topologies the issue
        // targets: construct once, then sweep the online phase.
        assert!(scenarios.iter().any(|s| {
            s.cell.mode == EngineMode::Replay
                && s.cell.family
                    == (GraphFamily::RandomTwoEdgeConnected {
                        n: 120,
                        extra_edges: 20,
                        seed: 1,
                    })
        }));
        // No deletion noise at scale (see the deletion-frontier test), and a
        // step budget that accommodates the n = 120 cycle-mode cells.
        assert!(c.noises.iter().all(|n| !n.deletes()));
        assert!(c.max_steps >= 20_000_000);
    }

    #[test]
    fn huge_preset_is_five_counting_store_cycle_cells() {
        let c = Campaign::preset("huge").unwrap();
        let (scenarios, skipped) = c.expand_with_skips();
        assert!(skipped.is_empty());
        assert_eq!(scenarios.len(), 5);
        // The n = 10⁴ ring keeps index 0.
        assert_eq!(scenarios[0].cell.family, GraphFamily::Cycle { n: 10_000 });
        let sizes: Vec<usize> = scenarios
            .iter()
            .map(|s| s.cell.family.build().unwrap().node_count())
            .collect();
        assert_eq!(sizes, [10_000, 400, 1000, 400, 1000]);
        for s in &scenarios {
            assert_eq!(s.cell.mode, EngineMode::CycleOnly);
            assert_eq!(s.cell.workload, WorkloadSpec::Flood { payload_bytes: 0 });
            assert_eq!(s.link_store, LinkStore::Counting);
            assert!(!s.id().contains("counting"), "{}", s.id());
            // Θ(n²) deliveries per broadcast bit at n = 10⁴ needs a budget
            // in the billions.
            assert!(s.max_steps >= 1_000_000_000);
        }
    }

    #[test]
    fn matrix_flags_replace_every_preset_axis() {
        // A flag-overridden axis is the whole axis: no preset may carry
        // cells from elsewhere past `--families` / `--modes` / `--workloads`.
        for name in PRESET_NAMES {
            let mut c = Campaign::preset(name).unwrap();
            c.families = vec![GraphFamily::Cycle { n: 8 }];
            c.modes = vec![EngineMode::CycleOnly];
            c.workloads = vec![WorkloadSpec::Flood { payload_bytes: 0 }];
            let scenarios = c.expand();
            assert!(!scenarios.is_empty(), "{name}");
            for s in &scenarios {
                assert_eq!(s.cell.family, GraphFamily::Cycle { n: 8 }, "{name}");
                assert_eq!(s.cell.mode, EngineMode::CycleOnly, "{name}");
            }
        }
    }
}
