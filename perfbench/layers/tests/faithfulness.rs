//! Replay faithfulness: a layer replay of a recorded run must reproduce the
//! run exactly — the scheduler picks the recorded link at every pop, the
//! `Stats` replay ends in the run's `StatsSnapshot`, the engine replay emits
//! the recorded sends, and both link stores pop identical envelopes — and
//! each of those checks must actually fire when its layer diverges.

use fdn_lab::{run_scenario_with, Caches, Scenario};
use fdn_netsim::{LinkStore, Reactor};
use perfbench_layers::campaign;
use perfbench_layers::observe::{decode, Recorder, SEND};
use perfbench_layers::replay::{replay, Costs, Measure};
use perfbench_layers::scenario::{with_reactors, Setup, WithReactors};

fn scenarios(flags: &[&str]) -> Vec<Scenario> {
    let args: Vec<String> = flags.iter().map(|f| (*f).to_string()).collect();
    campaign::parse(&args).expect("valid flags").expand()
}

/// Small matrices covering every engine mode, all three schedulers, both
/// link stores, alteration noise and the deletion (drop) path.
const MATRICES: &[&[&str]] = &[
    &[
        "--families",
        "cycle(12),theta(1,2,3)",
        "--modes",
        "cycle",
        "--workloads",
        "flood(2),leader",
        "--noises",
        "full-corruption",
        "--schedulers",
        "random,fifo,lifo",
        "--seeds",
        "2",
    ],
    &[
        "--families",
        "figure3",
        "--modes",
        "full",
        "--workloads",
        "flood(2)",
        "--noises",
        "full-corruption,omission(200),burst(8,2)",
        "--schedulers",
        "random,lifo",
        "--seeds",
        "2",
    ],
    &[
        "--families",
        "theta(2,2,3)",
        "--modes",
        "replay",
        "--workloads",
        "flood(2),echo",
        "--noises",
        "full-corruption,constant-one",
        "--schedulers",
        "random,fifo",
        "--seeds",
        "2",
    ],
    &[
        "--families",
        "cycle(10)",
        "--modes",
        "cycle,full",
        "--workloads",
        "flood(2)",
        "--noises",
        "full-corruption,omission(100)",
        "--schedulers",
        "random",
        "--seeds",
        "2",
        "--link-store",
        "counting",
    ],
];

#[test]
fn every_layer_replay_reproduces_its_run() {
    let mut drops = 0;
    let mut counting = 0;
    for flags in MATRICES {
        let caches = Caches::new();
        for s in scenarios(flags) {
            let outcome = run_scenario_with(&caches, s);
            let measure = Measure {
                expected: &outcome.stats,
            };
            let costs = with_reactors(&caches, s, measure)
                .and_then(|r| r)
                .unwrap_or_else(|e| panic!("{}: {e}", s.id()));
            assert_eq!(costs.sends, outcome.stats.sent_total, "{}", s.id());
            assert_eq!(
                costs.deliveries,
                outcome.stats.delivered_total,
                "{}",
                s.id()
            );
            assert_eq!(costs.drops, outcome.stats.dropped_total, "{}", s.id());
            // The isolated layers and the remainder add up to the run.
            assert_eq!(
                costs.layers_ns() + costs.remainder_ns(),
                i64::try_from(costs.run_ns).unwrap()
            );
            drops += costs.drops;
            counting += u64::from(s.link_store == LinkStore::Counting);
        }
    }
    assert!(drops > 0, "the deletion path was exercised");
    assert!(counting > 0, "a counting-store run was replayed");
}

/// Ways to make a replay diverge from its recording.
#[derive(Clone, Copy)]
enum Tamper {
    /// Replay under another scheduler seed.
    SchedulerSeed,
    /// Expect a snapshot with one extra send.
    Snapshot,
    /// Move the last recorded send onto another link.
    SendLink,
}

/// Records one run of the scenario, then replays it tampered.
struct Tampered(Tamper);

impl WithReactors for Tampered {
    type Output = Result<Costs, String>;

    fn run<R: Reactor>(self, setup: &Setup, make: &dyn Fn() -> Vec<R>) -> Result<Costs, String> {
        let mut sim = setup.simulation(make(), Recorder::new(&setup.graph))?;
        sim.run().map_err(|e| e.to_string())?;
        let mut snapshot = sim.stats().snapshot();
        let mut log = sim.into_observer().log;
        match self.0 {
            Tamper::SchedulerSeed => {
                let mut scenario = setup.scenario;
                scenario.seed += 1;
                let other = Setup {
                    scenario,
                    graph: setup.graph.clone(),
                    warm_links: setup.warm_links.clone(),
                };
                replay(&other, make, &log, &snapshot)
            }
            Tamper::Snapshot => {
                snapshot.sent_total += 1;
                replay(setup, make, &log, &snapshot)
            }
            Tamper::SendLink => {
                let links = 2 * setup.graph.edge_count() as u32;
                let last = log
                    .iter()
                    .rposition(|&w| decode(w).0 == SEND)
                    .expect("the run sent something");
                let (_, link) = decode(log[last]);
                log[last] = SEND | ((link.0 + 1) % links);
                replay(setup, make, &log, &snapshot)
            }
        }
    }
}

fn tampered(tamper: Tamper) -> String {
    let s = scenarios(&[
        "--families",
        "cycle(12)",
        "--modes",
        "cycle",
        "--workloads",
        "flood(2)",
        "--noises",
        "full-corruption",
        "--schedulers",
        "random",
        "--seeds",
        "1",
    ])[0];
    with_reactors(&Caches::new(), s, Tampered(tamper))
        .and_then(|r| r)
        .expect_err("a tampered replay must be rejected")
}

#[test]
fn scheduler_replay_rejects_a_different_pick() {
    assert!(tampered(Tamper::SchedulerSeed).contains("scheduler replay picked another link"));
}

#[test]
fn stats_replay_rejects_a_different_snapshot() {
    assert!(tampered(Tamper::Snapshot).contains("Stats replay"));
}

#[test]
fn engine_replay_rejects_a_different_send() {
    assert!(tampered(Tamper::SendLink).contains("engine replay sent"));
}
