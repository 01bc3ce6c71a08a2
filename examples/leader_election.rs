//! Leader election in a fully-defective ad-hoc network.
//!
//! Scenario from the paper's motivation: a distributed system whose links are
//! so degraded that no message content survives. The nodes run an ordinary
//! asynchronous max-priority leader election written for a *noiseless*
//! network; the Theorem 2 compiler makes it work verbatim over the
//! fully-defective network, and the result is compared against the noiseless
//! baseline execution.
//!
//! Run with: `cargo run --example leader_election`

#![expect(clippy::print_stdout, reason = "D5: an example prints its results")]

use fully_defective::prelude::*;
use fully_defective::protocols::util::{decode_u64, run_direct};

fn main() {
    // A random 2-edge-connected topology of 10 nodes.
    let g = generators::random_two_edge_connected(10, 5, 99).expect("valid parameters");
    println!("network: {g}");

    // Per-node priorities (e.g. battery levels); the max should win.
    let priorities: Vec<u64> = g
        .nodes()
        .map(|v| (u64::from(v.0) * 37 + 11) % 100)
        .collect();
    let expected = *priorities.iter().max().expect("non-empty network");
    println!("priorities: {priorities:?}  => expected leader priority {expected}");

    // Ground truth: run π directly on the noiseless network.
    let baseline = run_direct(
        &g,
        |v| MaxIdLeaderElection::with_candidate(priorities[v.index()]),
        1,
    )
    .expect("baseline run");

    // The same π over the fully-defective network (Theorem 2).
    let nodes = full_simulators(&g, NodeId(0), Encoding::binary(), |v| {
        MaxIdLeaderElection::with_candidate(priorities[v.index()])
    })
    .expect("2-edge-connected input");
    let mut sim = Simulation::new(g.clone(), nodes)
        .expect("one reactor per node")
        .with_noise(FullCorruption::new(5))
        .with_scheduler(RandomScheduler::new(17));
    sim.run().expect("simulation runs to quiescence");

    let mut cc_init = 0u64;
    for v in g.nodes() {
        let node = sim.node(v);
        let elected = decode_u64(&node.output().expect("decided"));
        assert_eq!(elected, expected, "node {v} elected the wrong leader");
        assert_eq!(
            node.output(),
            baseline[v.index()],
            "node {v} deviates from the baseline"
        );
        cc_init += node.construction_pulses();
    }
    println!("every node elected priority {expected}, matching the noiseless baseline ✔");
    println!(
        "cost: CCinit = {cc_init} pulses (pre-processing), {} pulses total",
        sim.stats().sent_total
    );
}
