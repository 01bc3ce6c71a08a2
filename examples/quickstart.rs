//! Quickstart: simulate a broadcast over a fully-defective network.
//!
//! Every link corrupts every message, yet after the content-oblivious
//! Robbins-cycle construction and simulation (Theorem 2 of the paper) every
//! node learns the broadcast value.
//!
//! Run with: `cargo run --example quickstart`

use fdn_lab::outln;
use fully_defective::prelude::*;

fn main() {
    // The paper's Figure 3 network: a square v1-v2-v3-v4 plus the ear
    // v1-v5-v3. It is 2-edge-connected, so simulation is possible.
    let g = generators::figure3();
    outln!("network: {g}");
    outln!(
        "2-edge-connected: {}",
        connectivity::is_two_edge_connected(&g)
    );

    // The inner protocol π: node v3 floods the payload to everyone.
    let payload = b"fully defective yet fully functional".to_vec();
    let nodes = full_simulators(&g, NodeId(0), Encoding::binary(), |v| {
        FloodBroadcast::new(v, NodeId(2), payload.clone())
    })
    .expect("figure-3 graph is a valid input");

    // Fully-defective channels: every payload is replaced by random bytes.
    // Delivery order is chosen by a seeded random scheduler (asynchrony).
    let mut sim = Simulation::new(g.clone(), nodes)
        .expect("one reactor per node")
        .with_noise(FullCorruption::new(2024))
        .with_scheduler(RandomScheduler::new(7));

    let report = sim.run().expect("simulation runs to quiescence");

    outln!("\npulses delivered : {}", report.steps);
    outln!("pulses sent      : {}", sim.stats().sent_total);
    for v in g.nodes() {
        let node = sim.node(v);
        let out = node.output().expect("every node decides");
        outln!(
            "node {v}: output = {:?} (cycle |C| = {}, CCinit share = {} pulses)",
            String::from_utf8_lossy(&out),
            node.cycle().map(RobbinsCycle::len).unwrap_or(0),
            node.construction_pulses(),
        );
        assert_eq!(out, payload);
    }
    outln!("\nall nodes decoded the broadcast despite total corruption ✔");
}
