//! Reproduces the paper's illustrative figures on the 5-node examples:
//! Robbins orientation and non-simple Robbins cycle (Figure 1), and the
//! ear-by-ear construction trace (Figure 3), both centralized (reference) and
//! distributed (content-oblivious, Algorithm 4).
//!
//! Run with: `cargo run --example figure1`

use std::collections::BTreeSet;

use fdn_lab::outln;
use fully_defective::graph::ear::ear_decomposition;
use fully_defective::prelude::*;

fn describe(graph: &Graph, name: &str, root: NodeId) {
    outln!("=== {name} ===");
    outln!(
        "graph: {graph}, 2-edge-connected: {}",
        connectivity::is_two_edge_connected(graph)
    );

    // Figure 1(a): a Robbins (strongly-connected) orientation, the set of
    // the reference cycle's arcs (each edge in exactly one direction).
    let reference = robbins::reference_robbins_cycle(graph, root).expect("2-edge-connected");
    let orientation: BTreeSet<(NodeId, NodeId)> = reference.arcs().into_iter().collect();
    outln!("Robbins orientation arcs: {orientation:?}");

    // Whitney ear decomposition (the skeleton of the construction).
    let ears = ear_decomposition(graph, root).expect("2-edge-connected");
    outln!("initial cycle C0: {:?}", ears.initial_cycle);
    for (i, ear) in ears.ears.iter().enumerate() {
        outln!("ear E{i}: {:?}", ear.path);
    }

    // Figure 1(b)/3(c): the induced (possibly non-simple) Robbins cycle.
    outln!(
        "reference Robbins cycle ({} occurrences): {reference}",
        reference.len()
    );

    // The same cycle built distributedly by Algorithm 4 over the
    // fully-defective network (content-oblivious construction).
    let nodes = construction_simulators(graph, root, Encoding::binary()).expect("valid input");
    let mut sim = Simulation::new(graph.clone(), nodes)
        .expect("one reactor per node")
        .with_noise(FullCorruption::new(42))
        .with_scheduler(RandomScheduler::new(24));
    sim.run().expect("construction terminates");
    let constructed = sim
        .node(root)
        .cycle()
        .expect("construction finished")
        .clone();
    constructed.validate(graph).expect("valid Robbins cycle");
    assert!(constructed.covers_all_edges(graph));
    outln!(
        "distributed construction: |C| = {}, {} pulses, cycle = {constructed}",
        constructed.len(),
        sim.stats().sent_total
    );
    for v in graph.nodes() {
        assert_eq!(sim.node(v).cycle().expect("done").seq(), constructed.seq());
    }
    outln!("all nodes agree on the constructed cycle ✔\n");
}

fn main() {
    describe(
        &generators::figure1(),
        "Figure 1 style graph (a, b, c, d, e)",
        NodeId(0),
    );
    describe(
        &generators::figure3(),
        "Figure 3 graph (square + ear v1-v5-v3)",
        NodeId(0),
    );
}
