//! Failure-injection and adversarial-schedule robustness tests: the
//! content-oblivious pipeline must tolerate *any* alteration-noise model and
//! *any* delivery schedule the paper's model allows (Remark 2: no
//! starvation; §2: arbitrary finite delays, non-FIFO channels).

use fully_defective::netsim::{BitFlip, EdgeDelayScheduler, LifoScheduler, TargetedEdges};
use fully_defective::prelude::*;
use fully_defective::protocols::util::{decode_u64, run_direct};

fn check_broadcast<N, S>(graph: &Graph, noise: N, scheduler: S, tag: &str)
where
    N: fully_defective::netsim::NoiseModel + 'static,
    S: fully_defective::netsim::Scheduler + 'static,
{
    let value = vec![0xD1, 0xCE];
    let baseline = run_direct(
        graph,
        |v| FloodBroadcast::new(v, NodeId(1), value.clone()),
        0,
    )
    .unwrap();
    let nodes = full_simulators(graph, NodeId(0), Encoding::binary(), |v| {
        FloodBroadcast::new(v, NodeId(1), value.clone())
    })
    .unwrap();
    let mut sim = Simulation::new(graph.clone(), nodes)
        .unwrap()
        .with_noise(noise)
        .with_scheduler(scheduler);
    sim.run()
        .unwrap_or_else(|e| panic!("{tag}: simulation failed: {e}"));
    for v in graph.nodes() {
        assert!(
            sim.node(v).error().is_none(),
            "{tag}: node {v}: {:?}",
            sim.node(v).error()
        );
    }
    assert_eq!(
        sim.outputs(),
        baseline,
        "{tag}: outputs deviate from the baseline"
    );
}

#[test]
fn survives_bitflip_noise() {
    // Partial corruption is a special case of alteration noise; the
    // content-oblivious simulation must not care.
    let g = generators::figure3();
    check_broadcast(&g, BitFlip::new(0.5, 9), RandomScheduler::new(4), "bitflip");
}

#[test]
fn survives_corruption_targeted_at_every_edge() {
    // The classical "f Byzantine edges" adversary with f = |E| — i.e. every
    // edge is Byzantine. Interactive-coding approaches need f bounded; the
    // paper's simulator does not.
    let g = generators::figure1();
    let all_edges = g.edges();
    check_broadcast(
        &g,
        TargetedEdges::new(all_edges, FullCorruption::new(3)),
        RandomScheduler::new(11),
        "all-edges-byzantine",
    );
}

#[test]
fn survives_lifo_and_edge_starving_schedulers() {
    let g = generators::theta(1, 1, 2).unwrap();
    check_broadcast(&g, FullCorruption::new(1), LifoScheduler, "lifo");
    // Starve two arbitrary edges as long as the model allows (they must still
    // deliver eventually — finite delays).
    let slow: Vec<_> = g.edges().into_iter().take(2).collect();
    check_broadcast(
        &g,
        FullCorruption::new(2),
        EdgeDelayScheduler::new(slow, 5),
        "edge-starvation",
    );
}

#[test]
fn no_starvation_every_sender_gets_through() {
    // Remark 2: as long as some node has a message to send, epochs keep
    // completing, and a requesting node becomes the token holder within at
    // most n-1 epochs. Gossip makes *every* node a sender repeatedly.
    let g = generators::cycle(5).unwrap();
    let n = g.node_count();
    let baseline = run_direct(&g, |v| GossipAllToAll::new(v, n, u64::from(v.0) + 1), 0).unwrap();
    let nodes = full_simulators(&g, NodeId(0), Encoding::binary(), |v| {
        GossipAllToAll::new(v, n, u64::from(v.0) + 1)
    })
    .unwrap();
    let mut sim = Simulation::new(g.clone(), nodes)
        .unwrap()
        .with_noise(FullCorruption::new(8))
        .with_scheduler(RandomScheduler::new(80));
    sim.run().unwrap();
    assert_eq!(sim.outputs(), baseline);
    for v in g.nodes() {
        let learned = sim.node(v).output().unwrap();
        assert_eq!(learned.len(), n * 8, "node {v} missed some rumour");
    }
}

#[test]
fn quiescence_with_a_silent_protocol() {
    // If π never sends anything (the silent protocol `()`), the simulator
    // performs the pre-processing and then reaches quiescence (Theorem 6's
    // quiescence clause).
    let g = generators::figure3();
    let nodes = full_simulators(&g, NodeId(0), Encoding::binary(), |_| ()).unwrap();
    let mut sim = Simulation::new(g.clone(), nodes)
        .unwrap()
        .with_noise(FullCorruption::new(5))
        .with_scheduler(RandomScheduler::new(6));
    let report = sim.run().unwrap();
    assert!(report.quiescent);
    assert!(sim.is_quiescent());
    for v in g.nodes() {
        assert!(
            sim.node(v).is_online(),
            "node {v} did not finish pre-processing"
        );
        assert_eq!(sim.node(v).output(), None);
    }
}

#[test]
fn aggregation_under_adversarial_scheduling() {
    let g = generators::complete(4).unwrap();
    let inputs = [10u64, 20, 30, 40];
    let nodes = full_simulators(&g, NodeId(0), Encoding::binary(), |v| {
        EchoAggregate::new(v, NodeId(3), inputs[v.index()])
    })
    .unwrap();
    let mut sim = Simulation::new(g.clone(), nodes)
        .unwrap()
        .with_noise(FullCorruption::new(21))
        .with_scheduler(LifoScheduler);
    sim.run().unwrap();
    assert_eq!(decode_u64(&sim.node(NodeId(3)).output().unwrap()), 100);
}
