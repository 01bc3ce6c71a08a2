//! Integration tests for the content-oblivious Robbins-cycle construction
//! (Theorem 15): the distributed Algorithm 4 must terminate on every
//! 2-edge-connected graph, under total corruption and adversarial schedules,
//! with every node agreeing on a valid Robbins cycle that covers all edges.

use fdn_core::construction::construction_simulators;
use fdn_core::Encoding;
use fdn_graph::{connectivity, generators, Graph, NodeId, RobbinsCycle};
use fdn_netsim::{FullCorruption, LifoScheduler, RandomScheduler, Simulation};

/// Runs the construction on `graph` and returns the cycle all nodes agreed on
/// together with the total number of pulses sent.
fn run_construction(graph: &Graph, root: NodeId, seed: u64) -> (RobbinsCycle, u64) {
    let nodes = construction_simulators(graph, root, Encoding::binary()).expect("valid input");
    let mut sim = Simulation::new(graph.clone(), nodes)
        .expect("node count matches")
        .with_noise(FullCorruption::new(seed))
        .with_scheduler(RandomScheduler::new(
            seed.wrapping_mul(0x9E37_79B9).wrapping_add(1),
        ));
    sim.run().expect("construction run fails");
    let mut agreed: Option<RobbinsCycle> = None;
    for v in graph.nodes() {
        let node = sim.node(v);
        assert!(node.error().is_none(), "node {v} error: {:?}", node.error());
        let cycle = node
            .cycle()
            .unwrap_or_else(|| panic!("node {v} did not finish"))
            .clone();
        assert!(node.is_online(), "node {v} not done");
        match &agreed {
            None => agreed = Some(cycle),
            Some(c) => assert_eq!(c.seq(), cycle.seq(), "node {v} disagrees on the cycle"),
        }
    }
    (agreed.expect("at least one node"), sim.stats().sent_total)
}

fn check_graph(graph: &Graph, root: NodeId, seed: u64) {
    let (cycle, _pulses) = run_construction(graph, root, seed);
    cycle
        .validate(graph)
        .expect("constructed cycle is not a valid Robbins cycle");
    assert!(
        cycle.covers_all_edges(graph),
        "constructed cycle misses edges: {cycle}"
    );
    let n = graph.node_count();
    assert!(
        cycle.len() <= n * n * n,
        "cycle length {} violates the O(n^3) bound",
        cycle.len()
    );
}

#[test]
fn simple_cycle_graph() {
    for n in [3usize, 4, 6, 9] {
        let g = generators::cycle(n).unwrap();
        check_graph(&g, NodeId(0), n as u64);
    }
}

#[test]
fn figure3_graph() {
    // The paper's Figure 3 example: square plus one ear.
    check_graph(&generators::figure3(), NodeId(0), 1);
    check_graph(&generators::figure3(), NodeId(2), 2);
}

#[test]
fn figure1_graph() {
    check_graph(&generators::figure1(), NodeId(0), 3);
    check_graph(&generators::figure1(), NodeId(3), 4);
}

#[test]
fn theta_graphs() {
    check_graph(&generators::theta(1, 2, 3).unwrap(), NodeId(0), 5);
    check_graph(&generators::theta(0, 2, 2).unwrap(), NodeId(1), 6);
}

#[test]
fn complete_graph_and_wheel() {
    check_graph(&generators::complete(5).unwrap(), NodeId(0), 7);
    check_graph(&generators::wheel(6).unwrap(), NodeId(2), 8);
}

#[test]
fn petersen_graph() {
    check_graph(&generators::petersen(), NodeId(0), 9);
}

#[test]
fn complete_bipartite_and_ladder() {
    check_graph(
        &generators::complete_bipartite(2, 3).unwrap(),
        NodeId(0),
        10,
    );
    check_graph(&generators::circular_ladder(4).unwrap(), NodeId(1), 11);
}

#[test]
fn random_two_edge_connected_graphs() {
    for seed in 0..6u64 {
        let g = generators::random_two_edge_connected(9, 4, seed).unwrap();
        check_graph(&g, NodeId(0), seed);
    }
}

#[test]
fn random_ear_graphs() {
    for seed in 0..6u64 {
        let g = generators::random_ear_graph(3, 3, 2, seed).unwrap();
        assert!(connectivity::is_two_edge_connected(&g));
        check_graph(&g, NodeId(0), seed + 100);
    }
}

#[test]
fn different_roots_give_valid_cycles() {
    let g = generators::figure3();
    for root in g.nodes() {
        check_graph(&g, root, 50 + u64::from(root.0));
    }
}

#[test]
fn construction_under_lifo_schedule() {
    let g = generators::figure3();
    let nodes = construction_simulators(&g, NodeId(0), Encoding::binary()).unwrap();
    let mut sim = Simulation::new(g.clone(), nodes)
        .unwrap()
        .with_noise(FullCorruption::new(3))
        .with_scheduler(LifoScheduler);
    sim.run().unwrap();
    for v in g.nodes() {
        let node = sim.node(v);
        assert!(node.error().is_none(), "node {v}: {:?}", node.error());
        let cycle = node.cycle().expect("finished");
        cycle.validate(&g).unwrap();
        assert!(cycle.covers_all_edges(&g));
    }
}

#[test]
fn rejects_non_two_edge_connected() {
    let g = generators::barbell(3).unwrap();
    assert!(matches!(
        construction_simulators(&g, NodeId(0), Encoding::binary()),
        Err(fdn_core::CoreError::NotTwoEdgeConnected)
    ));
    let p = generators::path(4).unwrap();
    assert!(construction_simulators(&p, NodeId(0), Encoding::binary()).is_err());
}

#[test]
fn construction_output_is_reported_via_reactor_output() {
    let g = generators::cycle(4).unwrap();
    let nodes = construction_simulators(&g, NodeId(0), Encoding::binary()).unwrap();
    let mut sim = Simulation::new(g.clone(), nodes)
        .unwrap()
        .with_noise(FullCorruption::new(1));
    sim.run().unwrap();
    for v in g.nodes() {
        let cycle = sim.node(v).cycle().expect("construction finished");
        assert_eq!(cycle.len(), 4);
    }
}

#[test]
fn deterministic_for_fixed_seed() {
    let g = generators::figure1();
    let (c1, p1) = run_construction(&g, NodeId(0), 42);
    let (c2, p2) = run_construction(&g, NodeId(0), 42);
    assert_eq!(c1.seq(), c2.seq());
    assert_eq!(p1, p2);
}
