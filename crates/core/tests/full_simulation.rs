//! End-to-end tests for the Theorem 2 compiler: construct a Robbins cycle on
//! the fully-defective network, then simulate the inner protocol over it, and
//! check that every node's output matches the noiseless baseline execution.

use fdn_core::full::full_simulators;
use fdn_core::{CoreError, Encoding};
use fdn_graph::{generators, Graph, NodeId};
use fdn_netsim::{FullCorruption, Observer, PhaseEvent, PhaseMarker, RandomScheduler, Simulation};
use fdn_protocols::util::{decode_u64, run_direct};
use fdn_protocols::{EchoAggregate, FloodBroadcast, GossipAllToAll, MaxIdLeaderElection};

/// Runs the Theorem-2 simulator for a protocol factory on a fully-defective
/// network and returns the per-node outputs.
fn run_full<P, F>(graph: &Graph, factory: F, seed: u64) -> Vec<Option<Vec<u8>>>
where
    P: fdn_netsim::InnerProtocol,
    F: FnMut(NodeId) -> P,
{
    let nodes =
        full_simulators(graph, NodeId(0), Encoding::binary(), factory).expect("valid input");
    let mut sim = Simulation::new(graph.clone(), nodes)
        .expect("node count matches")
        .with_noise(FullCorruption::new(seed))
        .with_scheduler(RandomScheduler::new(seed.wrapping_mul(31).wrapping_add(7)));
    sim.run().expect("simulation failed");
    for v in graph.nodes() {
        assert!(
            sim.node(v).error().is_none(),
            "node {v} error: {:?}",
            sim.node(v).error()
        );
        assert!(
            sim.node(v).is_online(),
            "node {v} never finished the construction"
        );
    }
    sim.outputs()
}

#[test]
fn broadcast_matches_baseline_on_figure3() {
    let g = generators::figure3();
    let value = vec![0xC0, 0x01];
    let baseline = run_direct(&g, |v| FloodBroadcast::new(v, NodeId(2), value.clone()), 0).unwrap();
    for seed in 0..3u64 {
        let defective = run_full(
            &g,
            |v| FloodBroadcast::new(v, NodeId(2), value.clone()),
            seed,
        );
        assert_eq!(defective, baseline, "seed {seed}");
    }
}

#[test]
fn broadcast_matches_baseline_on_random_graphs() {
    for seed in 0..3u64 {
        let g = generators::random_two_edge_connected(7, 3, seed).unwrap();
        let value = vec![seed as u8, 0xAB];
        let baseline =
            run_direct(&g, |v| FloodBroadcast::new(v, NodeId(1), value.clone()), 0).unwrap();
        let defective = run_full(
            &g,
            |v| FloodBroadcast::new(v, NodeId(1), value.clone()),
            seed,
        );
        assert_eq!(defective, baseline, "seed {seed}");
    }
}

#[test]
fn leader_election_agrees_with_baseline() {
    let g = generators::figure1();
    let priorities = [12u64, 99, 5, 40, 63];
    let baseline = run_direct(
        &g,
        |v| MaxIdLeaderElection::with_candidate(priorities[v.index()]),
        1,
    )
    .unwrap();
    let defective = run_full(
        &g,
        |v| MaxIdLeaderElection::with_candidate(priorities[v.index()]),
        11,
    );
    assert_eq!(defective, baseline);
    for out in defective {
        assert_eq!(decode_u64(&out.unwrap()), 99);
    }
}

#[test]
fn echo_aggregation_computes_the_global_sum() {
    let g = generators::theta(1, 1, 2).unwrap();
    let inputs: Vec<u64> = g.nodes().map(|v| u64::from(v.0) * 3 + 1).collect();
    let expected: u64 = inputs.iter().sum();
    let outputs = run_full(
        &g,
        |v| EchoAggregate::new(v, NodeId(0), inputs[v.index()]),
        5,
    );
    assert_eq!(decode_u64(outputs[0].as_ref().unwrap()), expected);
}

#[test]
fn gossip_all_to_all_over_fully_defective_network() {
    let g = generators::figure3();
    let n = g.node_count();
    let expected: Vec<u8> = (0..n as u64)
        .flat_map(|i| (i + 7).to_be_bytes().to_vec())
        .collect();
    let outputs = run_full(&g, |v| GossipAllToAll::new(v, n, u64::from(v.0) + 7), 3);
    for (v, out) in outputs.iter().enumerate() {
        assert_eq!(out.as_deref(), Some(&expected[..]), "node {v}");
    }
}

#[test]
fn cc_init_is_positive_and_cycle_is_agreed() {
    let g = generators::figure3();
    let nodes = full_simulators(&g, NodeId(0), Encoding::binary(), |v| {
        FloodBroadcast::new(v, NodeId(0), vec![1])
    })
    .unwrap();
    let mut sim = Simulation::new(g.clone(), nodes)
        .unwrap()
        .with_noise(FullCorruption::new(2))
        .with_scheduler(RandomScheduler::new(4));
    sim.run().unwrap();
    let mut cycles = Vec::new();
    for v in g.nodes() {
        let node = sim.node(v);
        assert!(
            node.construction_pulses() > 0,
            "node {v} sent no pre-processing pulses"
        );
        cycles.push(node.cycle().expect("online").clone());
    }
    for c in &cycles {
        assert_eq!(c.seq(), cycles[0].seq());
        c.validate(&g).unwrap();
        assert!(c.covers_all_edges(&g));
    }
}

#[test]
fn rejects_non_two_edge_connected_networks() {
    let g = generators::two_party();
    let res = full_simulators(&g, NodeId(0), Encoding::binary(), |v| {
        FloodBroadcast::new(v, NodeId(0), vec![1])
    });
    assert!(matches!(res, Err(CoreError::NotTwoEdgeConnected)));

    let g = generators::barbell(3).unwrap();
    let res = full_simulators(&g, NodeId(0), Encoding::binary(), |v| {
        FloodBroadcast::new(v, NodeId(0), vec![1])
    });
    assert!(matches!(res, Err(CoreError::NotTwoEdgeConnected)));
}

#[test]
fn rejects_bad_root_and_oversized_graphs() {
    let g = generators::cycle(4).unwrap();
    assert!(full_simulators(&g, NodeId(17), Encoding::binary(), |v| {
        FloodBroadcast::new(v, NodeId(0), vec![1])
    })
    .is_err());
}

/// Logs every phase marker of a run, in emission order.
#[derive(Default)]
struct MarkerLog(Vec<PhaseMarker>);

impl Observer for MarkerLog {
    fn on_marker(&mut self, marker: PhaseMarker, _deliveries: u64) {
        self.0.push(marker);
    }
}

#[test]
fn full_runs_mark_one_construction_start_and_end_per_node() {
    let g = generators::figure3();
    let value = vec![0xAB, 0xCD];
    let nodes = full_simulators(&g, NodeId(0), Encoding::binary(), |v| {
        FloodBroadcast::new(v, NodeId(2), value.clone())
    })
    .unwrap();
    let mut sim = Simulation::new(g.clone(), nodes)
        .unwrap()
        .with_noise(FullCorruption::new(3))
        .with_scheduler(RandomScheduler::new(9))
        .with_observer(MarkerLog::default());
    sim.run().unwrap();
    for v in g.nodes() {
        let node = sim.node(v);
        assert!(node.is_online(), "node {v} never finished construction");
        assert_eq!(node.stage(), "online");
    }
    let events: Vec<PhaseEvent> = sim.observer().0.iter().map(|m| m.event).collect();
    let count = |e: PhaseEvent| events.iter().filter(|&&x| x == e).count();
    assert_eq!(count(PhaseEvent::ConstructionStart), g.node_count());
    assert_eq!(count(PhaseEvent::ConstructionQuiescence), g.node_count());
    assert!(count(PhaseEvent::TokenAcquired) >= 1);
    assert!(count(PhaseEvent::OnlineWindow) >= 1);
    assert_eq!(count(PhaseEvent::ReplayWarmStart), 0);
    // Every node starts its construction before it ends it.
    for v in g.nodes() {
        let of_node: Vec<PhaseEvent> = sim
            .observer()
            .0
            .iter()
            .filter(|m| m.node == v && m.event.is_construction())
            .map(|m| m.event)
            .collect();
        assert_eq!(
            of_node,
            [
                PhaseEvent::ConstructionStart,
                PhaseEvent::ConstructionQuiescence
            ],
            "node {v}"
        );
    }
    // Exactly one node holds the token at quiescence.
    let holders = g.nodes().filter(|&v| sim.node(v).holds_token()).count();
    assert_eq!(holders, 1);
}

#[test]
fn replayed_runs_emit_warm_start_markers_and_no_construction_markers() {
    use fdn_core::{construction_simulators, replay_simulators, ConstructionCheckpoint};
    let g = generators::figure3();
    let nodes = construction_simulators(&g, NodeId(0), Encoding::binary()).unwrap();
    let mut build = Simulation::new(g.clone(), nodes)
        .unwrap()
        .with_noise(FullCorruption::new(5))
        .with_scheduler(RandomScheduler::new(11));
    build.run().unwrap();
    let (_, _, reactors) = build.into_parts();
    let checkpoint = ConstructionCheckpoint::capture(reactors).unwrap();
    let holder = checkpoint.token_holder();

    let value = vec![0x5A];
    let sims = replay_simulators(&g, &checkpoint, |v| {
        FloodBroadcast::new(v, NodeId(1), value.clone())
    })
    .unwrap();
    let mut sim = Simulation::new(g.clone(), sims)
        .unwrap()
        .with_noise(FullCorruption::new(6))
        .with_scheduler(RandomScheduler::new(13))
        .with_observer(MarkerLog::default());
    sim.run().unwrap();
    let events: Vec<(PhaseEvent, NodeId)> =
        sim.observer().0.iter().map(|m| (m.event, m.node)).collect();
    // Replay never constructs: warm-start markers only, one per node.
    assert!(events.iter().all(|&(e, _)| !e.is_construction()));
    let warm = events
        .iter()
        .filter(|&&(e, _)| e == PhaseEvent::ReplayWarmStart)
        .count();
    assert_eq!(warm, g.node_count());
    // The checkpointed token holder announces itself at warm start.
    assert!(events
        .iter()
        .any(|&(e, v)| e == PhaseEvent::TokenAcquired && v == holder));
}

#[test]
fn cycle_mode_runs_emit_token_markers_and_no_construction_markers() {
    use fdn_core::cycle_simulators;
    use fdn_graph::robbins;
    use fdn_netsim::Reactor;
    let g = generators::figure3();
    let cycle = robbins::reference_robbins_cycle(&g, NodeId(0)).unwrap();
    let value = vec![0x3C];
    let sims = cycle_simulators(&g, &cycle, Encoding::binary(), |v| {
        FloodBroadcast::new(v, NodeId(1), value.clone())
    })
    .unwrap();
    let mut sim = Simulation::new(g.clone(), sims)
        .unwrap()
        .with_noise(FullCorruption::new(6))
        .with_scheduler(RandomScheduler::new(13))
        .with_observer(MarkerLog::default());
    sim.run().unwrap();
    let events: Vec<PhaseEvent> = sim.observer().0.iter().map(|m| m.event).collect();
    // The token circulates: nodes announce taking and passing it on, and
    // the broadcast opens online windows.
    assert!(events.contains(&PhaseEvent::TokenAcquired));
    assert!(events.contains(&PhaseEvent::TokenReleased));
    assert!(events.contains(&PhaseEvent::OnlineWindow));
    // No construction ran and none was paid before the run: no
    // construction markers and no warm start.
    assert!(events.iter().all(|e| !e.is_construction()));
    assert!(!events.contains(&PhaseEvent::ReplayWarmStart));
    for v in g.nodes() {
        let node = sim.node(v);
        assert_eq!(node.output(), Some(value.clone()), "node {v}");
        assert_eq!(node.construction_pulses(), 0);
        assert!(node.online_pulses() > 0, "node {v} sent nothing");
    }
}
