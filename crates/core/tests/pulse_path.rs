//! The pulse path against the content path.
//!
//! `FullSimulator` is a `PulseReactor`, so a plain simulation asks the noise
//! model only whether each pulse survives. A simulation that records a
//! transcript keeps the content path (`NoiseModel::deliver`), because the
//! transcript logs delivered bytes. Both must be the same run: the same
//! result, counters, outputs, errors and per-node pulse split, in every
//! engine mode and under alteration and deletion noise alike. A deletion
//! model whose survival decision drew differently from its delivery would
//! desynchronize the two runs at the first drop.

use fdn_core::{
    construction_simulators, cycle_simulators, full_simulators, replay_simulators,
    ConstructionCheckpoint, CoreError, Encoding, FullSimulator,
};
use fdn_graph::{generators, robbins, Graph, NodeId};
use fdn_netsim::{
    InnerProtocol, NoiseSpec, RunReport, SchedulerSpec, SimError, Simulation, StatsSnapshot,
};
use fdn_protocols::{FloodBroadcast, MaxIdLeaderElection};

type Protocol = Box<dyn InnerProtocol + Send>;
type Nodes = Vec<FullSimulator<Protocol>>;

/// Enough for every alteration-noise run here to finish; a deletion run that
/// stalls without quiescing stops at the same step on both paths.
const MAX_STEPS: u64 = 60_000;

/// Everything a run leaves behind that the two paths must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    run: Result<RunReport, SimError>,
    stats: StatsSnapshot,
    outputs: Vec<Option<Vec<u8>>>,
    errors: Vec<Option<CoreError>>,
    /// `(construction_pulses, online_pulses)` per node.
    pulses: Vec<(u64, u64)>,
}

fn run(
    graph: &Graph,
    nodes: Nodes,
    noise: NoiseSpec,
    scheduler: SchedulerSpec,
    transcript: bool,
) -> Outcome {
    let mut sim = Simulation::new(graph.clone(), nodes)
        .expect("one node per graph node")
        .with_noise_boxed(noise.build(7))
        .with_scheduler_boxed(scheduler.build(3))
        .with_max_steps(MAX_STEPS);
    if transcript {
        sim = sim.with_transcript();
    }
    let run = sim.run();
    assert_eq!(sim.transcript().is_some(), transcript);
    Outcome {
        run,
        stats: sim.stats().snapshot(),
        outputs: sim.outputs(),
        errors: sim.nodes().iter().map(|n| n.error().cloned()).collect(),
        pulses: sim
            .nodes()
            .iter()
            .map(|n| (n.construction_pulses(), n.online_pulses()))
            .collect(),
    }
}

#[test]
fn pulse_and_content_paths_give_the_same_run() {
    let graphs = [
        ("cycle(4)", generators::cycle(4).unwrap()),
        ("figure1", generators::figure1()),
        ("figure3", generators::figure3()),
    ];
    type Factory = fn(NodeId) -> Protocol;
    let workloads: [(&str, Factory); 2] = [
        ("flood", |v| {
            Box::new(FloodBroadcast::new(v, NodeId(0), vec![0xA5]))
        }),
        ("leader", |v| Box::new(MaxIdLeaderElection::new(v))),
    ];
    let noises: Vec<NoiseSpec> = NoiseSpec::BASIC
        .into_iter()
        .chain(NoiseSpec::DELETION)
        .collect();
    let schedulers = [SchedulerSpec::Random, SchedulerSpec::Lifo];
    let mut drops = 0;
    for (name, graph) in &graphs {
        let cycle = robbins::reference_robbins_cycle(graph, NodeId(0)).unwrap();
        let mut build = Simulation::new(
            graph.clone(),
            construction_simulators(graph, NodeId(0), Encoding::binary()).unwrap(),
        )
        .unwrap();
        build.run().unwrap();
        let (_, _, reactors) = build.into_parts();
        let checkpoint = ConstructionCheckpoint::capture(reactors).unwrap();
        for (workload, factory) in workloads {
            let modes: [(&str, &dyn Fn() -> Nodes); 3] = [
                ("full", &|| {
                    full_simulators(graph, NodeId(0), Encoding::binary(), factory).unwrap()
                }),
                ("cycle", &|| {
                    cycle_simulators(graph, &cycle, Encoding::binary(), factory).unwrap()
                }),
                ("replay", &|| {
                    replay_simulators(graph, &checkpoint, factory).unwrap()
                }),
            ];
            for (mode, nodes) in modes {
                for &noise in &noises {
                    for scheduler in schedulers {
                        let case = format!("{name} {mode} {workload} {noise} {scheduler}");
                        let pulse = run(graph, nodes(), noise, scheduler, false);
                        let content = run(graph, nodes(), noise, scheduler, true);
                        assert_eq!(pulse, content, "{case}");
                        if !noise.deletes() {
                            assert_eq!(pulse.run.map(|r| r.quiescent), Ok(true), "{case}");
                            assert!(pulse.errors.iter().all(Option::is_none), "{case}");
                        }
                        drops += pulse.stats.dropped_total;
                    }
                }
            }
        }
    }
    // The deletion models did delete, so the comparison covered drops.
    assert!(drops > 0);
}
