//! Rebuilding one scenario's simulation the way `fdn_lab::runner` builds
//! it: same reactors, same warm-started link table in replay mode, same
//! seed-salted noise and scheduler. The traced run checks that a rebuilt
//! simulation ends in the runner's exact `StatsSnapshot`, so a drift here
//! cannot go unnoticed.

use fdn_core::{cycle_simulators_prevalidated, full_simulators, replay_simulators};
use fdn_graph::Graph;
use fdn_lab::{Caches, EngineMode, ReplayKey, Scenario};
use fdn_netsim::{LinkStore, LinkTable, NoiseModel, Observer, Reactor, Scheduler, Simulation};
use fdn_protocols::WorkloadSpec;

use crate::{NOISE_SALT, SCHED_SALT};

/// Everything a scenario's simulation is built from, apart from the
/// reactors.
#[derive(Debug)]
pub struct Setup {
    /// The scenario.
    pub scenario: Scenario,
    /// The communication graph.
    pub graph: Graph,
    /// The registered link table replay mode warm-starts from.
    pub warm_links: Option<LinkTable>,
}

impl Setup {
    /// A fresh noise model, seeded as the runner seeds it.
    pub fn noise(&self) -> Box<dyn NoiseModel> {
        self.scenario
            .cell
            .noise
            .build(self.scenario.seed ^ NOISE_SALT)
    }

    /// A fresh scheduler, seeded as the runner seeds it.
    pub fn scheduler(&self) -> Box<dyn Scheduler> {
        self.scenario
            .cell
            .scheduler
            .build(self.scenario.seed ^ SCHED_SALT)
    }

    /// The link store the scenario's simulation runs on.
    pub fn link_store(&self) -> LinkStore {
        self.scenario.link_store
    }

    /// The scenario's simulation over `reactors`, with `observer` attached.
    ///
    /// # Errors
    ///
    /// Returns the simulator's construction error as text.
    pub fn simulation<R: Reactor, O: Observer>(
        &self,
        reactors: Vec<R>,
        observer: O,
    ) -> Result<Simulation<R, O>, String> {
        let built = match &self.warm_links {
            Some(links) => Simulation::from_parts(self.graph.clone(), links.clone(), reactors),
            None => Simulation::new(self.graph.clone(), reactors),
        }
        .map_err(|e| e.to_string())?;
        Ok(built
            .with_link_store(self.link_store())
            .with_observer(observer)
            .with_noise_boxed(self.noise())
            .with_scheduler_boxed(self.scheduler())
            .with_max_steps(self.scenario.max_steps))
    }
}

/// Something to do with a scenario's reactors, whatever their type.
pub trait WithReactors {
    /// The result.
    type Output;
    /// Called with the setup and a factory of fresh reactor sets.
    fn run<R: Reactor>(self, setup: &Setup, make: &dyn Fn() -> Vec<R>) -> Self::Output;
}

/// Builds `scenario`'s setup from `caches` (as the runner does) and hands it,
/// with a reactor factory of the scenario's engine mode, to `job`.
///
/// # Errors
///
/// Returns the failure the runner would have recorded for the scenario.
pub fn with_reactors<J: WithReactors>(
    caches: &Caches,
    scenario: Scenario,
    job: J,
) -> Result<J::Output, String> {
    let cell = scenario.cell;
    let topo = caches.topology.get(cell.family)?;
    let graph = &topo.graph;
    let encoding = cell.encoding.build();
    let factory = |v| cell.workload.build(graph, v);
    let mut setup = Setup {
        scenario,
        graph: graph.clone(),
        warm_links: None,
    };
    match cell.mode {
        EngineMode::Full => {
            full_simulators(graph, WorkloadSpec::ROOT, encoding, factory)
                .map_err(|e| e.to_string())?;
            Ok(job.run(&setup, &|| {
                full_simulators(graph, WorkloadSpec::ROOT, encoding, factory)
                    .expect("built once already")
            }))
        }
        EngineMode::CycleOnly => {
            let cycle = topo.cycle.as_ref().map_err(Clone::clone)?;
            cycle_simulators_prevalidated(graph, cycle, encoding, factory)
                .map_err(|e| e.to_string())?;
            Ok(job.run(&setup, &|| {
                cycle_simulators_prevalidated(graph, cycle, encoding, factory)
                    .expect("built once already")
            }))
        }
        EngineMode::Replay => {
            let construction = caches
                .construction
                .get(&caches.topology, replay_key(&scenario))?;
            replay_simulators(graph, &construction.checkpoint, factory)
                .map_err(|e| e.to_string())?;
            setup.warm_links = Some(construction.links.clone());
            Ok(job.run(&setup, &|| {
                replay_simulators(graph, &construction.checkpoint, factory)
                    .expect("built once already")
            }))
        }
    }
}

/// The construct-once key of a replay scenario.
pub fn replay_key(scenario: &Scenario) -> ReplayKey {
    ReplayKey {
        family: scenario.cell.family,
        encoding: scenario.cell.encoding,
        scheduler: scenario.cell.scheduler,
        construction_seed: scenario.construction_seed,
    }
}
