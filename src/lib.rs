//! # fully-defective
//!
//! A reproduction of **“Distributed Computations in Fully-Defective
//! Networks”** (Censor-Hillel, Cohen, Gelles, Sela — PODC 2022) as a Rust
//! library.
//!
//! A *fully-defective* network is an asynchronous message-passing network in
//! which **every** link may arbitrarily corrupt the content of **every**
//! message (alteration noise: nothing can be deleted or injected, but nothing
//! can be trusted either). The paper shows that any asynchronous algorithm
//! `π` designed for the noiseless network can still be executed, provided the
//! network is 2-edge-connected, by acting only on *which link* a pulse
//! arrived on and in *what order* — never on content. This workspace
//! implements the whole construction:
//!
//! * [`graph`] — graphs, generators, 2-edge-connectivity, ear
//!   decompositions, Robbins-cycle representations (a cycle's arcs are the
//!   Robbins orientation);
//! * [`netsim`] — a deterministic asynchronous network simulator with
//!   pluggable schedulers (asynchrony) and noise models (full corruption);
//! * [`protocols`] — workload protocols (broadcast, leader election,
//!   aggregation, gossip, …) usable both noiselessly and under simulation;
//! * [`core`] — the paper's contribution: the content-oblivious cycle engine
//!   (Algorithms 1–3), the distributed Robbins-cycle construction
//!   (Algorithms 4–6), the end-to-end Theorem 2 compiler and the §6
//!   impossibility harness;
//! * [`lab`] — the experiment-campaign engine: declarative scenario matrices
//!   (graph family × engine mode × encoding × workload × noise × scheduler ×
//!   seed), a parallel rayon sweep, and aggregated JSON/CSV/markdown reports
//!   (also available as the `fdn-lab` CLI).
//!
//! # Quickstart
//!
//! Run a broadcast over a fully-defective network in a few lines:
//!
//! ```
//! use fully_defective::prelude::*;
//!
//! // A 2-edge-connected network (the paper's Figure 3 example).
//! let g = fdn_graph::generators::figure3();
//!
//! // Theorem 2: build the Robbins cycle content-obliviously, then simulate π.
//! let nodes = fdn_core::full_simulators(&g, NodeId(0), Encoding::binary(), |v| {
//!     FloodBroadcast::new(v, NodeId(2), b"hello".to_vec())
//! })
//! .unwrap();
//!
//! // Total corruption on every link, adversarially random delivery order.
//! let mut sim = Simulation::new(g.clone(), nodes)
//!     .unwrap()
//!     .with_noise(FullCorruption::new(7))
//!     .with_scheduler(RandomScheduler::new(3));
//! sim.run().unwrap();
//!
//! for v in g.nodes() {
//!     assert_eq!(sim.node(v).output(), Some(b"hello".to_vec()));
//! }
//! ```

pub use fdn_core as core;
pub use fdn_graph as graph;
pub use fdn_lab as lab;
pub use fdn_netsim as netsim;
pub use fdn_protocols as protocols;

/// The most commonly used items, re-exported for convenient glob imports.
pub mod prelude {
    pub use fdn_core::{
        construction_simulators, cycle_simulators, full_simulators, CoreError, Encoding,
        FullSimulator, RobbinsEngine, WireMessage,
    };
    pub use fdn_graph::{
        connectivity, generators, robbins, Graph, GraphError, GraphFamily, LocalCycleView, NodeId,
        RobbinsCycle,
    };
    pub use fdn_lab::{
        diff_reports, run_campaign, run_scenario_with, Caches, Campaign, CampaignReport,
        DiffTolerance, EncodingSpec, EngineMode, LabError, ReportDiff, Scenario, SeedRange,
    };
    pub use fdn_netsim::{
        Burst, CrashLink, DirectRunner, FullCorruption, InnerProtocol, NoiseSpec, Noiseless,
        Omission, RandomScheduler, Reactor, SchedulerSpec, SimError, Simulation, Stats,
        StatsSnapshot,
    };
    pub use fdn_protocols::{
        EchoAggregate, FloodBroadcast, GossipAllToAll, MaxIdLeaderElection, TokenRingCounter,
        TwoPartySum, WorkloadSpec,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let g = generators::cycle(4).unwrap();
        assert!(connectivity::is_two_edge_connected(&g));
        let _ = Encoding::binary();
        let _ = NodeId(0);
        let _ = GraphFamily::Petersen;
        let _ = (
            NoiseSpec::FullCorruption,
            SchedulerSpec::Random,
            WorkloadSpec::Leader,
        );
        assert!(Campaign::new("prelude").scenario_count() > 0);
    }
}
