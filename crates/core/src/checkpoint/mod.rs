//! The construct-once checkpoint: freezing the Theorem 2 pipeline at the
//! construction/online boundary.
//!
//! The paper splits the cost of Theorem 2 into a one-time content-oblivious
//! construction (`CCinit`) and a per-message online overhead, and treats the
//! constructed Robbins cycle as a **reusable asset**: once built, any number
//! of subsequent computations ride on it for free. A [`FullSimulator`] run,
//! however, fuses both phases into one simulation, so a sweep that wants the
//! online overhead at many seeds re-pays the (steep, Lemma 19-sized)
//! construction every time.
//!
//! [`ConstructionCheckpoint`] captures exactly what survives the boundary
//! from a finished construction-only run
//! ([`crate::construction::construction_simulators`]): the learned
//! [`RobbinsCycle`] and, per node, the idle [`RobbinsEngine`] over it —
//! rotated views, token position and pulse counters frozen at the instant
//! the construction terminated — plus each node's share of `CCinit`.
//! [`replay_simulators`] then starts a fresh set of [`FullSimulator`]s
//! directly in the online phase from (clones of) that state, all sharing
//! the checkpoint's one copy of the cycle, so the online phase can be
//! replayed under arbitrarily many noise/scheduler seeds without ever
//! re-running the construction.
//!
//! Soundness: the captured engines must be **idle** (token phase entry
//! point, empty queue, no unconsumed pulse — the quiescence condition of
//! Theorems 6/12) and exactly one node may hold the token. [`capture`]
//! verifies both, plus that every node learned the *same* cycle, so a
//! checkpoint is only ever taken at a genuine quiescent boundary — never in
//! the middle of an epoch.
//!
//! [`capture`]: ConstructionCheckpoint::capture

use std::sync::Arc;

use fdn_graph::{Graph, NodeId, RobbinsCycle};
use fdn_netsim::InnerProtocol;

use crate::engine::RobbinsEngine;
use crate::error::CoreError;
use crate::full::FullSimulator;

mod serial;

pub use serial::{decode_checkpoint, encode_checkpoint, fnv1a64, CHECKPOINT_FORMAT_VERSION};

/// The frozen construction/online boundary of one node: its idle engine over
/// the final cycle and its share of `CCinit`.
#[derive(Debug, Clone)]
pub struct NodeCheckpoint {
    engine: RobbinsEngine,
    construction_pulses: u64,
}

impl NodeCheckpoint {
    /// The node this checkpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.engine.node()
    }

    /// Pulses this node sent during the construction (its share of
    /// `CCinit`).
    pub fn construction_pulses(&self) -> u64 {
        self.construction_pulses
    }

    /// A fresh copy of the boundary engine, ready to be driven through an
    /// online phase.
    pub fn engine(&self) -> RobbinsEngine {
        self.engine.clone()
    }
}

/// The whole network's state at the construction/online boundary, captured
/// once and replayed across arbitrarily many online runs.
#[derive(Debug, Clone)]
pub struct ConstructionCheckpoint {
    /// The learned cycle, shared with every node a replay starts.
    cycle: Arc<RobbinsCycle>,
    /// One checkpoint per node, indexed by node id.
    nodes: Vec<NodeCheckpoint>,
    cc_init: u64,
}

impl ConstructionCheckpoint {
    /// Captures the boundary from the nodes of a finished construction run
    /// (one per node, any order), typically those of
    /// [`construction_simulators`](crate::construction::construction_simulators)
    /// after the simulation reached quiescence.
    ///
    /// # Errors
    ///
    /// Returns an error if any node has not finished its construction or
    /// latched an error, the nodes disagree on the constructed cycle, an
    /// engine is not idle, or the token is held by anything but exactly one
    /// node.
    pub fn capture<P: InnerProtocol>(
        sims: Vec<FullSimulator<P>>,
    ) -> Result<ConstructionCheckpoint, CoreError> {
        if sims.is_empty() {
            return Err(CoreError::ProtocolViolation(
                "checkpoint capture needs at least one construction node".into(),
            ));
        }
        let mut nodes: Vec<Option<NodeCheckpoint>> = (0..sims.len()).map(|_| None).collect();
        let mut cycle: Option<Arc<RobbinsCycle>> = None;
        let mut cc_init = 0u64;
        let mut holders = 0usize;
        for sim in sims {
            let construction_pulses = sim.construction_pulses();
            let (node_cycle, engine) = sim.into_boundary()?;
            let node = engine.node();
            match &cycle {
                None => cycle = Some(node_cycle),
                Some(c) if *c == node_cycle => {}
                Some(_) => {
                    return Err(CoreError::ProtocolViolation(format!(
                        "node {node} learned a different cycle than its peers"
                    )))
                }
            }
            if !engine.is_idle() {
                return Err(CoreError::ProtocolViolation(format!(
                    "node {node} is not idle at the construction/online boundary"
                )));
            }
            if engine.is_token_holder() {
                holders += 1;
            }
            let slot = nodes
                .get_mut(node.index())
                .ok_or(CoreError::NodeOutOfRange { node })?;
            if slot.is_some() {
                return Err(CoreError::ProtocolViolation(format!(
                    "two construction nodes claim node {node}"
                )));
            }
            cc_init += construction_pulses;
            *slot = Some(NodeCheckpoint {
                engine,
                construction_pulses,
            });
        }
        if holders != 1 {
            return Err(CoreError::ProtocolViolation(format!(
                "{holders} token holders at the boundary (exactly one expected)"
            )));
        }
        let nodes = nodes
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| {
                CoreError::ProtocolViolation("construction nodes do not cover 0..n".into())
            })?;
        Ok(ConstructionCheckpoint {
            cycle: cycle.expect("nodes were non-empty"),
            nodes,
            cc_init,
        })
    }

    /// Reassembles a checkpoint from decoded parts, re-running the
    /// [`capture`](Self::capture) validation so a deserialized checkpoint is
    /// held to exactly the same quiescence contract as a captured one:
    /// engines idle, exactly one token holder, nodes covering `0..n` in
    /// order, and every node's (rotated) view consistent with the cycle.
    /// `cc_init` is recomputed from the per-node shares, never trusted from
    /// the wire.
    fn from_parts(
        cycle: RobbinsCycle,
        nodes: Vec<NodeCheckpoint>,
    ) -> Result<ConstructionCheckpoint, CoreError> {
        if nodes.is_empty() {
            return Err(CoreError::MalformedCheckpoint(
                "checkpoint covers no nodes".into(),
            ));
        }
        let mut cc_init = 0u64;
        let mut holders = 0usize;
        for (i, ckpt) in nodes.iter().enumerate() {
            let node = ckpt.node();
            if node.index() != i {
                return Err(CoreError::MalformedCheckpoint(format!(
                    "node {node} stored at checkpoint slot {i}"
                )));
            }
            if !ckpt.engine.is_idle() {
                return Err(CoreError::MalformedCheckpoint(format!(
                    "node {node} is not idle at the construction/online boundary"
                )));
            }
            if ckpt.engine.is_token_holder() {
                holders += 1;
            }
            // The stored view must be a rotation of the cycle's canonical
            // local view (RotateEdges only permutes occurrence order, so the
            // occurrence multiset is rotation-invariant).
            let canonical = cycle.local_view(node).ok_or_else(|| {
                CoreError::MalformedCheckpoint(format!("node {node} does not occur on the cycle"))
            })?;
            let key = |o: &fdn_graph::cycle::Occurrence| (o.prev.0, o.next.0);
            let mut stored: Vec<_> = ckpt.engine.view().occurrences().iter().map(key).collect();
            let mut expected: Vec<_> = canonical.occurrences().iter().map(key).collect();
            stored.sort_unstable();
            expected.sort_unstable();
            if stored != expected {
                return Err(CoreError::MalformedCheckpoint(format!(
                    "node {node}'s view is inconsistent with the stored cycle"
                )));
            }
            cc_init = cc_init
                .checked_add(ckpt.construction_pulses)
                .ok_or_else(|| {
                    CoreError::MalformedCheckpoint("per-node CCinit shares overflow u64".into())
                })?;
        }
        if holders != 1 {
            return Err(CoreError::MalformedCheckpoint(format!(
                "{holders} token holders at the boundary (exactly one expected)"
            )));
        }
        Ok(ConstructionCheckpoint {
            cycle: Arc::new(cycle),
            nodes,
            cc_init,
        })
    }

    /// The Robbins cycle the construction settled on.
    pub fn cycle(&self) -> &RobbinsCycle {
        &self.cycle
    }

    /// Total pulses spent on the construction across all nodes — the paper's
    /// `CCinit`, paid exactly once per checkpoint.
    pub fn cc_init(&self) -> u64 {
        self.cc_init
    }

    /// Number of nodes captured.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node whose boundary engine holds the cycle token ([`capture`]
    /// validated there is exactly one). Observers and stall diagnostics use
    /// this to seed token-circulation tracking for replayed runs.
    ///
    /// [`capture`]: Self::capture
    pub fn token_holder(&self) -> NodeId {
        self.nodes
            .iter()
            .find(|n| n.engine.is_token_holder())
            .map(NodeCheckpoint::node)
            .expect("capture validated exactly one token holder")
    }

    /// The per-node boundary states, indexed by node id.
    pub fn nodes(&self) -> &[NodeCheckpoint] {
        &self.nodes
    }
}

/// Builds one online-phase [`FullSimulator`] per node of `graph`,
/// warm-started from `checkpoint` — the replay counterpart of
/// [`crate::full::full_simulators`]. The construction is **not** re-run:
/// each node starts with a clone of its boundary engine (rotated views,
/// token position), the checkpoint's shared learned cycle, its
/// `construction_pulses` pre-credited from the checkpoint, and the inner
/// protocol fresh; every pulse the returned reactors send is online-phase
/// traffic.
///
/// # Errors
///
/// Returns an error if the checkpoint does not cover exactly the nodes of
/// `graph`.
pub fn replay_simulators<P, F>(
    graph: &Graph,
    checkpoint: &ConstructionCheckpoint,
    mut factory: F,
) -> Result<Vec<FullSimulator<P>>, CoreError>
where
    P: InnerProtocol,
    F: FnMut(NodeId) -> P,
{
    if checkpoint.node_count() != graph.node_count() {
        return Err(CoreError::ProtocolViolation(format!(
            "checkpoint covers {} nodes but the graph has {}",
            checkpoint.node_count(),
            graph.node_count()
        )));
    }
    Ok(graph
        .nodes()
        .map(|v| {
            let ckpt = &checkpoint.nodes[v.index()];
            FullSimulator::online(
                v,
                graph.neighbors(v).to_vec(),
                ckpt.engine(),
                Arc::clone(&checkpoint.cycle),
                ckpt.construction_pulses(),
                factory(v),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::construction_simulators;
    use crate::encoding::Encoding;
    use fdn_graph::generators;
    use fdn_netsim::{FullCorruption, Simulation};

    /// Runs the distributed construction from node 0 to completion under
    /// full corruption and returns the finished nodes.
    pub(crate) fn run_construction(graph: &Graph, encoding: Encoding) -> Vec<FullSimulator<()>> {
        let nodes = construction_simulators(graph, NodeId(0), encoding).unwrap();
        let mut sim = Simulation::new(graph.clone(), nodes)
            .unwrap()
            .with_noise(FullCorruption::new(1));
        sim.run().expect("construction did not terminate");
        let (_, _, nodes) = sim.into_parts();
        for node in &nodes {
            assert!(node.error().is_none(), "{:?}", node.error());
        }
        nodes
    }

    #[test]
    fn capture_freezes_a_quiescent_boundary() {
        let g = generators::figure3();
        let nodes = run_construction(&g, Encoding::binary());
        let cc: u64 = nodes.iter().map(FullSimulator::construction_pulses).sum();
        let ckpt = ConstructionCheckpoint::capture(nodes).unwrap();
        assert_eq!(ckpt.node_count(), g.node_count());
        assert_eq!(ckpt.cc_init(), cc);
        assert!(ckpt.cc_init() > 0);
        assert!(ckpt.cycle().covers_all_edges(&g));
        assert!(ckpt.cycle().validate(&g).is_ok());
        // Exactly one node holds the token; every engine is idle.
        let holders = ckpt
            .nodes()
            .iter()
            .filter(|n| n.engine().is_token_holder())
            .count();
        assert_eq!(holders, 1);
        assert!(ckpt.nodes()[ckpt.token_holder().index()]
            .engine()
            .is_token_holder());
        for (i, n) in ckpt.nodes().iter().enumerate() {
            assert_eq!(n.node(), NodeId(i as u32));
            assert!(n.engine().is_idle());
        }
        assert_eq!(
            ckpt.nodes()
                .iter()
                .map(NodeCheckpoint::construction_pulses)
                .sum::<u64>(),
            cc
        );
    }

    #[test]
    fn capture_rejects_unfinished_drivers() {
        let g = generators::figure3();
        let unstarted = construction_simulators(&g, NodeId(0), Encoding::binary()).unwrap();
        assert!(ConstructionCheckpoint::capture(unstarted).is_err());
        assert!(ConstructionCheckpoint::capture(Vec::<FullSimulator<()>>::new()).is_err());
    }

    #[test]
    fn replay_simulators_require_a_matching_graph() {
        let g = generators::figure3();
        let ckpt =
            ConstructionCheckpoint::capture(run_construction(&g, Encoding::binary())).unwrap();
        let other = generators::cycle(4).unwrap();
        let res = replay_simulators(&other, &ckpt, |v| {
            fdn_protocols::FloodBroadcast::new(v, NodeId(0), vec![1])
        });
        assert!(res.is_err());
    }
}
