//! The reactor of every engine mode: the Theorem 2 pipeline at one node.
//!
//! [`FullSimulator`] runs the paper's end-to-end compiler — construct a
//! Robbins cycle over the fully-defective network, then simulate the user's
//! protocol over it — and a node may start at either end of the pipeline:
//!
//! * **constructing** ([`full_simulators`]) — the content-oblivious
//!   Robbins-cycle construction of Algorithm 4 ([`crate::construction`])
//!   runs first, and messages the inner protocol emits meanwhile are
//!   buffered. A construction-only run is this start over the silent
//!   protocol `()` ([`crate::construction::construction_simulators`]);
//! * **online** — a given engine over a given cycle carries the inner
//!   protocol's messages from the first event: a fresh engine over a cycle
//!   computed elsewhere ([`crate::reactors::cycle_simulators`], the
//!   Theorem 4 and 10 simulator), or the boundary engine of a finished
//!   construction ([`crate::checkpoint::replay_simulators`]).
//!
//! Once online, the engine over the final cycle carries the inner
//! protocol's messages exactly as in Theorem 10. The split also gives the
//! paper's cost accounting: [`FullSimulator::construction_pulses`] is the
//! node's share of `CCinit`, and everything after is `CCoverhead`.

use std::sync::Arc;

use fdn_graph::{connectivity, Graph, NodeId, RobbinsCycle};
use fdn_netsim::{Context, InnerProtocol, PhaseEvent, ProtocolIo, Reactor};

use crate::construction::ConstructionNode;
use crate::encoding::Encoding;
use crate::engine::RobbinsEngine;
use crate::error::CoreError;
use crate::reactors::pulse_payload;
use crate::wire::WireMessage;

/// Where a node is in the Theorem 2 pipeline.
#[derive(Debug)]
#[expect(
    clippy::large_enum_variant,
    reason = "every node ends online, and the online engine stays inline on the per-delivery path"
)]
enum Stage {
    /// Pre-processing: building the Robbins cycle. Boxed, because the
    /// construction state is larger than the whole rest of the node and
    /// nodes that start online never carry it.
    Constructing(Box<Construction>),
    /// Online: simulating the inner protocol over the settled cycle.
    Online {
        /// The engine over `cycle`.
        engine: RobbinsEngine,
        /// The cycle, shared by every node that started online on it.
        cycle: Arc<RobbinsCycle>,
    },
    /// The construction ended in an error, latched in the node's `error`.
    Failed,
}

/// A node's pre-processing state.
#[derive(Debug)]
struct Construction {
    driver: ConstructionNode,
    /// The inner protocol's messages, held back until the node is online.
    buffered: Vec<WireMessage>,
}

/// The Theorem 2 simulator for one node: Robbins-cycle construction followed
/// by the online simulation of the inner protocol `π`.
#[derive(Debug)]
pub struct FullSimulator<P> {
    node: NodeId,
    graph_neighbors: Vec<NodeId>,
    inner: P,
    stage: Stage,
    construction_pulses: u64,
    /// The engine's pulse counter when the node went online: its
    /// pre-processing pulses, which `construction_pulses` already counts.
    engine_baseline: u64,
    error: Option<CoreError>,
}

impl<P: InnerProtocol> FullSimulator<P> {
    /// Creates a node that starts with the construction. Exactly one node of
    /// the network must be created with `designated_root = true`.
    ///
    /// # Errors
    ///
    /// Propagates construction-driver creation errors.
    pub fn new(
        node: NodeId,
        graph_neighbors: Vec<NodeId>,
        designated_root: bool,
        encoding: Encoding,
        inner: P,
    ) -> Result<Self, CoreError> {
        let driver =
            ConstructionNode::new(node, graph_neighbors.clone(), designated_root, encoding)?;
        Ok(FullSimulator {
            node,
            graph_neighbors,
            inner,
            stage: Stage::Constructing(Box::new(Construction {
                driver,
                buffered: Vec::new(),
            })),
            construction_pulses: 0,
            engine_baseline: 0,
            error: None,
        })
    }

    /// Creates a node that starts **online**: `engine` is the node's idle
    /// engine over `cycle`, and `construction_pulses` its share of a
    /// `CCinit` paid before this simulation (0 for a cycle no distributed
    /// construction produced). No construction runs; every pulse this
    /// reactor sends is online-phase traffic (its
    /// [`online_pulses`](Self::online_pulses) counter starts at 0).
    pub(crate) fn online(
        node: NodeId,
        graph_neighbors: Vec<NodeId>,
        engine: RobbinsEngine,
        cycle: Arc<RobbinsCycle>,
        construction_pulses: u64,
        inner: P,
    ) -> Self {
        FullSimulator {
            node,
            graph_neighbors,
            inner,
            engine_baseline: engine.pulses_sent(),
            stage: Stage::Online { engine, cycle },
            construction_pulses,
            error: None,
        }
    }

    /// Read access to the wrapped inner protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Whether the pre-processing phase has finished at this node (always
    /// true for a node that started online).
    pub fn is_online(&self) -> bool {
        self.engine().is_some()
    }

    /// The Robbins cycle this node runs on (available once online).
    pub fn cycle(&self) -> Option<&RobbinsCycle> {
        match &self.stage {
            Stage::Online { cycle, .. } => Some(cycle),
            Stage::Constructing(_) | Stage::Failed => None,
        }
    }

    /// Pulses sent by this node during the construction (its share of
    /// `CCinit`).
    pub fn construction_pulses(&self) -> u64 {
        self.construction_pulses
    }

    /// Pulses sent by this node during the online phase so far.
    pub fn online_pulses(&self) -> u64 {
        self.engine()
            .map_or(0, |e| e.pulses_sent() - self.engine_baseline)
    }

    /// Whether this node's engine currently holds the cycle token (always
    /// `false` before the node is online).
    pub fn holds_token(&self) -> bool {
        self.engine().is_some_and(RobbinsEngine::is_token_holder)
    }

    /// Coarse, render-stable label of the node's current stage — the
    /// construction stage while pre-processing, `"online"` afterwards. Used
    /// by stall diagnostics and traces; never parsed back.
    pub fn stage(&self) -> &'static str {
        match &self.stage {
            Stage::Constructing(c) => c.driver.stage(),
            Stage::Online { .. } => "online",
            Stage::Failed => "construction",
        }
    }

    /// The first error observed, if any.
    pub fn error(&self) -> Option<&CoreError> {
        self.error.as_ref().or_else(|| match &self.stage {
            Stage::Constructing(c) => c.driver.error(),
            Stage::Online { engine, .. } => engine.error(),
            Stage::Failed => None,
        })
    }

    /// Consumes a node that finished its construction and returns what
    /// crosses the construction/online boundary: the learned cycle and the
    /// engine over it ([`crate::checkpoint::ConstructionCheckpoint::capture`]).
    ///
    /// # Errors
    ///
    /// Returns the node's first error, or a protocol violation if the node
    /// is not online.
    pub(crate) fn into_boundary(self) -> Result<(Arc<RobbinsCycle>, RobbinsEngine), CoreError> {
        if let Some(e) = self.error() {
            return Err(e.clone());
        }
        match self.stage {
            Stage::Online { engine, cycle } => Ok((cycle, engine)),
            Stage::Constructing(_) | Stage::Failed => Err(CoreError::ProtocolViolation(
                "construction has not terminated".into(),
            )),
        }
    }

    fn engine(&self) -> Option<&RobbinsEngine> {
        match &self.stage {
            Stage::Online { engine, .. } => Some(engine),
            Stage::Constructing(_) | Stage::Failed => None,
        }
    }

    fn flush_construction(&mut self, ctx: &mut Context) {
        if let Stage::Constructing(c) = &mut self.stage {
            for to in c.driver.drain_outgoing() {
                self.construction_pulses += 1;
                ctx.send(to, pulse_payload());
            }
        }
    }

    fn maybe_go_online(&mut self, ctx: &mut Context) {
        if !matches!(&self.stage, Stage::Constructing(c) if c.driver.is_done()) {
            return;
        }
        let Stage::Constructing(c) = std::mem::replace(&mut self.stage, Stage::Failed) else {
            return;
        };
        let Construction { driver, buffered } = *c;
        match driver.into_result() {
            Ok((cycle, engine)) => {
                self.engine_baseline = engine.pulses_sent();
                self.stage = Stage::Online {
                    engine,
                    cycle: Arc::new(cycle),
                };
                // The quiescence marker sits after this event's construction
                // sends (already in the outbox) and before any online send
                // queued below, so an observer's per-phase send attribution
                // agrees exactly with `construction_pulses`.
                ctx.marker(PhaseEvent::ConstructionQuiescence);
                // Release the inner protocol's messages buffered during the
                // pre-processing phase.
                self.start_online(buffered, ctx);
            }
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
    }

    /// Opens the online phase with the inner protocol's first messages:
    /// those of `on_init`, or those buffered during the construction.
    fn start_online(&mut self, first: Vec<WireMessage>, ctx: &mut Context) {
        if self.holds_token() {
            ctx.marker(PhaseEvent::TokenAcquired);
        }
        self.pump_online(first, ctx);
    }

    /// Runs the online engine to a fixed point, starting from `emitted`, the
    /// inner protocol's messages not yet handed to the engine: hands them
    /// over, flushes the engine's pulses to the network and moves decoded
    /// messages into the inner protocol, whose replies are handed over in
    /// turn.
    fn pump_online(&mut self, mut emitted: Vec<WireMessage>, ctx: &mut Context) {
        let FullSimulator {
            node,
            graph_neighbors,
            inner,
            stage,
            error,
            ..
        } = self;
        let Stage::Online { engine, .. } = stage else {
            return;
        };
        loop {
            if !emitted.is_empty() {
                // A fresh batch of inner-protocol data enters the engine: an
                // online pulse window opens.
                ctx.marker(PhaseEvent::OnlineWindow);
            }
            for msg in emitted.drain(..) {
                if let Err(e) = engine.enqueue(msg) {
                    error.get_or_insert(e);
                }
            }
            for to in engine.drain_outgoing() {
                ctx.send(to, pulse_payload());
            }
            // Only a decoded message can make the inner protocol hand the
            // engine more work; without one, the engine is at a fixed point.
            let delivered = engine.take_delivered();
            if delivered.is_empty() {
                return;
            }
            for msg in &delivered {
                if msg.is_for(*node) && msg.src != *node {
                    let mut io = ProtocolIo::new(*node, graph_neighbors.clone());
                    inner.on_deliver(msg.src, &msg.payload, &mut io);
                    emitted.extend(
                        io.take_sends()
                            .into_iter()
                            .map(|m| WireMessage::from_protocol(*node, m)),
                    );
                }
            }
        }
    }
}

impl<P: InnerProtocol> Reactor for FullSimulator<P> {
    fn on_start(&mut self, ctx: &mut Context) {
        // The inner protocol starts immediately; the asynchronous model lets
        // its messages simply take "a long time" (the whole pre-processing
        // phase) to be delivered.
        let mut io = ProtocolIo::new(self.node, self.graph_neighbors.clone());
        self.inner.on_init(&mut io);
        let node = self.node;
        let first: Vec<WireMessage> = io
            .take_sends()
            .into_iter()
            .map(|m| WireMessage::from_protocol(node, m))
            .collect();
        match &mut self.stage {
            Stage::Constructing(c) => {
                ctx.marker(PhaseEvent::ConstructionStart);
                c.buffered = first;
                c.driver.on_start();
                self.flush_construction(ctx);
            }
            Stage::Online { .. } => {
                // A node that resumes a construction paid before this
                // simulation (a checkpoint) announces the warm start; a node
                // on a cycle no construction produced has none to resume.
                if self.construction_pulses > 0 {
                    ctx.marker(PhaseEvent::ReplayWarmStart);
                }
                self.start_online(first, ctx);
            }
            Stage::Failed => {}
        }
    }

    fn on_message(&mut self, from: NodeId, _payload: &[u8], ctx: &mut Context) {
        // Content-oblivious: the payload is ignored entirely.
        match &mut self.stage {
            Stage::Constructing(c) => {
                c.driver.on_pulse(from);
                self.flush_construction(ctx);
                self.maybe_go_online(ctx);
            }
            Stage::Online { engine, .. } => {
                // Token-circulation markers need a before/after comparison;
                // skip the bookkeeping entirely when nothing collects it.
                let held_before = ctx.markers_enabled().then(|| engine.is_token_holder());
                engine.on_pulse(from);
                self.pump_online(Vec::new(), ctx);
                if let Some(before) = held_before {
                    match (before, self.holds_token()) {
                        (false, true) => ctx.marker(PhaseEvent::TokenAcquired),
                        (true, false) => ctx.marker(PhaseEvent::TokenReleased),
                        _ => {}
                    }
                }
            }
            Stage::Failed => {}
        }
    }

    fn output(&self) -> Option<Vec<u8>> {
        self.inner.output()
    }
}

/// Builds one [`FullSimulator`] per node of the graph (the Theorem 2
/// compiler), with `designated_root` as the pre-selected construction root.
///
/// # Errors
///
/// Returns an error if the graph is not 2-edge-connected (Theorem 3: no
/// simulation exists) or is too large for the wire format.
pub fn full_simulators<P, F>(
    graph: &Graph,
    designated_root: NodeId,
    encoding: Encoding,
    mut factory: F,
) -> Result<Vec<FullSimulator<P>>, CoreError>
where
    P: InnerProtocol,
    F: FnMut(NodeId) -> P,
{
    graph.check_node(designated_root)?;
    crate::wire::check_node_count(graph)?;
    if !connectivity::is_two_edge_connected(graph) {
        return Err(CoreError::NotTwoEdgeConnected);
    }
    graph
        .nodes()
        .map(|v| {
            FullSimulator::new(
                v,
                graph.neighbors(v).to_vec(),
                v == designated_root,
                encoding,
                factory(v),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_nodes_do_not_carry_the_construction_state() {
        // The construction driver is larger than a whole online node; kept
        // inline, it would more than double the memory of every cycle-mode
        // and replay simulation, whose nodes never construct.
        let node = std::mem::size_of::<FullSimulator<Box<dyn InnerProtocol + Send>>>();
        let driver = std::mem::size_of::<ConstructionNode>();
        assert!(
            node < driver,
            "a node takes {node} bytes, its driver {driver}"
        );
    }
}
