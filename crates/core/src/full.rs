//! The end-to-end Theorem 2 compiler: construct a Robbins cycle over the
//! fully-defective network, then simulate the user's protocol over it.
//!
//! [`FullSimulator`] is a `fdn-netsim` reactor with two phases:
//!
//! * **pre-processing** — the content-oblivious Robbins-cycle construction of
//!   Algorithm 4 ([`crate::construction`]); messages the inner protocol emits
//!   during this phase are buffered;
//! * **online** — once the construction terminates, the live engine over the
//!   final cycle carries the inner protocol's messages exactly as in
//!   Theorem 10.
//!
//! The split also gives the paper's cost accounting for free:
//! [`FullSimulator::construction_pulses`] is the node's share of `CCinit`,
//! and everything after is `CCoverhead`.

use fdn_graph::{connectivity, Graph, NodeId, RobbinsCycle};
use fdn_netsim::{Context, InnerProtocol, PhaseEvent, ProtocolIo, Reactor};

use crate::construction::ConstructionNode;
use crate::encoding::Encoding;
use crate::engine::RobbinsEngine;
use crate::error::CoreError;
use crate::reactors::pulse_payload;
use crate::wire::WireMessage;

/// Which phase of Theorem 2 the node is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FullPhase {
    /// Pre-processing: building the Robbins cycle.
    Construction,
    /// Online: simulating the inner protocol over the constructed cycle.
    Online,
}

/// The Theorem 2 simulator for one node: Robbins-cycle construction followed
/// by the online simulation of the inner protocol `π`.
#[derive(Debug)]
pub struct FullSimulator<P> {
    node: NodeId,
    graph_neighbors: Vec<NodeId>,
    inner: P,
    phase: FullPhase,
    construction: Option<ConstructionNode>,
    engine: Option<RobbinsEngine>,
    cycle: Option<RobbinsCycle>,
    buffered: Vec<WireMessage>,
    construction_pulses: u64,
    engine_baseline: u64,
    error: Option<CoreError>,
}

impl<P: InnerProtocol> FullSimulator<P> {
    /// Creates the simulator node. Exactly one node of the network must be
    /// created with `designated_root = true`.
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
        let construction =
            ConstructionNode::new(node, graph_neighbors.clone(), designated_root, encoding)?;
        Ok(FullSimulator {
            node,
            graph_neighbors,
            inner,
            phase: FullPhase::Construction,
            construction: Some(construction),
            engine: None,
            cycle: None,
            buffered: Vec::new(),
            construction_pulses: 0,
            engine_baseline: 0,
            error: None,
        })
    }

    /// Warm-starts a simulator directly in the **online** phase from a
    /// construct-once checkpoint (see [`crate::checkpoint`]): `engine` is the
    /// node's idle boundary engine over `cycle`, and `construction_pulses`
    /// is the node's already-paid share of `CCinit`. The construction is not
    /// re-run; every pulse this reactor sends is online-phase traffic
    /// (its [`online_pulses`](Self::online_pulses) counter starts at 0).
    pub(crate) fn from_checkpoint(
        node: NodeId,
        graph_neighbors: Vec<NodeId>,
        engine: RobbinsEngine,
        cycle: RobbinsCycle,
        construction_pulses: u64,
        inner: P,
    ) -> Self {
        let engine_baseline = engine.pulses_sent();
        FullSimulator {
            node,
            graph_neighbors,
            inner,
            phase: FullPhase::Online,
            construction: None,
            engine: Some(engine),
            cycle: Some(cycle),
            buffered: Vec::new(),
            construction_pulses,
            engine_baseline,
            error: None,
        }
    }

    /// Read access to the wrapped inner protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Whether the pre-processing phase has finished at this node.
    pub fn is_online(&self) -> bool {
        self.phase == FullPhase::Online
    }

    /// The Robbins cycle this node settled on (available once online).
    pub fn cycle(&self) -> Option<&RobbinsCycle> {
        self.cycle.as_ref()
    }

    /// Pulses sent by this node during the construction (its share of
    /// `CCinit`).
    pub fn construction_pulses(&self) -> u64 {
        self.construction_pulses
    }

    /// Pulses sent by this node during the online phase so far.
    pub fn online_pulses(&self) -> u64 {
        self.engine
            .as_ref()
            .map(RobbinsEngine::pulses_sent)
            .unwrap_or(0)
            - self.construction_engine_pulses()
    }

    fn construction_engine_pulses(&self) -> u64 {
        // The engine is reused from the construction, so its counter includes
        // pre-processing pulses; those are accounted inside
        // `construction_pulses` already.
        self.engine_baseline
    }

    /// Whether this node's engine currently holds the cycle token (always
    /// `false` before the node is online).
    pub fn holds_token(&self) -> bool {
        self.engine
            .as_ref()
            .is_some_and(RobbinsEngine::is_token_holder)
    }

    /// Coarse, render-stable label of the node's current stage — the
    /// construction stage while pre-processing, `"online"` afterwards. Used
    /// by stall diagnostics and traces; never parsed back.
    pub fn stage(&self) -> &'static str {
        match self.phase {
            FullPhase::Online => "online",
            FullPhase::Construction => self
                .construction
                .as_ref()
                .map_or("construction", ConstructionNode::stage),
        }
    }

    /// The first error observed, if any.
    pub fn error(&self) -> Option<&CoreError> {
        self.error
            .as_ref()
            .or_else(|| self.construction.as_ref().and_then(ConstructionNode::error))
            .or_else(|| self.engine.as_ref().and_then(RobbinsEngine::error))
    }

    fn latch(&mut self, e: CoreError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn flush_construction(&mut self, ctx: &mut Context) {
        if let Some(c) = &mut self.construction {
            for to in c.drain_outgoing() {
                self.construction_pulses += 1;
                ctx.send(to, pulse_payload());
            }
        }
    }

    fn maybe_go_online(&mut self, ctx: &mut Context) {
        let done = self
            .construction
            .as_ref()
            .is_some_and(ConstructionNode::is_done);
        if !done {
            return;
        }
        let construction = self.construction.take().expect("checked above");
        match construction.into_result() {
            Ok((cycle, engine)) => {
                self.engine_baseline = engine.pulses_sent();
                self.cycle = Some(cycle);
                self.engine = Some(engine);
                self.phase = FullPhase::Online;
                // The quiescence marker sits after this event's construction
                // sends (already in the outbox) and before any online send
                // the pump queues below, so an observer's per-phase send
                // attribution agrees exactly with `construction_pulses`.
                ctx.marker(PhaseEvent::ConstructionQuiescence);
                if self.holds_token() {
                    ctx.marker(PhaseEvent::TokenAcquired);
                }
                // Release the inner protocol's messages buffered during the
                // pre-processing phase.
                let buffered = std::mem::take(&mut self.buffered);
                if !buffered.is_empty() {
                    ctx.marker(PhaseEvent::OnlineWindow);
                }
                for msg in buffered {
                    if let Some(e) = &mut self.engine {
                        if let Err(err) = e.enqueue(msg) {
                            self.latch(err);
                        }
                    }
                }
                self.pump_online(ctx);
            }
            Err(e) => self.latch(e),
        }
    }

    fn pump_online(&mut self, ctx: &mut Context) {
        loop {
            let Some(engine) = &mut self.engine else {
                return;
            };
            let delivered = engine.take_delivered();
            let mut sent = 0usize;
            for to in engine.drain_outgoing() {
                ctx.send(to, pulse_payload());
                sent += 1;
            }
            if delivered.is_empty() && sent == 0 {
                return;
            }
            let mut emitted = Vec::new();
            for msg in &delivered {
                if msg.is_for(self.node) && msg.src != self.node {
                    let mut io = ProtocolIo::new(self.node, self.graph_neighbors.clone());
                    self.inner.on_deliver(msg.src, &msg.payload, &mut io);
                    emitted.extend(io.take_sends());
                }
            }
            if !emitted.is_empty() {
                // A fresh batch of inner-protocol data enters the engine: an
                // online pulse window opens.
                ctx.marker(PhaseEvent::OnlineWindow);
            }
            for m in emitted {
                let wire = WireMessage::from_protocol(self.node, m);
                if let Some(e) = &mut self.engine {
                    if let Err(err) = e.enqueue(wire) {
                        self.latch(err);
                    }
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
        match self.phase {
            FullPhase::Construction => {
                ctx.marker(PhaseEvent::ConstructionStart);
                for m in io.take_sends() {
                    self.buffered.push(WireMessage::from_protocol(self.node, m));
                }
                if let Some(c) = &mut self.construction {
                    c.on_start();
                }
                self.flush_construction(ctx);
            }
            FullPhase::Online => {
                // A checkpoint-restored node is online from the first event:
                // the inner protocol's initial sends go straight into the
                // boundary engine instead of the construction buffer.
                ctx.marker(PhaseEvent::ReplayWarmStart);
                if self.holds_token() {
                    ctx.marker(PhaseEvent::TokenAcquired);
                }
                let sends = io.take_sends();
                if !sends.is_empty() {
                    ctx.marker(PhaseEvent::OnlineWindow);
                }
                for m in sends {
                    let wire = WireMessage::from_protocol(self.node, m);
                    if let Some(e) = &mut self.engine {
                        if let Err(err) = e.enqueue(wire) {
                            self.latch(err);
                        }
                    }
                }
                self.pump_online(ctx);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, _payload: &[u8], ctx: &mut Context) {
        match self.phase {
            FullPhase::Construction => {
                if let Some(c) = &mut self.construction {
                    c.on_pulse(from);
                }
                self.flush_construction(ctx);
                self.maybe_go_online(ctx);
            }
            FullPhase::Online => {
                // Token-circulation markers need a before/after comparison;
                // skip the bookkeeping entirely when nothing collects it.
                let held_before = ctx.markers_enabled().then(|| self.holds_token());
                if let Some(e) = &mut self.engine {
                    e.on_pulse(from);
                }
                self.pump_online(ctx);
                if let Some(before) = held_before {
                    match (before, self.holds_token()) {
                        (false, true) => ctx.marker(PhaseEvent::TokenAcquired),
                        (true, false) => ctx.marker(PhaseEvent::TokenReleased),
                        _ => {}
                    }
                }
            }
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
    if graph.node_count() > crate::wire::MAX_WIDE_NODE_ID as usize + 1 {
        return Err(CoreError::TooManyNodes {
            nodes: graph.node_count(),
            max: crate::wire::MAX_WIDE_NODE_ID as usize + 1,
        });
    }
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
