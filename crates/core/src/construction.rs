//! Content-oblivious distributed construction of a Robbins cycle
//! (Algorithms 4(a), 4(b), 5 and 6; Theorem 15).
//!
//! Starting from a designated root, the nodes first grow a simple cycle `C0`
//! through the root by a sequential DFS whose token is a single content-less
//! pulse (backtracking on revisits). The nodes on `C0` then communicate over
//! it with the content-oblivious engine of Algorithm 3 and repeatedly:
//!
//! 1. learn the ID string of the current cycle (Algorithm 5, `Π_learnID`),
//! 2. elect a node with unexplored edges as the next ear root or detect that
//!    every edge is on the cycle (Algorithm 6, `Π_NextRoot`),
//! 3. grow a new ear by another pulse-DFS over unexplored edges, splice it
//!    into the cycle (`C_{i+1} = root —C_i→ root —E_i→ z ⇒C_i⇒ root`) and
//!    switch everyone to the extended cycle (Algorithm 4(b)).
//!
//! The process ends with a Robbins cycle containing **every** edge of the
//! graph, at which point the final engine is handed to [`crate::full`] for
//! the online simulation of the user's protocol (Theorem 2).
//! [`ConstructionNode`] is the per-node driver; it runs only inside a
//! [`FullSimulator`], and a construction-only run is one over the silent
//! protocol `()` ([`construction_simulators`]).
//!
//! All coordination messages travel over the engine of the current cycle and
//! are therefore themselves carried by content-less pulses; the only other
//! communication is the DFS pulses on not-yet-explored edges. The whole
//! construction is content-oblivious.

use std::collections::{BTreeMap, BTreeSet};

use fdn_graph::cycle::LocalCycleView;
use fdn_graph::{Graph, NodeId, RobbinsCycle};

use crate::control::ControlMsg;
use crate::encoding::Encoding;
use crate::engine::RobbinsEngine;
use crate::error::CoreError;
use crate::full::{full_simulators, FullSimulator};
use crate::wire::{WireDest, WireMessage};

/// The role of this node in the paper's Algorithm 4(a) DFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DfsState {
    /// `init`: not yet visited (or fully backtracked).
    Init,
    /// `DFS`: on the current DFS path.
    Active,
    /// `DFSroot`: the designated root during the initial DFS.
    Root,
    /// The designated root after closing `C0`, waiting for the confirmation
    /// pulse to come back around the cycle (Algorithm 4(a) line 31).
    RootAwaitReturn,
}

/// Stage of a node that is already on the current cycle `C_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CycleStage {
    /// Algorithm 6: waiting for `⟨check edges⟩`.
    NextRootAwaitCheck,
    /// Algorithm 6: own report sent, waiting for `⟨new root⟩` / `⟨completed⟩`.
    NextRootAwaitDecision,
    /// Algorithm 4(b): the ear DFS is running; waiting for `⟨EarClosedAt⟩`.
    EarAwaitClosed,
    /// Algorithm 4(b) lines 46/50: waiting for the coordination pulse to
    /// arrive from the ear.
    EarAwaitCoordPulse,
    /// Algorithm 4(b) line 53: waiting for `⟨ready⟩`.
    EarAwaitReady,
    /// Algorithm 4(b) line 55: running `Π_learnID` over the ear cycle
    /// `E_i ∥ P_i`.
    EarLearnId,
    /// Algorithm 4(b) line 61: waiting for `⟨NewCycle⟩` over `C_i`.
    EarAwaitNewCycle,
}

/// Top-level phase of the construction at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Running the pulse-DFS of Algorithm 4(a) (fresh node or the designated
    /// root before `C0` closes).
    Dfs,
    /// On a freshly-formed cycle (either `C0` or a new ear), running
    /// `Π_learnID` over the locally-defined cycle as Algorithm 4(a)
    /// lines 25/32 prescribe.
    FreshLearnId,
    /// On the current cycle `C_i`, in one of the Algorithm 4(b)/6 stages.
    Cycle(CycleStage),
    /// The Robbins cycle is complete.
    Done,
}

/// The per-node driver of the content-oblivious Robbins-cycle construction.
///
/// The node consumes pulse arrivals (`on_pulse`) and produces pulse send
/// requests ([`drain_outgoing`](Self::drain_outgoing)); when
/// [`is_done`](Self::is_done) becomes true the final cycle and the live
/// engine over it can be extracted with [`into_result`](Self::into_result).
#[derive(Debug)]
pub struct ConstructionNode {
    node: NodeId,
    neighbors: Vec<NodeId>,
    designated_root: bool,
    encoding: Encoding,
    phase: Phase,
    // --- Algorithm 4(a) DFS state ---
    dfs_state: DfsState,
    dfs_prev: Option<NodeId>,
    dfs_next: Option<NodeId>,
    used: BTreeSet<NodeId>,
    // --- cycle state ---
    cycle: Option<RobbinsCycle>,
    main: Option<RobbinsEngine>,
    ear: Option<RobbinsEngine>,
    is_current_root: bool,
    ear_prev: Option<NodeId>,
    ear_next: Option<NodeId>,
    reports: BTreeMap<NodeId, bool>,
    pending_coord: BTreeMap<NodeId, usize>,
    stash: Vec<WireMessage>,
    // --- outputs ---
    outgoing: Vec<NodeId>,
    error: Option<CoreError>,
}

impl ConstructionNode {
    /// Creates the construction driver for one node.
    ///
    /// `neighbors` is the node's neighbourhood in the communication graph;
    /// `designated_root` must be true for exactly one node in the network
    /// (the paper's pre-selected root).
    pub fn new(
        node: NodeId,
        neighbors: Vec<NodeId>,
        designated_root: bool,
        encoding: Encoding,
    ) -> Result<Self, CoreError> {
        encoding.validate()?;
        Ok(ConstructionNode {
            node,
            neighbors,
            designated_root,
            encoding,
            phase: Phase::Dfs,
            dfs_state: if designated_root {
                DfsState::Root
            } else {
                DfsState::Init
            },
            dfs_prev: None,
            dfs_next: None,
            used: BTreeSet::new(),
            cycle: None,
            main: None,
            ear: None,
            is_current_root: designated_root,
            ear_prev: None,
            ear_next: None,
            reports: BTreeMap::new(),
            pending_coord: BTreeMap::new(),
            stash: Vec::new(),
            outgoing: Vec::new(),
            error: None,
        })
    }

    /// Whether the construction has terminated at this node.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Coarse, render-stable label of the construction stage at this node,
    /// for stall diagnostics and traces (never parsed back).
    pub fn stage(&self) -> &'static str {
        match self.phase {
            Phase::Dfs => "dfs",
            Phase::FreshLearnId => "learn-id",
            Phase::Cycle(stage) => match stage {
                CycleStage::NextRootAwaitCheck | CycleStage::NextRootAwaitDecision => {
                    "next-root-election"
                }
                CycleStage::EarAwaitClosed
                | CycleStage::EarAwaitCoordPulse
                | CycleStage::EarAwaitReady
                | CycleStage::EarLearnId
                | CycleStage::EarAwaitNewCycle => "ear-extension",
            },
            Phase::Done => "done",
        }
    }

    /// The first error observed, if any.
    pub fn error(&self) -> Option<&CoreError> {
        self.error
            .as_ref()
            .or_else(|| self.main.as_ref().and_then(RobbinsEngine::error))
            .or_else(|| self.ear.as_ref().and_then(RobbinsEngine::error))
    }

    /// Consumes the driver and returns the final cycle together with the
    /// live engine over it (whose token sits at the final root), ready for
    /// the online phase of Theorem 2.
    ///
    /// # Errors
    ///
    /// Returns an error if the construction has not finished or ended in an
    /// error state.
    pub fn into_result(self) -> Result<(RobbinsCycle, RobbinsEngine), CoreError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if !matches!(self.phase, Phase::Done) {
            return Err(CoreError::ProtocolViolation(
                "construction has not terminated".into(),
            ));
        }
        let cycle = self
            .cycle
            .ok_or_else(|| CoreError::ProtocolViolation("terminated without a cycle".into()))?;
        let engine = self
            .main
            .ok_or_else(|| CoreError::ProtocolViolation("terminated without an engine".into()))?;
        Ok((cycle, engine))
    }

    /// Drains the pulses the node wants to send, in order, in place: the
    /// buffer keeps its capacity for the next event.
    pub fn drain_outgoing(&mut self) -> std::vec::Drain<'_, NodeId> {
        self.outgoing.drain(..)
    }

    /// Kicks off the construction: the designated root sends the first DFS
    /// pulse (Algorithm 4(a) lines 3–6). Other nodes do nothing.
    pub fn on_start(&mut self) {
        if !self.designated_root {
            return;
        }
        // Choose an arbitrary (here: smallest-id) edge and send a pulse.
        match self
            .neighbors
            .iter()
            .copied()
            .find(|u| !self.used.contains(u))
        {
            Some(u) => {
                self.send_pulse(u);
                self.used.insert(u);
                self.dfs_next = Some(u);
            }
            None => self.fail("designated root has no edges".into()),
        }
    }

    /// Handles the arrival of a pulse from neighbour `from`.
    pub fn on_pulse(&mut self, from: NodeId) {
        if self.error.is_some() {
            return;
        }
        if !self.neighbors.contains(&from) {
            self.fail(format!("pulse from non-neighbour {from}"));
            return;
        }
        // Route: pulses on edges of the currently-active cycle go to the
        // corresponding engine; everything else is a DFS / coordination pulse.
        let ear_active = matches!(self.phase, Phase::Cycle(CycleStage::EarLearnId))
            && self.ear.as_ref().is_some_and(|e| e.is_cycle_neighbor(from));
        if ear_active {
            if let Some(e) = &mut self.ear {
                e.on_pulse(from);
            }
            self.pump();
            return;
        }
        let main_active = self
            .main
            .as_ref()
            .is_some_and(|e| e.is_cycle_neighbor(from))
            && !matches!(self.phase, Phase::Dfs);
        if main_active {
            if let Some(e) = &mut self.main {
                e.on_pulse(from);
            }
            self.pump();
            return;
        }
        self.handle_noncycle_pulse(from);
        self.pump();
    }

    // ---------------------------------------------------------------------
    // Plumbing
    // ---------------------------------------------------------------------

    fn fail(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(CoreError::ProtocolViolation(format!(
                "{}: {msg}",
                self.node
            )));
        }
    }

    fn send_pulse(&mut self, to: NodeId) {
        self.outgoing.push(to);
    }

    fn enqueue_main(&mut self, dest: WireDest, msg: &ControlMsg) {
        let wire = WireMessage {
            src: self.node,
            dest,
            payload: msg.to_payload(),
        };
        let res = match &mut self.main {
            Some(e) => e.enqueue(wire),
            None => Err(CoreError::ProtocolViolation(
                "no main engine to enqueue into".into(),
            )),
        };
        if let Err(e) = res {
            if self.error.is_none() {
                self.error = Some(e);
            }
        }
    }

    fn enqueue_ear(&mut self, dest: WireDest, msg: &ControlMsg) {
        let wire = WireMessage {
            src: self.node,
            dest,
            payload: msg.to_payload(),
        };
        let res = match &mut self.ear {
            Some(e) => e.enqueue(wire),
            None => Err(CoreError::ProtocolViolation(
                "no ear engine to enqueue into".into(),
            )),
        };
        if let Err(e) = res {
            if self.error.is_none() {
                self.error = Some(e);
            }
        }
    }

    /// Moves the engines' pulses into this node's outgoing buffer, as
    /// [`send_pulse`](Self::send_pulse) would one by one.
    fn drain_engine_outgoing(&mut self) {
        if let Some(e) = &mut self.ear {
            self.outgoing.extend(e.drain_outgoing());
        }
        if let Some(e) = &mut self.main {
            self.outgoing.extend(e.drain_outgoing());
        }
    }

    /// Takes the next decoded message destined to this node, if any.
    fn next_delivery(&mut self) -> Option<WireMessage> {
        loop {
            if self.stash.is_empty() {
                if let Some(e) = &mut self.ear {
                    self.stash.extend(e.take_delivered());
                }
                if let Some(e) = &mut self.main {
                    self.stash.extend(e.take_delivered());
                }
            }
            if self.stash.is_empty() {
                return None;
            }
            let msg = self.stash.remove(0);
            // Every node decodes every simulated message, but only the
            // destination acts on it (Algorithm 3(b) line 40).
            if msg.is_for(self.node) {
                return Some(msg);
            }
        }
    }

    /// Drains engine output and processes decoded control messages until no
    /// further progress is possible.
    fn pump(&mut self) {
        loop {
            self.drain_engine_outgoing();
            if self.error.is_some() {
                return;
            }
            let Some(msg) = self.next_delivery() else {
                self.drain_engine_outgoing();
                return;
            };
            self.handle_delivery(msg);
        }
    }

    // ---------------------------------------------------------------------
    // Algorithm 4(a): the pulse DFS
    // ---------------------------------------------------------------------

    fn first_unused_neighbor(&self) -> Option<NodeId> {
        self.neighbors
            .iter()
            .copied()
            .find(|u| !self.used.contains(u))
    }

    fn handle_noncycle_pulse(&mut self, from: NodeId) {
        match self.phase {
            Phase::Dfs => self.handle_dfs_pulse(from),
            Phase::Cycle(stage) => {
                // A cycle node reached by the ear DFS becomes the ear's
                // endpoint z (Algorithm 4(b) lines 37–38); any other
                // non-cycle pulse is the ear coordination pulse arriving
                // early and is buffered.
                if stage == CycleStage::EarAwaitClosed && self.ear_prev.is_none() {
                    self.ear_prev = Some(from);
                    self.enqueue_main(
                        WireDest::Broadcast,
                        &ControlMsg::EarClosedAt { z: self.node },
                    );
                } else if stage == CycleStage::NextRootAwaitDecision && self.ear_prev.is_none() {
                    // The ear DFS can outrun this node's processing of
                    // ⟨new root⟩; remember the pulse and become z when the
                    // NewRoot message is processed.
                    *self.pending_coord.entry(from).or_insert(0) += 1;
                } else {
                    *self.pending_coord.entry(from).or_insert(0) += 1;
                    self.try_consume_coord_pulse();
                }
            }
            Phase::FreshLearnId => {
                self.fail(format!(
                    "unexpected non-cycle pulse from {from} during learn-ID"
                ));
            }
            Phase::Done => {
                self.fail(format!(
                    "unexpected non-cycle pulse from {from} after completion"
                ));
            }
        }
    }

    fn handle_dfs_pulse(&mut self, from: NodeId) {
        match self.dfs_state {
            DfsState::Init => {
                // Lines 8–12: first visit.
                self.dfs_prev = Some(from);
                self.used.insert(from);
                match self.first_unused_neighbor() {
                    Some(u) => {
                        self.send_pulse(u);
                        self.used.insert(u);
                        self.dfs_next = Some(u);
                        self.dfs_state = DfsState::Active;
                    }
                    None => {
                        self.fail("visited node has no unexplored edge (degree-1 node?)".into())
                    }
                }
            }
            DfsState::Active => {
                if Some(from) == self.dfs_next {
                    // Lines 14–20: a cancellation pulse from the child.
                    match self.first_unused_neighbor() {
                        Some(u) => {
                            self.send_pulse(u);
                            self.used.insert(u);
                            self.dfs_next = Some(u);
                        }
                        None => {
                            // Backtrack to the parent and reset.
                            let parent = self.dfs_prev.expect("active DFS node has a parent");
                            self.send_pulse(parent);
                            self.dfs_state = DfsState::Init;
                            self.dfs_prev = None;
                            self.dfs_next = None;
                            self.used.clear();
                        }
                    }
                } else if Some(from) != self.dfs_prev {
                    // Lines 21–22: a cycle closed here, but this is not the
                    // root — bounce the token back.
                    self.used.insert(from);
                    self.send_pulse(from);
                } else {
                    // Lines 23–26: second pulse from the parent — this node is
                    // on a newly-closed cycle (C0 or a new ear). Forward the
                    // pulse and start Π_learnID over the locally-defined cycle
                    // as a non-token-holder.
                    let next = self.dfs_next.expect("active DFS node has a child");
                    self.send_pulse(next);
                    self.start_fresh_learn_id(false);
                }
            }
            DfsState::Root => {
                // Lines 28–30: the DFS token returned to the root; C0 is
                // closed. Send the confirmation pulse around it.
                self.dfs_prev = Some(from);
                self.used.insert(from);
                let next = self.dfs_next.expect("root already chose its first edge");
                self.send_pulse(next);
                self.dfs_state = DfsState::RootAwaitReturn;
            }
            DfsState::RootAwaitReturn => {
                if Some(from) == self.dfs_prev {
                    // Line 31 satisfied: every node on C0 has switched.
                    // Lines 32–33: run Π_learnID over C0 as the token holder.
                    self.start_fresh_learn_id(true);
                    let next = self.dfs_next.expect("root already chose its first edge");
                    self.enqueue_main(
                        WireDest::Node(next),
                        &ControlMsg::LearnIdCollect {
                            ids: vec![self.node],
                        },
                    );
                } else {
                    self.fail(format!(
                        "unexpected pulse from {from} while waiting for C0 closure"
                    ));
                }
            }
        }
    }

    /// Creates the engine over the locally-defined simple cycle
    /// (`dfs_prev`, `dfs_next`) and enters the learn-ID phase
    /// (Algorithm 4(a) lines 25/32).
    fn start_fresh_learn_id(&mut self, token_holder: bool) {
        let prev = self.dfs_prev.expect("cycle membership requires prev");
        let next = self.dfs_next.expect("cycle membership requires next");
        let view = LocalCycleView::from_simple(self.node, prev, next);
        match RobbinsEngine::new(view, token_holder, self.encoding) {
            Ok(engine) => {
                self.main = Some(engine);
                self.phase = Phase::FreshLearnId;
            }
            Err(e) => self.error = Some(e),
        }
    }

    // ---------------------------------------------------------------------
    // Control-message handling (Algorithms 4(b), 5, 6)
    // ---------------------------------------------------------------------

    fn handle_delivery(&mut self, msg: WireMessage) {
        let control = match ControlMsg::from_payload(&msg.payload) {
            Ok(c) => c,
            Err(e) => {
                self.error = Some(e);
                return;
            }
        };
        match self.phase {
            Phase::FreshLearnId => self.handle_fresh_learn_id(control),
            Phase::Cycle(stage) => self.handle_cycle_control(stage, control),
            Phase::Dfs | Phase::Done => self.fail(format!(
                "unexpected control message {control:?} in phase {:?}",
                self.phase
            )),
        }
    }

    /// Algorithm 5 over a freshly-formed cycle (`C0` for its nodes, the ear
    /// cycle for new ear nodes).
    fn handle_fresh_learn_id(&mut self, control: ControlMsg) {
        match control {
            ControlMsg::LearnIdCollect { mut ids } => {
                if ids.first() == Some(&self.node) {
                    // Back at the root: assemble the new global cycle.
                    let mut seq: Vec<NodeId> = self
                        .cycle
                        .as_ref()
                        .map(|c| c.seq().to_vec())
                        .unwrap_or_default();
                    seq.extend_from_slice(&ids);
                    self.enqueue_main(WireDest::Broadcast, &ControlMsg::LearnIdDone { cycle: seq });
                } else {
                    ids.push(self.node);
                    let next = self
                        .dfs_next
                        .expect("learn-ID node knows its cycle successor");
                    self.enqueue_main(WireDest::Node(next), &ControlMsg::LearnIdCollect { ids });
                }
            }
            ControlMsg::LearnIdDone { cycle } => self.adopt_cycle_and_start_next_root(cycle),
            other => self.fail(format!("unexpected {other:?} during fresh learn-ID")),
        }
    }

    /// Installs a (new) global cycle, rebuilds the main engine over it with
    /// the token at the cycle's first occurrence (Remark 4), and starts
    /// Algorithm 6.
    fn adopt_cycle_and_start_next_root(&mut self, seq: Vec<NodeId>) {
        let cycle = match RobbinsCycle::new(seq) {
            Ok(c) => c,
            Err(e) => {
                self.error = Some(CoreError::InvalidCycle(e.to_string()));
                return;
            }
        };
        let Some(view) = cycle.local_view(self.node) else {
            self.fail("adopted a cycle that does not contain this node".into());
            return;
        };
        self.is_current_root = cycle.root() == self.node;
        match RobbinsEngine::new(view, self.is_current_root, self.encoding) {
            Ok(engine) => self.main = Some(engine),
            Err(e) => {
                self.error = Some(e);
                return;
            }
        }
        self.cycle = Some(cycle);
        self.ear = None;
        self.ear_prev = None;
        self.ear_next = None;
        self.reports.clear();
        self.phase = Phase::Cycle(CycleStage::NextRootAwaitCheck);
        if self.is_current_root {
            self.enqueue_main(WireDest::Broadcast, &ControlMsg::CheckEdges);
        }
    }

    fn has_unexplored_edges(&self) -> bool {
        let Some(cycle) = &self.cycle else {
            return false;
        };
        let used = cycle.undirected_edges();
        self.neighbors.iter().any(|&u| {
            let key = if self.node < u {
                (self.node, u)
            } else {
                (u, self.node)
            };
            !used.contains(&key)
        })
    }

    fn handle_cycle_control(&mut self, stage: CycleStage, control: ControlMsg) {
        match (stage, control) {
            // ------------------------------------------------ Algorithm 6
            (CycleStage::NextRootAwaitCheck, ControlMsg::CheckEdges) => {
                let has = self.has_unexplored_edges();
                self.enqueue_main(
                    WireDest::Broadcast,
                    &ControlMsg::EdgeReport {
                        id: self.node,
                        has_unexplored: has,
                    },
                );
                self.phase = Phase::Cycle(CycleStage::NextRootAwaitDecision);
            }
            (_, ControlMsg::EdgeReport { id, has_unexplored }) => {
                if self.is_current_root {
                    self.reports.insert(id, has_unexplored);
                    let expected = self
                        .cycle
                        .as_ref()
                        .map(|c| c.distinct_nodes().len())
                        .unwrap_or(0);
                    if self.reports.len() == expected {
                        let candidate = self
                            .reports
                            .iter()
                            .filter(|(_, &has)| has)
                            .map(|(&id, _)| id)
                            .min();
                        match candidate {
                            Some(new_root) => self.enqueue_main(
                                WireDest::Broadcast,
                                &ControlMsg::NewRoot { id: new_root },
                            ),
                            None => self.enqueue_main(WireDest::Broadcast, &ControlMsg::Completed),
                        }
                    }
                }
            }
            (CycleStage::NextRootAwaitDecision, ControlMsg::NewRoot { id }) => {
                let rotated = match self.cycle.as_ref().map(|c| c.rotated_to(id)) {
                    Some(Ok(c)) => c,
                    _ => {
                        self.fail(format!("cannot rotate the cycle to the new root {id}"));
                        return;
                    }
                };
                self.cycle = Some(rotated);
                self.is_current_root = id == self.node;
                self.reports.clear();
                self.ear_prev = None;
                self.ear_next = None;
                self.phase = Phase::Cycle(CycleStage::EarAwaitClosed);
                if self.is_current_root {
                    // Algorithm 4(b) lines 35–36: launch the ear DFS on an
                    // unexplored edge.
                    let used = self
                        .cycle
                        .as_ref()
                        .expect("cycle is set")
                        .undirected_edges();
                    let choice = self.neighbors.iter().copied().find(|&u| {
                        let key = if self.node < u {
                            (self.node, u)
                        } else {
                            (u, self.node)
                        };
                        !used.contains(&key)
                    });
                    match choice {
                        Some(u) => {
                            self.send_pulse(u);
                            self.ear_next = Some(u);
                        }
                        None => self.fail("elected as ear root without unexplored edges".into()),
                    }
                } else if self.pending_coord.values().any(|&c| c > 0) {
                    // The ear DFS already reached this node before it
                    // processed ⟨new root⟩: become z now.
                    let from = *self
                        .pending_coord
                        .iter()
                        .find(|(_, &c)| c > 0)
                        .map(|(k, _)| k)
                        .expect("checked non-empty");
                    *self.pending_coord.get_mut(&from).expect("present") -= 1;
                    self.ear_prev = Some(from);
                    self.enqueue_main(
                        WireDest::Broadcast,
                        &ControlMsg::EarClosedAt { z: self.node },
                    );
                }
            }
            (CycleStage::NextRootAwaitDecision, ControlMsg::Completed) => {
                self.phase = Phase::Done;
            }
            // ------------------------------------------- Algorithm 4(b)
            (CycleStage::EarAwaitClosed, ControlMsg::EarClosedAt { z }) => {
                self.process_ear_closed(z);
            }
            (CycleStage::EarAwaitReady, ControlMsg::Ready)
            | (CycleStage::EarAwaitCoordPulse, ControlMsg::Ready) => {
                // The coordination pulse and the Ready broadcast can be
                // processed in either order at nodes that are not z; only z
                // itself must have consumed the pulse (it is the sender).
                self.process_ready();
            }
            (CycleStage::EarLearnId, ControlMsg::LearnIdCollect { mut ids }) => {
                if ids.first() == Some(&self.node) {
                    let mut seq: Vec<NodeId> = self
                        .cycle
                        .as_ref()
                        .map(|c| c.seq().to_vec())
                        .unwrap_or_default();
                    seq.extend_from_slice(&ids);
                    self.enqueue_ear(WireDest::Broadcast, &ControlMsg::LearnIdDone { cycle: seq });
                } else {
                    ids.push(self.node);
                    let next = self
                        .ear_next
                        .expect("ear learn-ID node knows its successor");
                    self.enqueue_ear(WireDest::Node(next), &ControlMsg::LearnIdCollect { ids });
                }
            }
            (CycleStage::EarLearnId, ControlMsg::LearnIdDone { cycle }) => {
                self.ear = None;
                self.ear_prev = None;
                self.ear_next = None;
                if self.is_current_root {
                    self.enqueue_main(WireDest::Broadcast, &ControlMsg::NewCycle { cycle });
                }
                self.phase = Phase::Cycle(CycleStage::EarAwaitNewCycle);
            }
            (CycleStage::EarAwaitNewCycle, ControlMsg::NewCycle { cycle }) => {
                self.adopt_cycle_and_start_next_root(cycle);
            }
            (stage, control) => {
                self.fail(format!("unexpected {control:?} in cycle stage {stage:?}"));
            }
        }
    }

    /// Algorithm 4(b) lines 39–52: everyone on `C_i` learns where the ear
    /// closed, the nodes on `P_i` set up their ear-cycle neighbours, and the
    /// root sends the coordination pulse along the ear.
    fn process_ear_closed(&mut self, z: NodeId) {
        let Some(cycle) = self.cycle.clone() else {
            self.fail("EarClosedAt received without a cycle".into());
            return;
        };
        let root = cycle.root();
        let path = match cycle.shortest_directed_path(z, root) {
            Some(p) => p,
            None => {
                self.fail(format!("no directed path from {z} to {root} on the cycle"));
                return;
            }
        };
        if self.node == root {
            if z != root {
                // P_i ends at the root; its predecessor is the root's
                // counterclockwise neighbour on the ear cycle.
                self.ear_prev = Some(path[path.len() - 2]);
            }
            // ear_next was set when the DFS was launched; for a closed ear
            // ear_prev was set when the DFS pulse returned.
            let next = self.ear_next.expect("ear root chose its first edge");
            self.send_pulse(next);
            if z == root {
                self.phase = Phase::Cycle(CycleStage::EarAwaitCoordPulse);
                self.try_consume_coord_pulse();
            } else {
                self.phase = Phase::Cycle(CycleStage::EarAwaitReady);
            }
        } else if self.node == z {
            self.ear_next = Some(path[1]);
            self.phase = Phase::Cycle(CycleStage::EarAwaitCoordPulse);
            self.try_consume_coord_pulse();
        } else if let Some(pos) = path.iter().position(|&v| v == self.node) {
            self.ear_prev = Some(path[pos - 1]);
            self.ear_next = Some(path[pos + 1]);
            self.phase = Phase::Cycle(CycleStage::EarAwaitReady);
        } else {
            self.phase = Phase::Cycle(CycleStage::EarAwaitReady);
        }
    }

    /// Consumes the ear coordination pulse once this node (z, or the root of
    /// a closed ear) is waiting for it (Algorithm 4(b) lines 46/50), then
    /// broadcasts `⟨ready⟩`.
    fn try_consume_coord_pulse(&mut self) {
        if self.phase != Phase::Cycle(CycleStage::EarAwaitCoordPulse) {
            return;
        }
        let Some(prev) = self.ear_prev else { return };
        let Some(count) = self.pending_coord.get_mut(&prev) else {
            return;
        };
        if *count == 0 {
            return;
        }
        *count -= 1;
        self.enqueue_main(WireDest::Broadcast, &ControlMsg::Ready);
        self.phase = Phase::Cycle(CycleStage::EarAwaitReady);
    }

    /// Algorithm 4(b) lines 53–55: on `⟨ready⟩`, the nodes of the ear cycle
    /// switch to it and run `Π_learnID` (the root as the token holder);
    /// everyone else waits for `⟨NewCycle⟩`.
    fn process_ready(&mut self) {
        if self.ear_prev.is_some() && self.ear_next.is_some() {
            let prev = self.ear_prev.expect("checked");
            let next = self.ear_next.expect("checked");
            let view = LocalCycleView::from_simple(self.node, prev, next);
            match RobbinsEngine::new(view, self.is_current_root, self.encoding) {
                Ok(engine) => self.ear = Some(engine),
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
            self.phase = Phase::Cycle(CycleStage::EarLearnId);
            if self.is_current_root {
                self.enqueue_ear(
                    WireDest::Node(next),
                    &ControlMsg::LearnIdCollect {
                        ids: vec![self.node],
                    },
                );
            }
            // The first learn-ID pulses of the new ear cycle can overtake this
            // node's processing of ⟨ready⟩ (the ear endpoint z broadcasts
            // ⟨ready⟩ and processes its own copy last); replay any such
            // buffered pulses into the fresh ear engine.
            for nbr in [prev, next] {
                while self.pending_coord.get(&nbr).copied().unwrap_or(0) > 0 {
                    *self.pending_coord.get_mut(&nbr).expect("present") -= 1;
                    if let Some(e) = &mut self.ear {
                        e.on_pulse(nbr);
                    }
                }
            }
        } else {
            self.phase = Phase::Cycle(CycleStage::EarAwaitNewCycle);
        }
    }
}

/// Builds one construction-only node per node of the graph, with
/// `designated_root` as the paper's pre-selected root: a [`FullSimulator`]
/// over the silent protocol `()`, whose [`cycle`](FullSimulator::cycle) is
/// the constructed cycle once it is online. The Theorem 15 tests, the
/// construction benchmarks and the construct-once checkpoint
/// ([`crate::checkpoint::ConstructionCheckpoint::capture`]) run these.
///
/// # Errors
///
/// Returns an error if the graph is not 2-edge-connected or is too large for
/// the wire format.
pub fn construction_simulators(
    graph: &Graph,
    designated_root: NodeId,
    encoding: Encoding,
) -> Result<Vec<FullSimulator<()>>, CoreError> {
    full_simulators(graph, designated_root, encoding, |_| ())
}
