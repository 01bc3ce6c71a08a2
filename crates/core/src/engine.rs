//! The per-node content-oblivious engine for cycles — Algorithms 1 and 3.
//!
//! [`RobbinsEngine`] is a faithful state-machine rendering of the paper's
//! Algorithm 3(a)+(b) (token phase + data phase over a Robbins cycle), with
//! the Algorithm 2 binary encoding as an alternative data phase. A node on a
//! *simple* cycle is just the special case of a single occurrence
//! (`k_u = 1`), in which the engine degenerates to Algorithm 1 — the
//! simple-cycle simulator of Theorem 4 is therefore the same engine fed with
//! a [`LocalCycleView::from_simple`] view.
//!
//! The engine is deliberately independent of the network-simulation layer: it
//! consumes *pulse arrival* events (`on_pulse(from)`) and message enqueue
//! requests, and produces pulse send requests and decoded message
//! deliveries. [`crate::full::FullSimulator`] adapts it to the
//! `fdn_netsim::PulseReactor` interface, whose handler receives the same
//! pulse arrival events; the Robbins-cycle construction drives it directly.
//!
//! The paper's blocking pseudo-code ("wait until …") is rendered as explicit
//! *wait points* plus per-port pending-pulse counters; the internal
//! `progress()` loop consumes pending pulses exactly as the blocking code
//! would. A port is one distinct cycle neighbour. Every wait point waits for
//! `prev_{u,i}` or `next_{u,i}` of some occurrence `i`, so each occurrence
//! holds the indices of its two ports: a pulse's sender is resolved to its
//! port once, on arrival, and every check after that is an index read.
//! Comments reference the pseudo-code line numbers of Algorithm 3 (and
//! Algorithm 2 for the binary data phase).

use std::collections::VecDeque;

use fdn_graph::cycle::{CycleDirection, LocalCycleView};
use fdn_graph::NodeId;

use crate::encoding::{self, Encoding};
use crate::error::CoreError;
use crate::wire::WireMessage;

/// A pulse send request produced by the engine: the pulse must be sent to
/// this neighbour. Pulses are content-less; receivers ignore whatever bytes
/// actually travel.
pub type PulseTo = NodeId;

/// One distinct neighbour of the node on the cycle.
#[derive(Debug, Clone)]
struct Port {
    nbr: NodeId,
    /// The direction pulses from `nbr` travel: clockwise from a `prev`,
    /// counterclockwise from a `next`. A Robbins cycle never uses an edge in
    /// both directions, so every neighbour is one or the other.
    dir: CycleDirection,
    /// Pulses received from `nbr` and not yet consumed by a wait point.
    pending: usize,
}

/// The ports of one occurrence's `prev` and `next` neighbours.
#[derive(Debug, Clone, Copy)]
struct OccurrencePorts {
    prev: usize,
    next: usize,
}

/// The wait points of Algorithm 3, plus the data-phase sub-machines.
#[derive(Debug, Clone)]
enum State {
    /// Line 1: waiting for the queue to become non-empty or for a clockwise
    /// REQUEST pulse.
    AwaitTrigger,
    /// Line 3: waiting to receive one REQUEST per occurrence. `debt[p]` is
    /// the number still owed by port `p`: the occurrences whose `prev` it is,
    /// less the REQUESTs consumed so far.
    AwaitRequests { debt: Vec<usize> },
    /// Line 8: waiting for a TOKEN (counterclockwise) or the first DATA
    /// (clockwise) pulse.
    AwaitPulse,
    /// Data phase as the token holder (Algorithm 3(b) lines 19–30, or the
    /// Algorithm 2 sender).
    Sender(SenderState),
    /// Data phase as a non-holder (Algorithm 3(b) lines 32–44, or the
    /// Algorithm 2 receiver).
    Receiver(ReceiverState),
}

/// The sequence of full-cycle circulations a sender must perform for the
/// current message.
#[derive(Debug, Clone)]
enum PulsePlan {
    /// Unary: `d` clockwise DATA circulations followed by one
    /// counterclockwise END circulation.
    Unary {
        data_remaining: u128,
        end_pending: bool,
    },
    /// Binary: one circulation per bit of the frame `Z` (clockwise for 1,
    /// counterclockwise for 0).
    Binary { bits: Vec<bool>, idx: usize },
}

impl PulsePlan {
    fn next(&mut self) -> Option<CycleDirection> {
        match self {
            PulsePlan::Unary {
                data_remaining,
                end_pending,
            } => {
                if *data_remaining > 0 {
                    *data_remaining -= 1;
                    Some(CycleDirection::Clockwise)
                } else if *end_pending {
                    *end_pending = false;
                    Some(CycleDirection::Counterclockwise)
                } else {
                    None
                }
            }
            PulsePlan::Binary { bits, idx } => {
                let bit = *bits.get(*idx)?;
                *idx += 1;
                Some(if bit {
                    CycleDirection::Clockwise
                } else {
                    CycleDirection::Counterclockwise
                })
            }
        }
    }
}

/// Progress of one pulse travelling around the whole cycle, sequenced through
/// the sender's occurrences (Algorithm 3(b) lines 21–30).
#[derive(Debug, Clone, Copy)]
struct Circulation {
    dir: CycleDirection,
    /// Clockwise: the occurrence whose `next` was last sent to (counting up).
    /// Counterclockwise: counting down from `k - 1`.
    step: usize,
    /// The port the engine is waiting to hear the pulse back from.
    awaiting: usize,
}

#[derive(Debug, Clone)]
struct SenderState {
    message: WireMessage,
    plan: PulsePlan,
    current: Option<Circulation>,
}

#[derive(Debug, Clone)]
struct UnaryReceiver {
    /// Occurrence at which the next clockwise DATA pulse is expected.
    cw_occ: usize,
    /// Number of complete DATA circulations observed (counted at
    /// occurrence 0).
    count: u128,
    /// `None` while still in the DATA loop; `Some(i)` while forwarding the
    /// END pulse, waiting for it at occurrence `i` (counting down).
    end_occ: Option<usize>,
}

#[derive(Debug, Clone)]
struct BinaryReceiver {
    cw_occ: usize,
    ccw_occ: usize,
    bits: Vec<bool>,
    zero_run: usize,
    terminal: bool,
}

#[derive(Debug, Clone)]
enum ReceiverState {
    Unary(UnaryReceiver),
    Binary(BinaryReceiver),
}

/// The per-node engine of the content-oblivious cycle simulator.
///
/// Feed it pulse arrivals with [`on_pulse`](Self::on_pulse) and simulated
/// messages with [`enqueue`](Self::enqueue); drain the pulses it wants to
/// send with [`drain_outgoing`](Self::drain_outgoing) and the messages it has
/// decoded with [`take_delivered`](Self::take_delivered).
///
/// The engine is `Clone`: its state is plain data, which is what allows the
/// construct-once checkpoint ([`crate::checkpoint`]) to freeze an idle engine
/// at the construction/online boundary and re-hand copies of it to many
/// replay runs.
#[derive(Debug, Clone)]
pub struct RobbinsEngine {
    node: NodeId,
    view: LocalCycleView,
    /// The distinct cycle neighbours, in id order.
    ports: Vec<Port>,
    /// Per occurrence of `view`, in the same (rotated) order.
    occ_ports: Vec<OccurrencePorts>,
    is_token_holder: bool,
    encoding: Encoding,
    queue: VecDeque<WireMessage>,
    state: State,
    outgoing: Vec<PulseTo>,
    delivered: Vec<WireMessage>,
    pulses_sent: u64,
    pulses_received: u64,
    epochs_completed: u64,
    error: Option<CoreError>,
}

impl RobbinsEngine {
    /// Creates the engine for one node.
    ///
    /// * `view` — the node's local view of the cycle, numbered so that the
    ///   token lies in segment 0 (Remark 4).
    /// * `is_token_holder` — exactly one node in the whole cycle starts as
    ///   the token holder (its occurrence 0 is the token occurrence).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid encoding parameters or a view that uses
    /// an edge in both directions.
    pub fn new(
        view: LocalCycleView,
        is_token_holder: bool,
        encoding: Encoding,
    ) -> Result<Self, CoreError> {
        encoding.validate()?;
        let node = view.node();
        let mut ports: Vec<Port> = Vec::new();
        for occ in view.occurrences() {
            for (nbr, dir) in [
                (occ.prev, CycleDirection::Clockwise),
                (occ.next, CycleDirection::Counterclockwise),
            ] {
                match ports.iter().find(|p| p.nbr == nbr) {
                    Some(p) if p.dir != dir => {
                        return Err(CoreError::InvalidCycle(format!(
                            "edge ({nbr}, {node}) is used in both directions"
                        )));
                    }
                    Some(_) => {}
                    None => ports.push(Port {
                        nbr,
                        dir,
                        pending: 0,
                    }),
                }
            }
        }
        ports.sort_unstable_by_key(|p| p.nbr);
        let port_of = |nbr: NodeId| {
            ports
                .iter()
                .position(|p| p.nbr == nbr)
                .expect("every occurrence neighbour has a port")
        };
        let occ_ports = view
            .occurrences()
            .iter()
            .map(|occ| OccurrencePorts {
                prev: port_of(occ.prev),
                next: port_of(occ.next),
            })
            .collect();
        Ok(RobbinsEngine {
            node,
            view,
            ports,
            occ_ports,
            is_token_holder,
            encoding,
            queue: VecDeque::new(),
            state: State::AwaitTrigger,
            outgoing: Vec::new(),
            delivered: Vec::new(),
            pulses_sent: 0,
            pulses_received: 0,
            epochs_completed: 0,
            error: None,
        })
    }

    /// Rebuilds an **idle** boundary engine from the serialized checkpoint
    /// fields: the rotated view, token flag, encoding and the pulse/epoch
    /// counters frozen at the construction/online boundary. Everything else
    /// about an idle engine (empty queue, no pending pulses, `AwaitTrigger`
    /// wait point, ports derived from the view) is reconstructed, so an engine
    /// that was idle when encoded round-trips exactly.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn resume_idle(
        view: LocalCycleView,
        is_token_holder: bool,
        encoding: Encoding,
        pulses_sent: u64,
        pulses_received: u64,
        epochs_completed: u64,
    ) -> Result<Self, CoreError> {
        let mut engine = Self::new(view, is_token_holder, encoding)?;
        engine.pulses_sent = pulses_sent;
        engine.pulses_received = pulses_received;
        engine.epochs_completed = epochs_completed;
        Ok(engine)
    }

    /// The node this engine runs at.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's (rotated) local view of the cycle the engine runs over.
    pub fn view(&self) -> &LocalCycleView {
        &self.view
    }

    /// The data-phase encoding the engine was configured with.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Whether this node currently holds the token.
    pub fn is_token_holder(&self) -> bool {
        self.is_token_holder
    }

    /// Number of pulses this node has asked to send so far.
    pub fn pulses_sent(&self) -> u64 {
        self.pulses_sent
    }

    /// Number of pulses this node has received so far.
    pub fn pulses_received(&self) -> u64 {
        self.pulses_received
    }

    /// Number of epochs (one simulated message each) this node has completed.
    pub fn epochs_completed(&self) -> u64 {
        self.epochs_completed
    }

    /// Number of messages still waiting in the node's queue `Q_u`.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Render-stable label of the engine's Algorithm 3 wait point, for stall
    /// diagnostics and traces (never parsed back).
    pub fn state_label(&self) -> &'static str {
        match self.state {
            State::AwaitTrigger => "await-trigger",
            State::AwaitRequests { .. } => "await-requests",
            State::AwaitPulse => "await-pulse",
            State::Sender(_) => "sender",
            State::Receiver(_) => "receiver",
        }
    }

    /// Whether the engine is parked at the top of the token phase with
    /// nothing queued and no unconsumed pulse (the quiescence condition of
    /// Theorem 6/12).
    pub fn is_idle(&self) -> bool {
        matches!(self.state, State::AwaitTrigger)
            && self.queue.is_empty()
            && self.ports.iter().all(|p| p.pending == 0)
    }

    /// A latched fatal error, if the engine observed a protocol violation
    /// (which, given faithful channels, indicates a bug).
    pub fn error(&self) -> Option<&CoreError> {
        self.error.as_ref()
    }

    /// Whether `other` is one of this node's neighbours on the cycle (pulses
    /// from any other node do not belong to this engine).
    pub fn is_cycle_neighbor(&self, other: NodeId) -> bool {
        self.ports.iter().any(|p| p.nbr == other)
    }

    /// Enqueues a simulated message emitted by the inner protocol `π`
    /// (Algorithm 3, "Handling messages sent by π").
    ///
    /// # Errors
    ///
    /// Returns an error if the message cannot be represented in the wire
    /// format or exceeds the unary pulse budget. The queue is left unchanged
    /// on error.
    pub fn enqueue(&mut self, message: WireMessage) -> Result<(), CoreError> {
        let bytes = message.to_bytes()?;
        if let Encoding::Unary { max_pulses } = self.encoding {
            let d = encoding::unary_value(&bytes)?;
            if d > max_pulses {
                return Err(CoreError::MessageTooLargeForUnary {
                    pulses_required: d,
                    max: max_pulses,
                });
            }
        }
        self.queue.push_back(message);
        self.progress();
        Ok(())
    }

    /// Records the arrival of a pulse from neighbour `from` and advances the
    /// state machine. Pulse content is ignored — the engine is
    /// content-oblivious by construction.
    pub fn on_pulse(&mut self, from: NodeId) {
        // The engine's only id-to-port lookup: a scan over at most 2·k_u
        // ports.
        let Some(port) = self.ports.iter_mut().find(|p| p.nbr == from) else {
            self.fail(format!(
                "pulse from {from}, which is not a cycle neighbour of {}",
                self.node
            ));
            return;
        };
        port.pending += 1;
        self.pulses_received += 1;
        self.progress();
    }

    /// Drains the pulses the engine wants to send (in order), in place: the
    /// buffer keeps its capacity for the next event.
    pub fn drain_outgoing(&mut self) -> std::vec::Drain<'_, PulseTo> {
        self.outgoing.drain(..)
    }

    /// Drains the messages decoded since the last call. Every node decodes
    /// every simulated message; the caller filters by destination
    /// (Algorithm 3(b) line 40).
    pub fn take_delivered(&mut self) -> Vec<WireMessage> {
        std::mem::take(&mut self.delivered)
    }

    // ---------------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------------

    fn k(&self) -> usize {
        self.view.occurrence_count()
    }

    fn fail(&mut self, msg: String) {
        if self.error.is_none() {
            self.error = Some(CoreError::ProtocolViolation(msg));
        }
    }

    fn emit(&mut self, to: NodeId) {
        self.pulses_sent += 1;
        self.outgoing.push(to);
    }

    /// The port of occurrence `i`'s counterclockwise neighbour.
    fn prev_port(&self, i: usize) -> usize {
        self.occ_ports[i].prev
    }

    /// The port of occurrence `i`'s clockwise neighbour.
    fn next_port(&self, i: usize) -> usize {
        self.occ_ports[i].next
    }

    /// First port (in neighbour id order) with a pending pulse travelling in
    /// `dir`.
    fn pending_in_dir(&self, dir: CycleDirection) -> Option<usize> {
        self.ports
            .iter()
            .position(|p| p.pending > 0 && p.dir == dir)
    }

    /// Consumes one pending pulse from `port`; returns false if none pending.
    fn consume_from(&mut self, port: usize) -> bool {
        let pending = &mut self.ports[port].pending;
        if *pending == 0 {
            return false;
        }
        *pending -= 1;
        true
    }

    /// The paper's `RotateEdges()` (Algorithm 3 line 10), applied to the view
    /// and to its occurrence ports alike.
    fn rotate_edges(&mut self) {
        self.view.rotate_edges();
        self.occ_ports.rotate_right(1);
    }

    fn complete_epoch(&mut self) {
        self.epochs_completed += 1;
        self.state = State::AwaitTrigger;
    }

    fn deliver_decoded(&mut self, bytes: &[u8]) {
        match WireMessage::from_bytes(bytes) {
            Ok(msg) => self.delivered.push(msg),
            Err(e) => self.error = Some(e),
        }
    }

    /// Starts transmitting the next queued message as the token holder
    /// (Algorithm 3(b) lines 19–20 / Algorithm 2 lines 2–4).
    fn begin_sending(&mut self) {
        let message = self
            .queue
            .pop_front()
            .expect("begin_sending requires a queued message");
        let bytes = match message.to_bytes() {
            Ok(b) => b,
            Err(e) => {
                self.error = Some(e);
                return;
            }
        };
        let plan = match self.encoding {
            Encoding::Unary { .. } => match encoding::unary_value(&bytes) {
                Ok(d) => PulsePlan::Unary {
                    data_remaining: d,
                    end_pending: true,
                },
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            },
            Encoding::Binary { l } => PulsePlan::Binary {
                bits: encoding::frame(&bytes, l),
                idx: 0,
            },
        };
        self.state = State::Sender(SenderState {
            message,
            plan,
            current: None,
        });
    }

    /// Begins a new circulation of one pulse around the whole cycle, emitting
    /// its first hop.
    fn start_circulation(&mut self, dir: CycleDirection) -> Circulation {
        let k = self.k();
        match dir {
            CycleDirection::Clockwise => {
                // Lines 22–24: for i in 0..k: send to next[i]; wait from
                // prev[(i+1) mod k].
                let to = self.view.next(0);
                self.emit(to);
                Circulation {
                    dir,
                    step: 0,
                    awaiting: self.prev_port(1 % k),
                }
            }
            CycleDirection::Counterclockwise => {
                // Lines 27–29: for i in (0..k).rev(): send to prev[(i+1) mod k];
                // wait from next[i].
                let to = self.view.prev(0); // (k-1 + 1) mod k == 0
                self.emit(to);
                Circulation {
                    dir,
                    step: k - 1,
                    awaiting: self.next_port(k - 1),
                }
            }
        }
    }

    /// The wait-point interpreter: repeatedly tries to make progress at the
    /// current wait point by consuming pending pulses / queued messages,
    /// until it gets stuck (which is the normal "waiting" condition).
    fn progress(&mut self) {
        while self.error.is_none() && self.step_once() {}
    }

    fn step_once(&mut self) -> bool {
        match &self.state {
            State::AwaitTrigger => self.step_await_trigger(),
            State::AwaitRequests { .. } => self.step_await_requests(),
            State::AwaitPulse => self.step_await_pulse(),
            State::Sender(_) => self.step_sender(),
            State::Receiver(ReceiverState::Unary(_)) => self.step_receiver_unary(),
            State::Receiver(ReceiverState::Binary(_)) => self.step_receiver_binary(),
        }
    }

    /// Line 1: the token phase begins once the queue is non-empty or a
    /// clockwise REQUEST arrives.
    fn step_await_trigger(&mut self) -> bool {
        let triggered =
            !self.queue.is_empty() || self.pending_in_dir(CycleDirection::Clockwise).is_some();
        if !triggered {
            return false;
        }
        // Line 2: send a REQUEST pulse to next_{u,i} for all i.
        for i in 0..self.k() {
            let to = self.view.next(i);
            self.emit(to);
        }
        // Line 3: one REQUEST is owed per occurrence, by its prev_{u,i}.
        let mut debt = vec![0; self.ports.len()];
        for occ in &self.occ_ports {
            debt[occ.prev] += 1;
        }
        self.state = State::AwaitRequests { debt };
        true
    }

    /// Line 3: consume one REQUEST per owed occurrence, then (lines 4–7) the
    /// holder releases the token.
    fn step_await_requests(&mut self) -> bool {
        let State::AwaitRequests { debt } = &mut self.state else {
            unreachable!("step_await_requests called in a different state")
        };
        let mut progressed = false;
        let mut done = true;
        for (port, owed) in self.ports.iter_mut().zip(debt.iter_mut()) {
            let paid = port.pending.min(*owed);
            if paid > 0 {
                port.pending -= paid;
                *owed -= paid;
                progressed = true;
            }
            done &= *owed == 0;
        }
        if done {
            if self.is_token_holder {
                // Lines 5–6: release the token counterclockwise.
                self.is_token_holder = false;
                let to = self.view.prev(0);
                self.emit(to);
            }
            self.state = State::AwaitPulse;
            return true;
        }
        progressed
    }

    /// Line 8: the next pulse is either the TOKEN (counterclockwise) or the
    /// first DATA pulse of the epoch (clockwise).
    fn step_await_pulse(&mut self) -> bool {
        if let Some(port) = self.pending_in_dir(CycleDirection::Counterclockwise) {
            // Lines 9–16: a counterclockwise pulse here is the TOKEN, and the
            // segment-0 invariant says it arrives from next_{u, k-1}.
            let expected = self.next_port(self.k() - 1);
            if port != expected {
                self.fail(format!(
                    "token pulse arrived from {}, expected from {}",
                    self.ports[port].nbr, self.ports[expected].nbr
                ));
                return false;
            }
            self.consume_from(port);
            // Line 10: RotateEdges().
            self.rotate_edges();
            if !self.queue.is_empty() {
                // Lines 11–12: become the token holder and start the data
                // phase (the first pulse is emitted by the sender step).
                self.is_token_holder = true;
                self.begin_sending();
            } else {
                // Line 14: forward the TOKEN counterclockwise.
                let to = self.view.prev(0);
                self.emit(to);
            }
            return true;
        }
        if self.pending_in_dir(CycleDirection::Clockwise).is_some() {
            // A clockwise pulse here is the first DATA pulse of the epoch; it
            // is left pending and consumed by the receiver ("including the
            // DATA pulse received in the preceding token phase").
            let receiver = match self.encoding {
                Encoding::Unary { .. } => ReceiverState::Unary(UnaryReceiver {
                    cw_occ: 0,
                    count: 0,
                    end_occ: None,
                }),
                Encoding::Binary { .. } => ReceiverState::Binary(BinaryReceiver {
                    cw_occ: 0,
                    ccw_occ: self.k() - 1,
                    bits: Vec::new(),
                    zero_run: 0,
                    terminal: false,
                }),
            };
            self.state = State::Receiver(receiver);
            return true;
        }
        false
    }

    /// Data phase, token holder: drive the current circulation or start the
    /// next one; when the plan is exhausted the epoch ends.
    fn step_sender(&mut self) -> bool {
        let current = match &self.state {
            State::Sender(s) => s.current,
            _ => unreachable!("step_sender called in a different state"),
        };
        match current {
            Some(circ) => {
                if !self.consume_from(circ.awaiting) {
                    return false;
                }
                let k = self.k();
                let next_circ = match circ.dir {
                    CycleDirection::Clockwise => {
                        if circ.step + 1 < k {
                            let step = circ.step + 1;
                            let to = self.view.next(step);
                            self.emit(to);
                            Some(Circulation {
                                dir: circ.dir,
                                step,
                                awaiting: self.prev_port((step + 1) % k),
                            })
                        } else {
                            None
                        }
                    }
                    CycleDirection::Counterclockwise => {
                        if circ.step > 0 {
                            let step = circ.step - 1;
                            let to = self.view.prev((step + 1) % k);
                            self.emit(to);
                            Some(Circulation {
                                dir: circ.dir,
                                step,
                                awaiting: self.next_port(step),
                            })
                        } else {
                            None
                        }
                    }
                };
                if let State::Sender(s) = &mut self.state {
                    s.current = next_circ;
                }
                true
            }
            None => {
                let next_dir = match &mut self.state {
                    State::Sender(s) => s.plan.next(),
                    _ => unreachable!(),
                };
                match next_dir {
                    Some(dir) => {
                        let circ = self.start_circulation(dir);
                        if let State::Sender(s) = &mut self.state {
                            s.current = Some(circ);
                        }
                        true
                    }
                    None => {
                        // The whole message has circulated: the epoch is over
                        // for the sender. Per Remark 3, a broadcasting sender
                        // also processes its own message (it serves as the
                        // synchronization point for the construction).
                        let message = match &self.state {
                            State::Sender(s) => s.message.clone(),
                            _ => unreachable!(),
                        };
                        if message.is_for(self.node) {
                            self.delivered.push(message);
                        }
                        self.complete_epoch();
                        true
                    }
                }
            }
        }
    }

    /// Data phase, non-holder, unary encoding (Algorithm 3(b) lines 32–44).
    fn step_receiver_unary(&mut self) -> bool {
        let (cw_occ, count, end_occ) = match &self.state {
            State::Receiver(ReceiverState::Unary(r)) => (r.cw_occ, r.count, r.end_occ),
            _ => unreachable!("step_receiver_unary called in a different state"),
        };
        let k = self.k();
        if let Some(eo) = end_occ {
            // Lines 41–44: forward the END at the remaining occurrences,
            // counting down.
            if !self.consume_from(self.next_port(eo)) {
                return false;
            }
            let to = self.view.prev(eo);
            self.emit(to);
            if eo == 0 {
                self.complete_epoch();
            } else if let State::Receiver(ReceiverState::Unary(r)) = &mut self.state {
                r.end_occ = Some(eo - 1);
            }
            return true;
        }
        // Line 37: a counterclockwise pulse ends the DATA loop; it arrives at
        // occurrence k-1 first.
        if self.consume_from(self.next_port(k - 1)) {
            // Lines 38–40: decode the unary count and deliver.
            match encoding::unary_decode(count) {
                Ok(bytes) => self.deliver_decoded(&bytes),
                Err(e) => {
                    self.error = Some(e);
                    return false;
                }
            }
            if self.error.is_some() {
                return false;
            }
            // Line 43 (i = k-1): forward the END pulse.
            let to = self.view.prev(k - 1);
            self.emit(to);
            if k == 1 {
                self.complete_epoch();
            } else if let State::Receiver(ReceiverState::Unary(r)) = &mut self.state {
                r.end_occ = Some(k - 2);
            }
            return true;
        }
        // Lines 33–36: the next DATA pulse is owed at occurrence cw_occ.
        if self.consume_from(self.prev_port(cw_occ)) {
            let to = self.view.next(cw_occ);
            self.emit(to);
            if let State::Receiver(ReceiverState::Unary(r)) = &mut self.state {
                if cw_occ == 0 {
                    r.count += 1;
                }
                r.cw_occ = (cw_occ + 1) % k;
            }
            return true;
        }
        false
    }

    /// Data phase, non-holder, binary encoding: the Algorithm 2 receiver
    /// lifted to non-simple cycles by two occurrence cursors.
    ///
    /// A 1-bit circulates clockwise, so it passes this node's occurrences in
    /// increasing order: it is awaited from `prev` of occurrence `cw_occ`
    /// and forwarded to that occurrence's `next`. A 0-bit circulates
    /// counterclockwise and passes them in decreasing order, tracked by
    /// `ccw_occ` (from `next`, forwarded to `prev`). The sender lies in
    /// segment 0, so a clockwise pulse reaches occurrence 0 first and a
    /// counterclockwise one reaches occurrence `k-1` first: each bit is
    /// recorded once, at that first arrival. After `l` zeros in a row the
    /// frame's terminal is seen. From then on a clockwise pulse is a
    /// next-epoch REQUEST and stays pending, and the epoch ends once the
    /// last zero has been forwarded at occurrence 0.
    fn step_receiver_binary(&mut self) -> bool {
        let l = match self.encoding {
            Encoding::Binary { l } => l,
            Encoding::Unary { .. } => unreachable!("binary receiver under unary encoding"),
        };
        let k = self.k();
        let (cw_occ, ccw_occ, terminal) = match &self.state {
            State::Receiver(ReceiverState::Binary(r)) => (r.cw_occ, r.ccw_occ, r.terminal),
            _ => unreachable!("step_receiver_binary called in a different state"),
        };
        // Counterclockwise pulses (0-bits / terminal zeros) are expected at
        // occurrence ccw_occ, counting down.
        if self.consume_from(self.next_port(ccw_occ)) {
            let mut now_terminal = terminal;
            if let State::Receiver(ReceiverState::Binary(r)) = &mut self.state {
                if ccw_occ == k - 1 {
                    // First arrival of this pulse: record a 0 bit.
                    r.bits.push(false);
                    r.zero_run += 1;
                    if r.zero_run == l {
                        r.terminal = true;
                    }
                }
                r.ccw_occ = (ccw_occ + k - 1) % k;
                now_terminal = r.terminal;
            }
            let to = self.view.prev(ccw_occ);
            self.emit(to);
            if now_terminal && ccw_occ == 0 {
                // The last trailing zero has been forwarded at every
                // occurrence: parse the recorded frame and finish the epoch.
                let bits = match &mut self.state {
                    State::Receiver(ReceiverState::Binary(r)) => std::mem::take(&mut r.bits),
                    _ => unreachable!(),
                };
                match encoding::parse_frame(&bits, l) {
                    Ok(bytes) => self.deliver_decoded(&bytes),
                    Err(e) => {
                        self.error = Some(e);
                        return false;
                    }
                }
                if self.error.is_some() {
                    return false;
                }
                self.complete_epoch();
            }
            return true;
        }
        // Clockwise pulses (1-bits) are expected at occurrence cw_occ — but
        // only until the terminal is detected; afterwards any clockwise pulse
        // is a next-epoch REQUEST and must stay pending.
        if !terminal && self.consume_from(self.prev_port(cw_occ)) {
            let to = self.view.next(cw_occ);
            self.emit(to);
            if let State::Receiver(ReceiverState::Binary(r)) = &mut self.state {
                if cw_occ == 0 {
                    r.bits.push(true);
                    r.zero_run = 0;
                }
                r.cw_occ = (cw_occ + 1) % k;
            }
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdn_graph::cycle::Occurrence;
    use fdn_netsim::Dest;

    fn simple_view(node: u32, prev: u32, next: u32) -> LocalCycleView {
        LocalCycleView::from_simple(NodeId(node), NodeId(prev), NodeId(next))
    }

    #[test]
    fn engine_construction_and_accessors() {
        let e = RobbinsEngine::new(simple_view(1, 0, 2), false, Encoding::binary()).unwrap();
        assert_eq!(e.node(), NodeId(1));
        assert!(!e.is_token_holder());
        assert!(e.is_idle());
        assert_eq!(e.pulses_sent(), 0);
        assert_eq!(e.pulses_received(), 0);
        assert_eq!(e.epochs_completed(), 0);
        assert_eq!(e.queue_len(), 0);
        assert!(e.error().is_none());
        assert!(e.is_cycle_neighbor(NodeId(0)));
        assert!(e.is_cycle_neighbor(NodeId(2)));
        assert!(!e.is_cycle_neighbor(NodeId(3)));
    }

    #[test]
    fn rejects_invalid_encoding_and_bad_view() {
        assert!(
            RobbinsEngine::new(simple_view(1, 0, 2), false, Encoding::Binary { l: 1 }).is_err()
        );
        // A neighbour appearing both as prev and as next means the edge is
        // used in both directions — not a Robbins cycle.
        let bad = LocalCycleView::new(
            NodeId(1),
            vec![
                Occurrence {
                    prev: NodeId(0),
                    next: NodeId(2),
                },
                Occurrence {
                    prev: NodeId(2),
                    next: NodeId(3),
                },
            ],
        );
        assert!(RobbinsEngine::new(bad, false, Encoding::binary()).is_err());
    }

    #[test]
    fn enqueue_validates_unary_budget() {
        let mut e = RobbinsEngine::new(
            simple_view(0, 2, 1),
            true,
            Encoding::Unary { max_pulses: 100 },
        )
        .unwrap();
        let big = WireMessage::to_node(NodeId(0), NodeId(1), vec![0xFF, 0xFF]);
        assert!(matches!(
            e.enqueue(big),
            Err(CoreError::MessageTooLargeForUnary { .. })
        ));
        assert_eq!(e.queue_len(), 0);
        // Even an empty payload needs 2 header bytes -> d = 65537 > 100.
        let small = WireMessage::to_node(NodeId(0), NodeId(1), vec![]);
        assert!(e.enqueue(small).is_err());
    }

    #[test]
    fn pulse_from_non_neighbor_latches_error() {
        let mut e = RobbinsEngine::new(simple_view(1, 0, 2), false, Encoding::binary()).unwrap();
        e.on_pulse(NodeId(7));
        assert!(matches!(e.error(), Some(CoreError::ProtocolViolation(_))));
    }

    #[test]
    fn holder_with_queued_message_requests_and_waits() {
        // Node 0 on the 3-cycle 0 -> 1 -> 2 -> 0, holder, binary encoding.
        let mut e = RobbinsEngine::new(simple_view(0, 2, 1), true, Encoding::binary()).unwrap();
        e.enqueue(WireMessage::broadcast(NodeId(0), vec![]))
            .unwrap();
        // Line 2: a clockwise REQUEST to its next (node 1).
        assert!(e.drain_outgoing().eq([NodeId(1)]));
        assert!(!e.is_idle());
        // When the REQUEST from its prev (node 2) arrives, it releases the
        // token counterclockwise (to node 2).
        e.on_pulse(NodeId(2));
        assert!(e.drain_outgoing().eq([NodeId(2)]));
        assert!(!e.is_token_holder());
        // The token comes back around the cycle (from node 1): node 0
        // re-acquires it and starts the data phase with a clockwise pulse
        // (the frame's leading 1) to node 1.
        e.on_pulse(NodeId(1));
        assert!(e.is_token_holder());
        assert!(e.drain_outgoing().eq([NodeId(1)]));
    }

    /// Hand-driven relay loop over a simple cycle of `engines`.
    fn relay(engines: &mut [RobbinsEngine], mut inflight: Vec<(NodeId, NodeId)>, limit: usize) {
        let mut steps = 0;
        while let Some((from, to)) = inflight.pop() {
            steps += 1;
            assert!(
                steps < limit,
                "exchange did not terminate within {limit} deliveries"
            );
            let idx = to.index();
            engines[idx].on_pulse(from);
            assert!(
                engines[idx].error().is_none(),
                "engine {idx}: {:?}",
                engines[idx].error()
            );
            inflight.extend(engines[idx].drain_outgoing().map(|next_to| (to, next_to)));
        }
    }

    fn simple_cycle_engines(n: u32, holder: u32, encoding: Encoding) -> Vec<RobbinsEngine> {
        (0..n)
            .map(|i| {
                let view = simple_view(i, (i + n - 1) % n, (i + 1) % n);
                RobbinsEngine::new(view, i == holder, encoding).unwrap()
            })
            .collect()
    }

    #[test]
    fn three_node_manual_binary_exchange_delivers_message() {
        let mut engines = simple_cycle_engines(3, 0, Encoding::binary());
        engines[0]
            .enqueue(WireMessage::broadcast(NodeId(0), vec![0xA5]))
            .unwrap();
        let inflight: Vec<(NodeId, NodeId)> = engines[0]
            .drain_outgoing()
            .map(|to| (NodeId(0), to))
            .collect();
        relay(&mut engines, inflight, 10_000);
        for (i, e) in engines.iter_mut().enumerate() {
            let delivered = e.take_delivered();
            assert_eq!(delivered.len(), 1, "engine {i} delivered {delivered:?}");
            assert_eq!(delivered[0].src, NodeId(0));
            assert_eq!(delivered[0].dest, Dest::Broadcast);
            assert_eq!(delivered[0].payload, vec![0xA5]);
            assert_eq!(e.epochs_completed(), 1);
        }
        assert_eq!(engines.iter().filter(|e| e.is_token_holder()).count(), 1);
        assert!(engines.iter().all(RobbinsEngine::is_idle));
    }

    #[test]
    fn three_node_manual_unary_exchange_delivers_message() {
        let mut engines = simple_cycle_engines(3, 0, Encoding::unary());
        // Node 1 wants to send to node 2; it must first obtain the token.
        engines[1]
            .enqueue(WireMessage::to_node(NodeId(1), NodeId(2), vec![]))
            .unwrap();
        let inflight: Vec<(NodeId, NodeId)> = engines[1]
            .drain_outgoing()
            .map(|to| (NodeId(1), to))
            .collect();
        relay(&mut engines, inflight, 1_000_000);
        // Node 2 received the message addressed to it; node 0 decoded it too
        // (and would discard it at the reactor layer); node 1 sent it.
        let d2 = engines[2].take_delivered();
        assert_eq!(d2.len(), 1);
        assert!(d2[0].is_for(NodeId(2)));
        assert_eq!(d2[0].src, NodeId(1));
        let d0 = engines[0].take_delivered();
        assert_eq!(d0.len(), 1);
        assert!(!d0[0].is_for(NodeId(0)));
        assert!(engines[1].take_delivered().is_empty());
        assert!(engines[1].is_token_holder());
    }

    #[test]
    fn multiple_messages_from_multiple_senders() {
        let mut engines = simple_cycle_engines(4, 0, Encoding::binary());
        engines[2]
            .enqueue(WireMessage::broadcast(NodeId(2), vec![1, 2]))
            .unwrap();
        engines[3]
            .enqueue(WireMessage::broadcast(NodeId(3), vec![3]))
            .unwrap();
        let mut inflight: Vec<(NodeId, NodeId)> = Vec::new();
        for i in [2usize, 3] {
            inflight.extend(engines[i].drain_outgoing().map(|to| (NodeId(i as u32), to)));
        }
        relay(&mut engines, inflight, 100_000);
        for (i, e) in engines.iter_mut().enumerate() {
            let delivered = e.take_delivered();
            assert_eq!(delivered.len(), 2, "engine {i}");
            let mut srcs: Vec<u32> = delivered.iter().map(|m| m.src.0).collect();
            srcs.sort();
            assert_eq!(srcs, vec![2, 3]);
            assert_eq!(e.epochs_completed(), 2);
        }
        assert!(engines.iter().all(RobbinsEngine::is_idle));
    }

    #[test]
    fn non_simple_cycle_delivers_broadcast() {
        // The figure-1 Robbins cycle 3 0 1 2 3 4 1 2 (node 3 and others occur
        // twice); the token holder is the node at position 0 (node 3).
        let cycle = fdn_graph::RobbinsCycle::new(
            [3u32, 0, 1, 2, 3, 4, 1, 2]
                .iter()
                .map(|&x| NodeId(x))
                .collect(),
        )
        .unwrap();
        let mut engines: Vec<RobbinsEngine> = (0..5)
            .map(|i| {
                let view = cycle.local_view(NodeId(i)).unwrap();
                RobbinsEngine::new(view, i == 3, Encoding::binary()).unwrap()
            })
            .collect();
        engines[4]
            .enqueue(WireMessage::broadcast(NodeId(4), vec![0x5A, 0x11]))
            .unwrap();
        let inflight: Vec<(NodeId, NodeId)> = engines[4]
            .drain_outgoing()
            .map(|to| (NodeId(4), to))
            .collect();
        relay(&mut engines, inflight, 100_000);
        for (i, e) in engines.iter_mut().enumerate() {
            let delivered = e.take_delivered();
            assert_eq!(delivered.len(), 1, "engine {i}");
            assert_eq!(delivered[0].payload, vec![0x5A, 0x11]);
            assert_eq!(e.epochs_completed(), 1, "engine {i}");
        }
        assert!(engines.iter().all(RobbinsEngine::is_idle));
        assert_eq!(engines.iter().filter(|e| e.is_token_holder()).count(), 1);
        assert!(engines[4].is_token_holder());
    }

    fn figure1_engines() -> Vec<RobbinsEngine> {
        let cycle = fdn_graph::RobbinsCycle::new(
            [3u32, 0, 1, 2, 3, 4, 1, 2]
                .iter()
                .map(|&x| NodeId(x))
                .collect(),
        )
        .unwrap();
        (0..5)
            .map(|i| {
                let view = cycle.local_view(NodeId(i)).unwrap();
                RobbinsEngine::new(view, i == 3, Encoding::binary()).unwrap()
            })
            .collect()
    }

    /// Like [`relay`], but each delivery is a seeded pick among all pulses
    /// in flight (SplitMix64), so every seed is a different delivery order.
    fn relay_seeded(engines: &mut [RobbinsEngine], mut inflight: Vec<(NodeId, NodeId)>, seed: u64) {
        let mut state = seed;
        let mut steps = 0;
        while !inflight.is_empty() {
            steps += 1;
            assert!(steps < 100_000, "seed {seed}: exchange did not terminate");
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let pick = usize::try_from(z % inflight.len() as u64).unwrap();
            let (from, to) = inflight.remove(pick);
            let idx = to.index();
            engines[idx].on_pulse(from);
            assert!(
                engines[idx].error().is_none(),
                "seed {seed}, engine {idx}: {:?}",
                engines[idx].error()
            );
            inflight.extend(engines[idx].drain_outgoing().map(|next_to| (to, next_to)));
        }
    }

    /// Pinned per-node counters of three broadcasts over the figure-1 cycle
    /// `3 0 1 2 3 4 1 2`, under 8 seeded delivery orders. Node 2 has
    /// `prev = 1` at both of its occurrences and node 1 has `next = 2` at
    /// both, so a REQUEST debt of two from one neighbour and a port shared by
    /// two occurrences are both on the path.
    #[test]
    fn figure1_broadcasts_pin_counts_under_seeded_orders() {
        // (pulses_sent, pulses_received, epochs_completed) per node 0..5.
        const PINNED: [(u64, u64, u64); 5] = [
            (106, 107, 3),
            (214, 214, 3),
            (214, 214, 3),
            (214, 213, 3),
            (107, 107, 3),
        ];
        let messages = [
            WireMessage::broadcast(NodeId(2), vec![0x21]),
            WireMessage::broadcast(NodeId(4), vec![0x5A, 0x11]),
            WireMessage::broadcast(NodeId(0), vec![]),
        ];
        for seed in 0..8u64 {
            let mut engines = figure1_engines();
            let mut inflight = Vec::new();
            for msg in &messages {
                let src = msg.src;
                engines[src.index()].enqueue(msg.clone()).unwrap();
                inflight.extend(engines[src.index()].drain_outgoing().map(|to| (src, to)));
            }
            relay_seeded(&mut engines, inflight, seed);
            assert!(engines.iter().all(RobbinsEngine::is_idle), "seed {seed}");
            let counts: Vec<(u64, u64, u64)> = engines
                .iter()
                .map(|e| (e.pulses_sent(), e.pulses_received(), e.epochs_completed()))
                .collect();
            assert_eq!(counts, PINNED, "seed {seed}");
            let holders: Vec<usize> = (0..5).filter(|&i| engines[i].is_token_holder()).collect();
            assert_eq!(holders, [0], "seed {seed}");
            for (i, e) in engines.iter_mut().enumerate() {
                assert_eq!(e.take_delivered(), messages, "seed {seed}, node {i}");
            }
        }
    }

    #[test]
    fn repeated_prev_owes_one_request_per_occurrence() {
        // Node 2 of the figure-1 cycle has prev = 1 at both occurrences, so
        // its token phase waits for two REQUESTs from node 1.
        let mut e = figure1_engines().swap_remove(2);
        e.enqueue(WireMessage::broadcast(NodeId(2), vec![]))
            .unwrap();
        assert!(e.drain_outgoing().eq([NodeId(3), NodeId(3)]));
        assert_eq!(e.state_label(), "await-requests");
        e.on_pulse(NodeId(1));
        assert_eq!(e.state_label(), "await-requests");
        e.on_pulse(NodeId(1));
        assert_eq!(e.state_label(), "await-pulse");
        assert!(e.error().is_none());
    }
}
