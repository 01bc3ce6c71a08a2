//! The node runtime interface.

use fdn_graph::NodeId;

use crate::envelope::Payload;
use crate::observer::PhaseEvent;

/// The per-event execution context handed to a [`Reactor`]: identifies the
/// node, exposes its neighbourhood, collects outgoing messages and — when an
/// observer is attached — semantic phase markers.
#[derive(Debug)]
pub struct Context<'a> {
    node: NodeId,
    neighbors: &'a [NodeId],
    outbox: Vec<(NodeId, Payload)>,
    markers: Vec<PhaseEvent>,
    markers_enabled: bool,
}

impl<'a> Context<'a> {
    /// Creates a context for `node` with the given (sorted) neighbour list.
    pub fn new(node: NodeId, neighbors: &'a [NodeId]) -> Self {
        Self::with_outbox(node, neighbors, Vec::new())
    }

    /// Like [`new`](Self::new), but queues sends into `outbox`, an empty
    /// buffer the engine lends for one event and takes back with
    /// [`take_outbox`](Self::take_outbox), so that its capacity is reused.
    pub(crate) fn with_outbox(
        node: NodeId,
        neighbors: &'a [NodeId],
        outbox: Vec<(NodeId, Payload)>,
    ) -> Self {
        debug_assert!(outbox.is_empty(), "a lent outbox must be empty");
        Context {
            node,
            neighbors,
            outbox,
            markers: Vec::new(),
            markers_enabled: false,
        }
    }

    /// The node this context belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's neighbours in the communication graph.
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// Queues a message to neighbour `to`. Validity (non-empty payload,
    /// `to` actually being a neighbour) is checked by the simulation engine
    /// when the event handler returns. A broadcast can serialize once and
    /// pass a shared [`Payload`] clone per neighbour; `Vec<u8>` still
    /// converts implicitly for one-off messages.
    pub fn send(&mut self, to: NodeId, payload: impl Into<Payload>) {
        self.outbox.push((to, payload.into()));
    }

    /// Number of messages queued so far in this event.
    pub fn pending_sends(&self) -> usize {
        self.outbox.len()
    }

    /// Drains the queued messages (used by the engine).
    pub fn take_outbox(&mut self) -> Vec<(NodeId, Payload)> {
        std::mem::take(&mut self.outbox)
    }

    /// Switches phase-marker collection on. Called by the engine when the
    /// attached observer has [`Observer::ENABLED`](crate::Observer::ENABLED)
    /// set; reactors never call this.
    pub fn enable_markers(&mut self) {
        self.markers_enabled = true;
    }

    /// Whether phase markers are being collected. Reactors may consult this
    /// to skip work that only feeds markers (e.g. snapshotting state to
    /// detect a transition).
    pub fn markers_enabled(&self) -> bool {
        self.markers_enabled
    }

    /// Records a semantic phase marker. The engine hands an event's markers
    /// to the observer in the order they were recorded, stamped with the
    /// delivery count, before it queues the event's sends. A no-op (no
    /// allocation) unless an observer enabled marker collection.
    pub fn marker(&mut self, event: PhaseEvent) {
        if self.markers_enabled {
            self.markers.push(event);
        }
    }

    /// Drains the recorded markers, in recording order (used by the engine).
    pub fn take_markers(&mut self) -> Vec<PhaseEvent> {
        std::mem::take(&mut self.markers)
    }
}

/// How the engine hands delivered messages to a [`Reactor`], read from
/// [`Reactor::DELIVERY`].
///
/// Only the blanket [`Reactor`] impl over [`PulseReactor`] can select the
/// pulse path: the value has no public constructor, so a reactor that
/// implements [`Reactor`] directly always receives content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery(Path);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    Content,
    Pulse,
}

impl Delivery {
    /// Every delivery runs through [`NoiseModel::deliver`](crate::NoiseModel::deliver)
    /// and the receiver reads the bytes it returns.
    pub const CONTENT: Delivery = Delivery(Path::Content);

    /// The noise model only decides whether a message survives
    /// ([`NoiseModel::passes`](crate::NoiseModel::passes)), and the receiver
    /// learns the sender alone.
    const PULSE: Delivery = Delivery(Path::Pulse);

    /// Whether deliveries carry no content.
    pub const fn is_pulse(self) -> bool {
        matches!(self.0, Path::Pulse)
    }
}

/// An event-driven node: the unit of execution of the simulator.
///
/// A reactor is invoked once at start-up and then once per delivered message.
/// All its communication goes through the [`Context`]. The noiseless baseline
/// runner implements this trait directly; the paper's content-oblivious
/// simulators (`fdn-core`) implement [`PulseReactor`] and are reactors
/// through its blanket impl.
pub trait Reactor {
    /// How the engine hands deliveries to this reactor. Only the blanket impl
    /// over [`PulseReactor`] sets the pulse path; a direct impl keeps
    /// [`Delivery::CONTENT`].
    const DELIVERY: Delivery = Delivery::CONTENT;

    /// Called once, before any message is delivered.
    fn on_start(&mut self, ctx: &mut Context);

    /// Called when a message from `from` is delivered with (possibly
    /// corrupted) `payload`.
    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context);

    /// The node's irrevocable output, if it has produced one.
    fn output(&self) -> Option<Vec<u8>> {
        None
    }
}

/// A content-oblivious node, as in the paper's model: it acts on a pulse's
/// arrival and on which neighbour sent it, and its handler receives no
/// payload, so it cannot read content.
///
/// Every `PulseReactor` is a [`Reactor`] through a blanket impl, whose
/// deliveries take the pulse path ([`Delivery::is_pulse`]): the simulation
/// asks the noise model only whether a message survives, and never builds
/// the corrupted copy that no pulse reactor could read. A run that records
/// a [`crate::Transcript`] still asks for that copy, because the transcript
/// logs delivered bytes.
pub trait PulseReactor {
    /// Called once, before any pulse is delivered.
    fn on_start(&mut self, ctx: &mut Context);

    /// Called when a pulse from `from` is delivered.
    fn on_pulse(&mut self, from: NodeId, ctx: &mut Context);

    /// The node's irrevocable output, if it has produced one.
    fn output(&self) -> Option<Vec<u8>> {
        None
    }
}

impl<T: PulseReactor> Reactor for T {
    const DELIVERY: Delivery = Delivery::PULSE;

    #[inline]
    fn on_start(&mut self, ctx: &mut Context) {
        PulseReactor::on_start(self, ctx);
    }

    #[inline]
    fn on_message(&mut self, from: NodeId, _payload: &[u8], ctx: &mut Context) {
        self.on_pulse(from, ctx);
    }

    #[inline]
    fn output(&self) -> Option<Vec<u8>> {
        PulseReactor::output(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_collects_sends() {
        let neighbors = [NodeId(1), NodeId(2)];
        let mut ctx = Context::new(NodeId(0), &neighbors);
        assert_eq!(ctx.node(), NodeId(0));
        assert_eq!(ctx.neighbors(), &neighbors);
        assert_eq!(ctx.pending_sends(), 0);
        ctx.send(NodeId(1), vec![1, 2]);
        ctx.send(NodeId(2), vec![3]);
        assert_eq!(ctx.pending_sends(), 2);
        let out = ctx.take_outbox();
        assert_eq!(
            out,
            vec![(NodeId(1), vec![1, 2].into()), (NodeId(2), vec![3].into())]
        );
        assert_eq!(ctx.pending_sends(), 0);
    }

    #[test]
    fn markers_are_noops_until_enabled() {
        let neighbors = [NodeId(1)];
        let mut ctx = Context::new(NodeId(0), &neighbors);
        assert!(!ctx.markers_enabled());
        ctx.marker(PhaseEvent::ConstructionStart);
        assert!(ctx.take_markers().is_empty());

        ctx.enable_markers();
        assert!(ctx.markers_enabled());
        ctx.marker(PhaseEvent::ConstructionStart);
        ctx.send(NodeId(1), vec![1]);
        ctx.marker(PhaseEvent::ConstructionQuiescence);
        ctx.send(NodeId(1), vec![2]);
        assert_eq!(
            ctx.take_markers(),
            vec![
                PhaseEvent::ConstructionStart,
                PhaseEvent::ConstructionQuiescence
            ]
        );
    }

    #[test]
    fn default_output_is_none() {
        struct Silent;
        impl Reactor for Silent {
            fn on_start(&mut self, _ctx: &mut Context) {}
            fn on_message(&mut self, _from: NodeId, _payload: &[u8], _ctx: &mut Context) {}
        }
        assert_eq!(Silent.output(), None);
        assert_eq!(Silent::DELIVERY, Delivery::CONTENT);
    }

    #[test]
    fn pulse_reactors_take_the_pulse_path() {
        struct Counter(u32);
        impl PulseReactor for Counter {
            fn on_start(&mut self, _ctx: &mut Context) {}
            fn on_pulse(&mut self, from: NodeId, ctx: &mut Context) {
                self.0 += 1;
                ctx.send(from, vec![1]);
            }
        }
        assert!(<Counter as Reactor>::DELIVERY.is_pulse());
        assert!(!Delivery::CONTENT.is_pulse());
        let neighbors = [NodeId(1)];
        let mut ctx = Context::new(NodeId(0), &neighbors);
        let mut node = Counter(0);
        Reactor::on_message(&mut node, NodeId(1), &[7, 7], &mut ctx);
        assert_eq!(node.0, 1);
        assert_eq!(ctx.take_outbox(), vec![(NodeId(1), vec![1].into())]);
        assert_eq!(Reactor::output(&node), None);
    }
}
