//! The asynchronous black-box interface `π` and the noiseless baseline runner.
//!
//! The paper's simulators accept *any* asynchronous event-driven protocol as
//! a black box: the protocol hands the simulator messages it wants delivered
//! to neighbours, and the simulator hands back messages that were (logically)
//! received. [`InnerProtocol`] is that interface. The same protocol object can
//! also be run directly on a noiseless network via [`DirectRunner`], which is
//! how the equivalence experiments obtain their ground truth.

use fdn_graph::NodeId;

use crate::reactor::{Context, Reactor};

/// Destination of an inner-protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// A specific node (it must be a neighbour when running noiselessly; the
    /// content-oblivious simulators deliver to any node since every message
    /// traverses the whole cycle anyway).
    Node(NodeId),
    /// Every node (the broadcast extension of Remark 3, used heavily by the
    /// Robbins-cycle construction). Not supported by the noiseless
    /// [`DirectRunner`].
    Broadcast,
}

/// A message produced by an inner protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolMsg {
    /// Where the message should be delivered.
    pub dest: Dest,
    /// The message content.
    pub payload: Vec<u8>,
}

/// The interface through which an [`InnerProtocol`] emits messages.
#[derive(Debug)]
pub struct ProtocolIo {
    node: NodeId,
    neighbors: Vec<NodeId>,
    sends: Vec<ProtocolMsg>,
}

impl ProtocolIo {
    /// Creates an IO handle for `node` with the given neighbour list.
    pub fn new(node: NodeId, neighbors: Vec<NodeId>) -> Self {
        ProtocolIo {
            node,
            neighbors,
            sends: Vec::new(),
        }
    }

    /// The node running the protocol.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's neighbours in the (noiseless) communication graph.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Queues a message for a specific node.
    pub fn send(&mut self, to: NodeId, payload: Vec<u8>) {
        self.sends.push(ProtocolMsg {
            dest: Dest::Node(to),
            payload,
        });
    }

    /// Queues a broadcast message (destination `*`, Remark 3).
    pub fn broadcast(&mut self, payload: Vec<u8>) {
        self.sends.push(ProtocolMsg {
            dest: Dest::Broadcast,
            payload,
        });
    }

    /// Number of messages queued so far.
    pub fn pending(&self) -> usize {
        self.sends.len()
    }

    /// Drains the queued messages (used by runners and simulators).
    pub fn take_sends(&mut self) -> Vec<ProtocolMsg> {
        std::mem::take(&mut self.sends)
    }
}

/// An asynchronous, event-driven, deterministic protocol designed for a
/// noiseless network — the `π` of the paper.
///
/// Implementations must be deterministic functions of their input and the
/// sequence of deliveries (the paper restricts attention to deterministic
/// protocols).
pub trait InnerProtocol {
    /// Called once at the start of the execution; the protocol may emit its
    /// initial messages.
    fn on_init(&mut self, io: &mut ProtocolIo);

    /// Called when a message from `from` is delivered.
    fn on_deliver(&mut self, from: NodeId, payload: &[u8], io: &mut ProtocolIo);

    /// The node's irrevocable output, if already written.
    fn output(&self) -> Option<Vec<u8>> {
        None
    }
}

/// The silent protocol: it sends nothing and outputs nothing, so a simulator
/// running it carries only its own traffic (a construction-only run of the
/// Theorem 2 pipeline, say).
impl InnerProtocol for () {
    fn on_init(&mut self, _io: &mut ProtocolIo) {}

    fn on_deliver(&mut self, _from: NodeId, _payload: &[u8], _io: &mut ProtocolIo) {}
}

/// Boxed protocols are protocols, which lets heterogeneous sweep harnesses
/// spawn type-erased instances (`Box<dyn InnerProtocol + Send>`) through the
/// same generic runners as concrete ones.
impl<P: InnerProtocol + ?Sized> InnerProtocol for Box<P> {
    fn on_init(&mut self, io: &mut ProtocolIo) {
        (**self).on_init(io);
    }

    fn on_deliver(&mut self, from: NodeId, payload: &[u8], io: &mut ProtocolIo) {
        (**self).on_deliver(from, payload, io);
    }

    fn output(&self) -> Option<Vec<u8>> {
        (**self).output()
    }
}

/// Runs an [`InnerProtocol`] directly as a [`Reactor`] on the (noiseless)
/// network — the baseline execution the simulated one is compared against.
///
/// `Dest::Broadcast` is not meaningful on a bare network.
///
/// # Panics
///
/// Panics (when driven by the engine) if the protocol emits a broadcast or a
/// message to a non-neighbour.
#[derive(Debug)]
pub struct DirectRunner<P> {
    inner: P,
    started: bool,
}

impl<P: InnerProtocol> DirectRunner<P> {
    /// Wraps a protocol instance.
    pub fn new(inner: P) -> Self {
        DirectRunner {
            inner,
            started: false,
        }
    }

    /// Read access to the wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the runner and returns the wrapped protocol.
    pub fn into_inner(self) -> P {
        self.inner
    }

    fn flush(io: &mut ProtocolIo, ctx: &mut Context) {
        for msg in io.take_sends() {
            match msg.dest {
                Dest::Node(to) => ctx.send(to, msg.payload),
                Dest::Broadcast => {
                    panic!(
                        "Dest::Broadcast is only supported under the content-oblivious simulators"
                    )
                }
            }
        }
    }
}

impl<P: InnerProtocol> Reactor for DirectRunner<P> {
    fn on_start(&mut self, ctx: &mut Context) {
        self.started = true;
        let mut io = ProtocolIo::new(ctx.node(), ctx.neighbors().to_vec());
        self.inner.on_init(&mut io);
        Self::flush(&mut io, ctx);
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8], ctx: &mut Context) {
        let mut io = ProtocolIo::new(ctx.node(), ctx.neighbors().to_vec());
        self.inner.on_deliver(from, payload, &mut io);
        Self::flush(&mut io, ctx);
    }

    fn output(&self) -> Option<Vec<u8>> {
        self.inner.output()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct EchoOnce {
        echoed: bool,
        out: Option<Vec<u8>>,
    }

    impl InnerProtocol for EchoOnce {
        fn on_init(&mut self, io: &mut ProtocolIo) {
            if io.node() == NodeId(0) {
                io.send(NodeId(1), vec![42]);
            }
        }
        fn on_deliver(&mut self, from: NodeId, payload: &[u8], io: &mut ProtocolIo) {
            if !self.echoed {
                self.echoed = true;
                self.out = Some(payload.to_vec());
                io.send(from, payload.to_vec());
            }
        }
        fn output(&self) -> Option<Vec<u8>> {
            self.out.clone()
        }
    }

    #[test]
    fn protocol_io_collects_messages() {
        let mut io = ProtocolIo::new(NodeId(3), vec![NodeId(1), NodeId(2)]);
        assert_eq!(io.node(), NodeId(3));
        assert_eq!(io.neighbors(), &[NodeId(1), NodeId(2)]);
        io.send(NodeId(1), vec![7]);
        io.broadcast(vec![9]);
        assert_eq!(io.pending(), 2);
        let sends = io.take_sends();
        assert_eq!(
            sends[0],
            ProtocolMsg {
                dest: Dest::Node(NodeId(1)),
                payload: vec![7]
            }
        );
        assert_eq!(
            sends[1],
            ProtocolMsg {
                dest: Dest::Broadcast,
                payload: vec![9]
            }
        );
        assert_eq!(io.pending(), 0);
    }

    #[test]
    fn direct_runner_bridges_protocol_to_reactor() {
        let mut runner = DirectRunner::new(EchoOnce {
            echoed: false,
            out: None,
        });
        let neighbors = [NodeId(1)];
        let mut ctx = Context::new(NodeId(0), &neighbors);
        runner.on_start(&mut ctx);
        assert_eq!(ctx.take_outbox(), vec![(NodeId(1), vec![42].into())]);
        let mut ctx2 = Context::new(NodeId(0), &neighbors);
        runner.on_message(NodeId(1), &[5], &mut ctx2);
        assert_eq!(ctx2.take_outbox(), vec![(NodeId(1), vec![5].into())]);
        assert_eq!(runner.output(), Some(vec![5]));
        assert_eq!(runner.inner().out, Some(vec![5]));
        let inner = runner.into_inner();
        assert!(inner.echoed);
    }

    #[test]
    #[should_panic]
    fn direct_runner_rejects_broadcast() {
        struct Broadcaster;
        impl InnerProtocol for Broadcaster {
            fn on_init(&mut self, io: &mut ProtocolIo) {
                io.broadcast(vec![1]);
            }
            fn on_deliver(&mut self, _f: NodeId, _p: &[u8], _io: &mut ProtocolIo) {}
        }
        let mut runner = DirectRunner::new(Broadcaster);
        let neighbors = [NodeId(1)];
        let mut ctx = Context::new(NodeId(0), &neighbors);
        runner.on_start(&mut ctx);
    }
}
