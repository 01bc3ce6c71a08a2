//! Deterministic asynchronous message-passing network simulator.
//!
//! This crate is the execution substrate for the reproduction of
//! *Distributed Computations in Fully-Defective Networks* (PODC 2022). It
//! models exactly the communication environment of the paper's Section 2:
//!
//! * every link is bidirectional and delivers each sent message after an
//!   **arbitrary finite delay** (modelled by a pluggable [`Scheduler`] that
//!   picks which non-empty link delivers its oldest message next);
//! * the paper's channels are **not FIFO**; this engine implements the legal
//!   refinement in which each *directed link* is a FIFO wire while the
//!   scheduler reorders freely **across** links. In-flight messages live in a
//!   link-indexed event core ([`LinkTable`]): one queue per directed edge and
//!   an incrementally-maintained non-empty set, so scheduling is `O(active
//!   links)` — `O(1)` for the default [`RandomScheduler`] — instead of the
//!   `O(messages)` flat scan of the first-generation engine. The per-link
//!   queues come in two behaviourally-identical representations selected by
//!   [`LinkStore`]: the exact reference backend, and a counting backend that
//!   run-length-encodes the protocol's identical-pulse traffic so a link
//!   carrying a million pulses costs one stored run (see [`links`]);
//! * the channel noise is **alteration noise**: a [`NoiseModel`] may rewrite
//!   the content of every message arbitrarily, but can neither delete nor
//!   inject messages — a *fully-defective* network corrupts everything.
//!   Deletion-side adversaries ([`Omission`], [`CrashLink`], [`Burst`])
//!   deliberately violate that contract to measure where the paper's
//!   construction breaks once deletion is allowed;
//! * nodes are event-driven state machines ([`Reactor`]): they act on start
//!   and on every message reception. A content-oblivious node implements
//!   [`PulseReactor`] instead, whose handler learns only the sender, and its
//!   deliveries skip building the corrupted content it could not read.
//!
//! Every run counts its sends, deliveries, deletions and queue high-water
//! marks in one [`Stats`]. An [`Observer`] rides the engine's hot path: it
//! sees each send, delivery and deletion, each reactor phase marker (an
//! event's markers come before its sends, stamped with the delivery count)
//! and the end of every delivery's step, where the one built-in probe,
//! [`TraceProbe`], samples the `Stats`. The default [`NullObserver`]
//! compiles every hook away.
//!
//! The crate also defines the [`InnerProtocol`] trait — the asynchronous
//! black-box interface `π` that the paper's simulators wrap — together with
//! [`DirectRunner`], which executes an inner protocol directly on a noiseless
//! network and serves as the ground-truth baseline for the equivalence
//! experiments.
//!
//! # Example
//!
//! ```
//! use fdn_graph::{generators, NodeId};
//! use fdn_netsim::{Simulation, Reactor, Context};
//!
//! /// Each node forwards a token once and stops.
//! struct Relay { fired: bool }
//! impl Reactor for Relay {
//!     fn on_start(&mut self, ctx: &mut Context) {
//!         if ctx.node() == NodeId(0) {
//!             ctx.send(NodeId(1), vec![1]);
//!         }
//!     }
//!     fn on_message(&mut self, _from: NodeId, _payload: &[u8], ctx: &mut Context) {
//!         if !self.fired {
//!             self.fired = true;
//!             let next = NodeId((ctx.node().0 + 1) % 4);
//!             if next != NodeId(0) {
//!                 ctx.send(next, vec![1]);
//!             }
//!         }
//!     }
//! }
//!
//! let g = generators::cycle(4).unwrap();
//! let nodes = (0..4).map(|_| Relay { fired: false }).collect();
//! let mut sim = Simulation::new(g, nodes).unwrap();
//! let report = sim.run().unwrap();
//! assert!(report.quiescent);
//! assert_eq!(sim.stats().sent_total, 3);
//! ```

pub mod envelope;
pub mod error;
pub mod links;
pub mod noise;
pub mod observer;
pub mod protocol;
pub mod reactor;
pub mod scheduler;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod transcript;

pub use envelope::{Envelope, Payload};
pub use error::SimError;
pub use links::{LinkId, LinkStore, LinkTable, LinkView};
pub use noise::{
    BitFlip, Burst, ConstantOne, CrashLink, FullCorruption, NoiseModel, Noiseless, Omission,
    TargetedEdges,
};
pub use observer::{
    NodePhase, NullObserver, Observer, Phase, PhaseEvent, PhaseMarker, Sample, TraceProbe,
};
pub use protocol::{Dest, DirectRunner, InnerProtocol, ProtocolIo, ProtocolMsg};
pub use reactor::{Context, Delivery, PulseReactor, Reactor};
pub use scheduler::{EdgeDelayScheduler, FifoScheduler, LifoScheduler, RandomScheduler, Scheduler};
pub use sim::{RunReport, Simulation};
pub use spec::{NoiseSpec, SchedulerSpec};
pub use stats::{Stats, StatsSnapshot};
pub use transcript::{Transcript, TranscriptEvent};
