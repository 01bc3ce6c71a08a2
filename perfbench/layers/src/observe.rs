//! The two observers of the traced run.
//!
//! [`Recorder`] logs one word per hot-path event, which is all a replay
//! needs: payloads, sequence numbers and queue depths are recomputed by
//! the reference walk in [`crate::replay`]. [`Clock`] stamps the start of a
//! scenario's `Simulation::run` and, in full mode, the end of the
//! distributed construction, so the runner's own set-up and the
//! construction cost can be split off the scenario time.

use std::time::Duration;

use fdn_graph::{Graph, NodeId};
use fdn_lab::Stopwatch;
use fdn_netsim::{LinkId, LinkTable, Observer, PhaseEvent, PhaseMarker};

/// Log word tag: a message entered the link in the low bits.
pub const SEND: u32 = 0;
/// Log word tag: the head of the link was delivered.
pub const DELIVER: u32 = 1 << 30;
/// Log word tag: the head of the link was deleted by the noise model.
pub const DROP: u32 = 2 << 30;
/// Mask of the link id in a log word.
pub const LINK_MASK: u32 = (1 << 30) - 1;

/// Records the event sequence of one run as `tag | link` words, in the
/// order the simulation performs them.
#[derive(Debug)]
pub struct Recorder {
    registry: LinkTable,
    /// The recorded words.
    pub log: Vec<u32>,
}

impl Recorder {
    /// An empty recorder for runs over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the graph has 2^30 or more directed links.
    pub fn new(graph: &Graph) -> Self {
        let registry = LinkTable::new(graph);
        assert!(
            registry.link_count() <= LINK_MASK as usize,
            "too many links to record"
        );
        Recorder {
            registry,
            log: Vec::new(),
        }
    }

    fn push(&mut self, tag: u32, from: NodeId, to: NodeId) {
        let link = self
            .registry
            .link_between(from, to)
            .expect("observed event on a registered link");
        self.log.push(tag | link.0);
    }
}

impl Observer for Recorder {
    // Reactors skip phase-marker bookkeeping, as in an untraced run.
    const ENABLED: bool = false;

    fn on_send(&mut self, from: NodeId, to: NodeId, _bits: u64, _depth: usize, _inflight: usize) {
        self.push(SEND, from, to);
    }

    fn on_deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        _bits: u64,
        _deliveries: u64,
        _inflight: usize,
    ) {
        self.push(DELIVER, from, to);
    }

    fn on_drop(&mut self, from: NodeId, to: NodeId, _deliveries: u64) {
        self.push(DROP, from, to);
    }
}

/// Splits a log word into its tag and link.
pub fn decode(word: u32) -> (u32, LinkId) {
    (word & !LINK_MASK, LinkId(word & LINK_MASK))
}

/// Wall-clock stamps of one scenario, taken from inside its simulation at
/// the two rare events that bound its phases: the start of
/// `Simulation::run` and, in full mode, the end of the distributed
/// construction. Nothing is stamped per delivery, so the hot path stays as
/// cheap as in an untraced run.
#[derive(Debug)]
pub struct Clock {
    watch: Stopwatch,
    nodes: usize,
    quiesced: usize,
    /// When `Simulation::start` began, since the clock was created.
    pub started: Option<Duration>,
    /// When, and after how many deliveries, the last node's construction
    /// reached quiescence (full mode only).
    pub constructed: Option<(Duration, u64)>,
}

impl Clock {
    /// Starts the clock; create it right before handing it to the runner.
    pub fn new() -> Self {
        Clock {
            watch: Stopwatch::start(),
            nodes: 0,
            quiesced: 0,
            started: None,
            constructed: None,
        }
    }

    /// Time since the clock was created.
    pub fn now(&self) -> Duration {
        self.watch.elapsed()
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl Observer for Clock {
    fn on_attach(&mut self, nodes: usize, _links: usize) {
        self.nodes = nodes;
        self.started = Some(self.watch.elapsed());
    }

    fn on_marker(&mut self, marker: PhaseMarker, deliveries: u64) {
        if marker.event == PhaseEvent::ConstructionQuiescence {
            self.quiesced += 1;
            if self.quiesced == self.nodes {
                self.constructed = Some((self.watch.elapsed(), deliveries));
            }
        }
    }
}
