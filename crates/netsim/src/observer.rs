//! The zero-cost observer layer: hot-path hooks, semantic phase markers and
//! the trace probe.
//!
//! The simulation engine is generic over an [`Observer`]
//! (`Simulation<R, O = NullObserver>`). Every hook has an empty default
//! body and [`NullObserver`] overrides nothing, so the disabled path
//! monomorphizes to the exact un-instrumented engine — no branch, no
//! virtual call, no allocation.
//!
//! Reactors participate through **phase markers**: semantic events
//! ([`PhaseEvent`]) recorded in their [`Context`](crate::Context). Marker
//! collection is off unless the simulation's observer asks for it
//! ([`Observer::ENABLED`]), so un-observed runs pay a single predictable
//! bool test per marker site. The engine hands an event's markers to the
//! observer in emission order, stamped with the current delivery count,
//! **before** it queues the event's sends. A marker says when a node
//! changes phase; how many pulses the node sent in each phase, the node
//! counts itself.
//!
//! Once a delivered message's receiver has reacted and its markers and
//! sends are handed over, the engine ends the step with
//! [`Observer::on_step_end`], passing the run's [`Stats`]. A probe that
//! samples counters reads them there, from the one place that keeps them,
//! at a point where no event is half done.
//!
//! Everything the [`TraceProbe`] records is keyed by delivery count, never
//! wall clock: observed output is byte-deterministic and independent of
//! thread count, exactly like the rest of the pipeline.

use std::collections::BTreeMap;
use std::fmt;

use fdn_graph::NodeId;

use crate::stats::Stats;

/// A semantic phase transition emitted by a reactor via
/// [`Context::marker`](crate::Context::marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseEvent {
    /// The node begins the distributed Robbins-cycle construction
    /// (pre-processing, the paper's `CCinit` phase).
    ConstructionStart,
    /// The node's construction reached quiescence; everything after is
    /// online traffic.
    ConstructionQuiescence,
    /// The node was warm-started in the online phase from a construct-once
    /// checkpoint (no construction runs inside this simulation).
    ReplayWarmStart,
    /// The node's engine acquired the cycle token.
    TokenAcquired,
    /// The node's engine released the cycle token.
    TokenReleased,
    /// A batch of inner-protocol messages entered the node's engine: an
    /// online data window opens.
    OnlineWindow,
}

impl PhaseEvent {
    /// Render-stable label (used by trace output; never reformat).
    pub fn label(&self) -> &'static str {
        match self {
            PhaseEvent::ConstructionStart => "construction-start",
            PhaseEvent::ConstructionQuiescence => "construction-quiescence",
            PhaseEvent::ReplayWarmStart => "replay-warm-start",
            PhaseEvent::TokenAcquired => "token-acquired",
            PhaseEvent::TokenReleased => "token-released",
            PhaseEvent::OnlineWindow => "online-window",
        }
    }

    /// Whether this event belongs to the construction (pre-processing)
    /// phase.
    pub fn is_construction(&self) -> bool {
        matches!(
            self,
            PhaseEvent::ConstructionStart | PhaseEvent::ConstructionQuiescence
        )
    }
}

impl fmt::Display for PhaseEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A [`PhaseEvent`] attributed to the node that emitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseMarker {
    /// The emitting node.
    pub node: NodeId,
    /// The semantic event.
    pub event: PhaseEvent,
}

/// Hooks on the simulation hot path. Every method has an empty default
/// body, so implementors override only what they observe and
/// [`NullObserver`] compiles to nothing.
///
/// All counters passed to hooks reflect the state *after* the hooked event
/// was accounted (e.g. `deliveries` in [`on_deliver`](Self::on_deliver)
/// includes the delivery being reported).
pub trait Observer {
    /// Whether reactors should pay for phase-marker collection. `false`
    /// (as on [`NullObserver`]) makes every marker site a no-op.
    const ENABLED: bool = true;

    /// Called once when the simulation starts, with the node and directed
    /// link counts of the topology.
    #[inline]
    fn on_attach(&mut self, _nodes: usize, _links: usize) {}

    /// A message was queued on the `from -> to` link. `link_depth` is the
    /// link's queue depth and `inflight` the network-wide total, both after
    /// the push; `bits` is the payload size in bits.
    #[inline]
    fn on_send(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _bits: u64,
        _link_depth: usize,
        _inflight: usize,
    ) {
    }

    /// A message was delivered. `bits` is its size as sent, before any
    /// corruption (a content-oblivious receiver's delivery has no other
    /// size), `deliveries` the cumulative delivery count (the observed
    /// timeline's clock) and `inflight` the total after the message left its
    /// queue.
    #[inline]
    fn on_deliver(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _bits: u64,
        _deliveries: u64,
        _inflight: usize,
    ) {
    }

    /// A message was deleted in transit by a deletion-side noise model.
    #[inline]
    fn on_drop(&mut self, _from: NodeId, _to: NodeId, _deliveries: u64) {}

    /// A reactor emitted a semantic phase marker, stamped with the delivery
    /// count at which it surfaced. An event's markers arrive in emission
    /// order, before the event's [`on_send`](Self::on_send) calls.
    #[inline]
    fn on_marker(&mut self, _marker: PhaseMarker, _deliveries: u64) {}

    /// A delivery's step ended: the receiver has reacted, and its markers
    /// and sends are handed over. `stats` holds the run's counters after the step
    /// and `inflight` the network-wide total, so `stats.sent_total ==
    /// stats.delivered_total + stats.dropped_total + inflight`. A message
    /// the noise model deleted has no reaction, and its step gets no call.
    #[inline]
    fn on_step_end(&mut self, _stats: &Stats, _inflight: usize) {}
}

/// The default observer: observes nothing, costs nothing. With
/// [`Observer::ENABLED`] `= false` it also switches reactor-side marker
/// collection off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;
}

/// One point of the sampled time series, taken when a delivery's step ends
/// (see [`Observer::on_step_end`]). The `deliveries` stamp is the timeline
/// clock: samples are taken every `stride` deliveries, so the retained set
/// is always a regular grid `stride, 2*stride, ...`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Cumulative deliveries at sampling time (the sample's timestamp).
    pub deliveries: u64,
    /// Messages in flight: 0 only once the run is quiescent.
    pub inflight: u64,
    /// Cumulative sends.
    pub sent: u64,
    /// Cumulative deletions.
    pub dropped: u64,
    /// High-water mark of any single link's queue depth so far.
    pub max_link_depth: u64,
    /// Coarse phase id: 1 while at least one node is still in its
    /// construction phase, 0 otherwise.
    pub phase: u8,
}

/// Where a node stands in the construction/online split, as its phase
/// markers tell it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Phase {
    /// Online from the start: the node began no construction in this
    /// simulation (cycle mode, or a replay warm start).
    #[default]
    Online,
    /// Constructing: [`PhaseEvent::ConstructionStart`] seen, its
    /// [`PhaseEvent::ConstructionQuiescence`] not yet.
    Constructing,
    /// Constructed, and online since the given delivery count.
    OnlineSince(u64),
}

/// One node's row of the [`TraceProbe`]'s phase table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodePhase {
    /// The node's current phase.
    pub phase: Phase,
    /// Deliveries the node received while constructing.
    pub construction_deliveries: u64,
    /// Deliveries the node received while online.
    pub online_deliveries: u64,
}

/// The observer of `fdn-lab trace`. One per-node phase table, driven by the
/// construction markers, gives both the samples' phase flag and every
/// node's construction and online deliveries. Beside it the probe keeps:
///
/// * a bounded ring of deterministic [`Sample`]s of the run's [`Stats`],
///   one every `stride` deliveries, starting at [`STRIDE`](Self::STRIDE).
///   When the ring fills, every other sample is dropped and the stride
///   doubles, so a run of any length ends with a bounded number of samples
///   on a regular delivery-count grid;
/// * the phase-marker log with delivery-count stamps, at most
///   [`MARKER_CAPACITY`](Self::MARKER_CAPACITY) markers;
/// * the deliveries per directed link.
///
/// A node is online until a [`PhaseEvent::ConstructionStart`] marker moves
/// it into its construction phase, so a simulation whose nodes emit no
/// construction marker is online throughout.
#[derive(Debug, Clone)]
pub struct TraceProbe {
    nodes: Vec<NodePhase>,
    /// Nodes whose phase is [`Phase::Constructing`].
    constructing: usize,
    stride: u64,
    samples: Vec<Sample>,
    markers: Vec<(u64, PhaseMarker)>,
    markers_dropped: u64,
    link_deliveries: BTreeMap<(NodeId, NodeId), u64>,
}

impl TraceProbe {
    /// The initial sampling stride, in deliveries.
    pub const STRIDE: u64 = 64;

    /// The most samples retained; even, so compaction halves exactly.
    pub const CAPACITY: usize = 512;

    /// The most phase markers retained.
    pub const MARKER_CAPACITY: usize = 8192;

    /// The current sampling stride (doubles on every compaction).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The retained samples, in delivery order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The phase table, indexed by node id; empty until the simulation
    /// starts.
    pub fn nodes(&self) -> &[NodePhase] {
        &self.nodes
    }

    /// The retained phase markers as `(delivery_stamp, marker)`, in
    /// emission order.
    pub fn markers(&self) -> &[(u64, PhaseMarker)] {
        &self.markers
    }

    /// Markers discarded after the retention bound filled.
    pub fn markers_dropped(&self) -> u64 {
        self.markers_dropped
    }

    /// The top `k` links by delivery count; ties broken by `(from, to)` so
    /// the ranking is deterministic.
    pub fn hottest_links(&self, k: usize) -> Vec<((NodeId, NodeId), u64)> {
        let mut links: Vec<_> = self.link_deliveries.iter().map(|(&l, &n)| (l, n)).collect();
        links.sort_by_key(|&((from, to), n)| (std::cmp::Reverse(n), from, to));
        links.truncate(k);
        links
    }

    fn compact(&mut self) {
        // Keep the odd positions: their stamps are exactly the multiples of
        // the doubled stride, so the grid stays regular.
        let mut i = 0usize;
        self.samples.retain(|_| {
            let keep = i % 2 == 1;
            i += 1;
            keep
        });
        self.stride *= 2;
    }
}

impl Default for TraceProbe {
    fn default() -> Self {
        TraceProbe {
            nodes: Vec::new(),
            constructing: 0,
            stride: Self::STRIDE,
            samples: Vec::new(),
            markers: Vec::new(),
            markers_dropped: 0,
            link_deliveries: BTreeMap::new(),
        }
    }
}

impl Observer for TraceProbe {
    fn on_attach(&mut self, nodes: usize, _links: usize) {
        self.nodes = vec![NodePhase::default(); nodes];
    }

    fn on_deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        _bits: u64,
        _deliveries: u64,
        _inflight: usize,
    ) {
        let row = &mut self.nodes[to.index()];
        if row.phase == Phase::Constructing {
            row.construction_deliveries += 1;
        } else {
            row.online_deliveries += 1;
        }
        *self.link_deliveries.entry((from, to)).or_insert(0) += 1;
    }

    fn on_marker(&mut self, marker: PhaseMarker, deliveries: u64) {
        let row = &mut self.nodes[marker.node.index()];
        match marker.event {
            PhaseEvent::ConstructionStart if row.phase != Phase::Constructing => {
                row.phase = Phase::Constructing;
                self.constructing += 1;
            }
            PhaseEvent::ConstructionQuiescence if row.phase == Phase::Constructing => {
                row.phase = Phase::OnlineSince(deliveries);
                self.constructing -= 1;
            }
            _ => {}
        }
        if self.markers.len() < Self::MARKER_CAPACITY {
            self.markers.push((deliveries, marker));
        } else {
            self.markers_dropped += 1;
        }
    }

    fn on_step_end(&mut self, stats: &Stats, inflight: usize) {
        let deliveries = stats.delivered_total;
        if !deliveries.is_multiple_of(self.stride) {
            return;
        }
        self.samples.push(Sample {
            deliveries,
            inflight: inflight as u64,
            sent: stats.sent_total,
            dropped: stats.dropped_total,
            max_link_depth: stats.max_link_depth,
            phase: u8::from(self.constructing > 0),
        });
        if self.samples.len() >= Self::CAPACITY {
            self.compact();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A probe attached to a simulation of `nodes` nodes.
    fn attached(nodes: usize) -> TraceProbe {
        let mut probe = TraceProbe::default();
        probe.on_attach(nodes, 2 * nodes);
        probe
    }

    /// Ends `steps` delivery steps of a relay that always has one pulse in
    /// flight: each step delivers one pulse and sends the next.
    fn relay(p: &mut TraceProbe, stats: &mut Stats, steps: u64) {
        for _ in 0..steps {
            stats.delivered_total += 1;
            stats.sent_total = stats.delivered_total + 1;
            p.on_step_end(stats, 1);
        }
    }

    fn marker(node: u32, event: PhaseEvent) -> PhaseMarker {
        PhaseMarker {
            node: NodeId(node),
            event,
        }
    }

    #[test]
    fn sampler_keeps_a_regular_grid_and_doubles_the_stride() {
        // Three full rings' worth of deliveries: the ring compacts twice.
        let steps = 3 * TraceProbe::STRIDE * TraceProbe::CAPACITY as u64;
        let mut s = attached(2);
        relay(&mut s, &mut Stats::new(2), steps);
        assert!(s.samples().len() < TraceProbe::CAPACITY);
        let stride = s.stride();
        assert_eq!(stride, 4 * TraceProbe::STRIDE);
        for (i, sample) in s.samples().iter().enumerate() {
            assert_eq!(
                sample.deliveries,
                (i as u64 + 1) * stride,
                "off-grid sample"
            );
            assert_eq!(sample.sent, sample.deliveries + sample.inflight);
        }
        // Deterministic: the same event stream yields the same samples.
        let mut t = attached(2);
        relay(&mut t, &mut Stats::new(2), steps);
        assert_eq!(s.samples(), t.samples());
        assert_eq!(s.stride(), t.stride());
    }

    #[test]
    fn sampler_phase_follows_construction_markers() {
        let stride = TraceProbe::STRIDE;
        let (mut s, mut stats) = (attached(2), Stats::new(2));
        s.on_marker(marker(0, PhaseEvent::ConstructionStart), 0);
        relay(&mut s, &mut stats, 2 * stride - 1);
        // The step that ends the construction emits its marker before the
        // step ends, so its own sample is already online.
        stats.delivered_total += 1;
        s.on_marker(
            marker(0, PhaseEvent::ConstructionQuiescence),
            stats.delivered_total,
        );
        s.on_step_end(&stats, 1);
        relay(&mut s, &mut stats, stride);
        let phases: Vec<u8> = s.samples().iter().map(|x| x.phase).collect();
        assert_eq!(phases, vec![1, 0, 0]);
        assert_eq!(s.nodes()[0].phase, Phase::OnlineSince(2 * stride));
        assert_eq!(s.nodes()[1].phase, Phase::Online);
    }

    #[test]
    fn sampler_reads_the_counters_where_the_step_ends() {
        let mut s = attached(2);
        let mut stats = Stats::new(2);
        stats.sent_total = 70;
        stats.dropped_total = 2;
        stats.max_link_depth = 3;
        // Off the grid: no sample.
        stats.delivered_total = TraceProbe::STRIDE - 1;
        s.on_step_end(&stats, 5);
        assert!(s.samples().is_empty());
        stats.delivered_total = TraceProbe::STRIDE;
        s.on_step_end(&stats, 4);
        assert_eq!(
            s.samples(),
            [Sample {
                deliveries: 64,
                inflight: 4,
                sent: 70,
                dropped: 2,
                max_link_depth: 3,
                phase: 0,
            }]
        );
    }

    #[test]
    fn profiler_attributes_phases_and_ranks_links_deterministically() {
        let mut p = attached(3);
        // Node 1 constructs for 2 deliveries, then goes online.
        p.on_marker(marker(1, PhaseEvent::ConstructionStart), 0);
        p.on_deliver(NodeId(0), NodeId(1), 8, 1, 0);
        p.on_deliver(NodeId(0), NodeId(1), 8, 2, 0);
        p.on_marker(marker(1, PhaseEvent::ConstructionQuiescence), 2);
        p.on_deliver(NodeId(2), NodeId(0), 8, 3, 0);
        p.on_deliver(NodeId(0), NodeId(1), 8, 4, 0);
        p.on_deliver(NodeId(1), NodeId(2), 8, 5, 0);
        // A node that never constructed has no construction to end.
        p.on_marker(marker(2, PhaseEvent::ConstructionQuiescence), 5);
        let row = |phase, construction_deliveries, online_deliveries| NodePhase {
            phase,
            construction_deliveries,
            online_deliveries,
        };
        assert_eq!(
            p.nodes(),
            [
                row(Phase::Online, 0, 1),
                row(Phase::OnlineSince(2), 2, 1),
                row(Phase::Online, 0, 1),
            ]
        );
        // Hottest links: (0,1) three times beats the rest; the tie between
        // (1,2) and (2,0) falls back to the (from, to) order.
        assert_eq!(
            p.hottest_links(8),
            [
                ((NodeId(0), NodeId(1)), 3),
                ((NodeId(1), NodeId(2)), 1),
                ((NodeId(2), NodeId(0)), 1),
            ]
        );
        assert_eq!(p.hottest_links(1).len(), 1);
    }

    #[test]
    fn profiler_marker_log_is_bounded() {
        let mut p = attached(1);
        for i in 0..TraceProbe::MARKER_CAPACITY as u64 + 6 {
            p.on_marker(marker(0, PhaseEvent::OnlineWindow), i);
        }
        assert_eq!(p.markers().len(), TraceProbe::MARKER_CAPACITY);
        assert_eq!(p.markers_dropped(), 6);
    }

    #[test]
    fn phase_event_labels_are_stable() {
        let all = [
            PhaseEvent::ConstructionStart,
            PhaseEvent::ConstructionQuiescence,
            PhaseEvent::ReplayWarmStart,
            PhaseEvent::TokenAcquired,
            PhaseEvent::TokenReleased,
            PhaseEvent::OnlineWindow,
        ];
        let labels: Vec<&str> = all.iter().map(PhaseEvent::label).collect();
        assert_eq!(
            labels,
            vec![
                "construction-start",
                "construction-quiescence",
                "replay-warm-start",
                "token-acquired",
                "token-released",
                "online-window",
            ]
        );
        assert!(PhaseEvent::ConstructionStart.is_construction());
        assert!(!PhaseEvent::TokenAcquired.is_construction());
        assert_eq!(format!("{}", PhaseEvent::OnlineWindow), "online-window");
    }
}
