//! The zero-cost observer layer: hot-path hooks, semantic phase markers and
//! the built-in probes (time-series sampler, span profiler).
//!
//! The simulation engine is generic over an [`Observer`]
//! (`Simulation<R, O = NullObserver>`). Every hook has an empty default
//! body and [`NullObserver`] overrides nothing, so the disabled path
//! monomorphizes to the exact un-instrumented engine — no branch, no
//! virtual call, no allocation.
//!
//! Reactors participate through **phase markers**: semantic events
//! ([`PhaseEvent`]) pushed into their [`Context`](crate::Context) alongside
//! outgoing messages. Marker collection is off unless the simulation's
//! observer asks for it ([`Observer::ENABLED`]), so un-observed runs pay a
//! single predictable bool test per marker site. The engine forwards each
//! marker to the observer **interleaved with the event's sends** in emission
//! order and stamped with the current delivery count — which is what lets a
//! profiler attribute every pulse of a phase-transition event to the correct
//! side of the boundary.
//!
//! Everything the built-in observers record is keyed by delivery count,
//! never wall clock: observed output is byte-deterministic and independent
//! of thread count, exactly like the rest of the pipeline.

use std::collections::BTreeMap;
use std::fmt;

use fdn_graph::NodeId;

use crate::links::LinkId;

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

    /// The `from -> to` link went from empty to non-empty (it entered the
    /// scheduler's active set).
    #[inline]
    fn on_link_activation(&mut self, _link: LinkId, _from: NodeId, _to: NodeId) {}

    /// A message was delivered. `deliveries` is the cumulative delivery
    /// count (the observed timeline's clock) and `inflight` the total after
    /// the message left its queue.
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
    /// count at which it surfaced. Markers arrive interleaved with the same
    /// event's [`on_send`](Self::on_send) calls in emission order.
    #[inline]
    fn on_marker(&mut self, _marker: PhaseMarker, _deliveries: u64) {}
}

/// The default observer: observes nothing, costs nothing. With
/// [`Observer::ENABLED`] `= false` it also switches reactor-side marker
/// collection off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;
}

/// Two observers driven side by side (e.g. a sampler plus a profiler).
impl<A: Observer, B: Observer> Observer for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn on_attach(&mut self, nodes: usize, links: usize) {
        self.0.on_attach(nodes, links);
        self.1.on_attach(nodes, links);
    }

    #[inline]
    fn on_send(&mut self, from: NodeId, to: NodeId, bits: u64, link_depth: usize, inflight: usize) {
        self.0.on_send(from, to, bits, link_depth, inflight);
        self.1.on_send(from, to, bits, link_depth, inflight);
    }

    #[inline]
    fn on_link_activation(&mut self, link: LinkId, from: NodeId, to: NodeId) {
        self.0.on_link_activation(link, from, to);
        self.1.on_link_activation(link, from, to);
    }

    #[inline]
    fn on_deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        bits: u64,
        deliveries: u64,
        inflight: usize,
    ) {
        self.0.on_deliver(from, to, bits, deliveries, inflight);
        self.1.on_deliver(from, to, bits, deliveries, inflight);
    }

    #[inline]
    fn on_drop(&mut self, from: NodeId, to: NodeId, deliveries: u64) {
        self.0.on_drop(from, to, deliveries);
        self.1.on_drop(from, to, deliveries);
    }

    #[inline]
    fn on_marker(&mut self, marker: PhaseMarker, deliveries: u64) {
        self.0.on_marker(marker, deliveries);
        self.1.on_marker(marker, deliveries);
    }
}

/// Default bound on the number of retained time-series samples.
pub const DEFAULT_SAMPLE_CAPACITY: usize = 512;

/// One point of the sampled time series. The `deliveries` stamp is the
/// timeline clock: samples are taken every `stride` deliveries, so the
/// retained set is always a regular grid `stride, 2*stride, ...`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Cumulative deliveries at sampling time (the sample's timestamp).
    pub deliveries: u64,
    /// Messages in flight.
    pub inflight: u64,
    /// Cumulative sends.
    pub sent: u64,
    /// Cumulative deliveries (equals the stamp; kept for symmetry with the
    /// other cumulative counters when rendering rows).
    pub delivered: u64,
    /// Cumulative deletions.
    pub dropped: u64,
    /// High-water mark of any single link's queue depth so far.
    pub max_link_depth: u64,
    /// Coarse phase id: 1 while at least one node is still in its
    /// construction phase, 0 otherwise.
    pub phase: u8,
}

/// The time-series sampler: records a bounded ring of deterministic
/// [`Sample`]s, one every `stride` deliveries. When the ring fills, every
/// other sample is dropped and the stride doubles, so a run of any length
/// ends with at most `capacity` samples on a regular delivery-count grid.
#[derive(Debug, Clone)]
pub struct TimeSeriesSampler {
    stride: u64,
    capacity: usize,
    samples: Vec<Sample>,
    sent: u64,
    dropped: u64,
    inflight: u64,
    max_link_depth: u64,
    constructing: usize,
}

impl TimeSeriesSampler {
    /// Creates a sampler taking one sample every `stride` deliveries
    /// (minimum 1), retaining at most `capacity` samples (minimum 2,
    /// rounded up to even so compaction halves exactly).
    pub fn new(stride: u64, capacity: usize) -> Self {
        let capacity = capacity.max(2);
        TimeSeriesSampler {
            stride: stride.max(1),
            capacity: capacity + capacity % 2,
            samples: Vec::new(),
            sent: 0,
            dropped: 0,
            inflight: 0,
            max_link_depth: 0,
            constructing: 0,
        }
    }

    /// The current sampling stride (doubles on every compaction).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The retained samples, in delivery order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
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

impl Observer for TimeSeriesSampler {
    fn on_send(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _bits: u64,
        link_depth: usize,
        inflight: usize,
    ) {
        self.sent += 1;
        self.inflight = inflight as u64;
        self.max_link_depth = self.max_link_depth.max(link_depth as u64);
    }

    fn on_deliver(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _bits: u64,
        deliveries: u64,
        inflight: usize,
    ) {
        self.inflight = inflight as u64;
        if deliveries.is_multiple_of(self.stride) {
            self.samples.push(Sample {
                deliveries,
                inflight: self.inflight,
                sent: self.sent,
                delivered: deliveries,
                dropped: self.dropped,
                max_link_depth: self.max_link_depth,
                phase: u8::from(self.constructing > 0),
            });
            if self.samples.len() >= self.capacity {
                self.compact();
            }
        }
    }

    fn on_drop(&mut self, _from: NodeId, _to: NodeId, _deliveries: u64) {
        self.dropped += 1;
        self.inflight = self.inflight.saturating_sub(1);
    }

    fn on_marker(&mut self, marker: PhaseMarker, _deliveries: u64) {
        match marker.event {
            PhaseEvent::ConstructionStart => self.constructing += 1,
            PhaseEvent::ConstructionQuiescence => {
                self.constructing = self.constructing.saturating_sub(1);
            }
            _ => {}
        }
    }
}

/// Default bound on the number of phase markers the profiler retains.
pub const DEFAULT_MARKER_CAPACITY: usize = 8192;

/// Per-(phase, node) communication aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Pulses sent by the node while in this phase.
    pub sends: u64,
    /// Bits sent by the node while in this phase.
    pub send_bits: u64,
    /// Deliveries received by the node while in this phase.
    pub deliveries: u64,
    /// Bits delivered to the node while in this phase.
    pub delivered_bits: u64,
}

impl SpanStats {
    /// Whether the span saw any traffic at all.
    pub fn is_idle(&self) -> bool {
        self.sends == 0 && self.deliveries == 0
    }
}

/// The span profiler: attributes every send and delivery to a per-node
/// phase (construction vs online), driven purely by the reactor's phase
/// markers, and logs the markers themselves with delivery-count stamps.
/// Exportable as Chrome trace-event JSON
/// ([`to_chrome_trace_json`](Self::to_chrome_trace_json)) loadable in
/// Perfetto / `chrome://tracing`, with simulated delivery counts as
/// timestamps.
///
/// Nodes are assumed online until a [`PhaseEvent::ConstructionStart`]
/// marker moves them into the construction phase (cycle-only simulations
/// emit no construction markers, so their whole run is online traffic —
/// matching the `cc_init = 0` accounting of the lab runner).
#[derive(Debug, Clone, Default)]
pub struct SpanProfiler {
    construction: Vec<SpanStats>,
    online: Vec<SpanStats>,
    in_construction: Vec<bool>,
    online_since: Vec<u64>,
    markers: Vec<(u64, PhaseMarker)>,
    markers_dropped: u64,
    marker_capacity: usize,
    link_deliveries: BTreeMap<(NodeId, NodeId), u64>,
    last_stamp: u64,
}

impl SpanProfiler {
    /// Creates a profiler retaining at most [`DEFAULT_MARKER_CAPACITY`]
    /// markers.
    pub fn new() -> Self {
        SpanProfiler {
            marker_capacity: DEFAULT_MARKER_CAPACITY,
            ..SpanProfiler::default()
        }
    }

    /// Per-node construction-phase aggregate (all zero when the node never
    /// entered a construction phase).
    pub fn construction_span(&self, node: NodeId) -> SpanStats {
        self.construction
            .get(node.index())
            .copied()
            .unwrap_or_default()
    }

    /// Per-node online-phase aggregate.
    pub fn online_span(&self, node: NodeId) -> SpanStats {
        self.online.get(node.index()).copied().unwrap_or_default()
    }

    /// Number of nodes the profiler was attached to.
    pub fn node_count(&self) -> usize {
        self.online.len()
    }

    /// Delivery stamp at which the node left its construction phase (0 for
    /// nodes that never constructed, i.e. were online from the start).
    pub fn online_since(&self, node: NodeId) -> u64 {
        self.online_since.get(node.index()).copied().unwrap_or(0)
    }

    /// Whether the node is still in its construction phase.
    pub fn still_constructing(&self, node: NodeId) -> bool {
        self.in_construction
            .get(node.index())
            .copied()
            .unwrap_or(false)
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

    /// The delivery stamp of the last observed event (the timeline's end).
    pub fn last_stamp(&self) -> u64 {
        self.last_stamp
    }

    /// Per-directed-link delivery counts, sorted by `(from, to)` — the
    /// deterministic order every renderer must use.
    pub fn link_deliveries_sorted(&self) -> Vec<((NodeId, NodeId), u64)> {
        self.link_deliveries.iter().map(|(&k, &n)| (k, n)).collect()
    }

    /// The top `k` links by delivery count; ties broken by `(from, to)` so
    /// the ranking is deterministic.
    pub fn hottest_links(&self, k: usize) -> Vec<((NodeId, NodeId), u64)> {
        let mut v = self.link_deliveries_sorted();
        v.sort_by_key(|&((f, t), n)| (std::cmp::Reverse(n), f, t));
        v.truncate(k);
        v
    }

    /// Exports the profile as a Chrome trace-event JSON document (Perfetto
    /// and `chrome://tracing` both load it). Timestamps and durations are
    /// simulated delivery counts, one "microsecond" per delivery; `tid` is
    /// the node id. Complete (`"X"`) events cover each node's construction
    /// and online spans; instant (`"i"`) events mark the retained phase
    /// markers.
    pub fn to_chrome_trace_json(&self) -> String {
        let mut events = Vec::new();
        for id in 0..self.node_count() {
            let node = NodeId(id as u32);
            events.extend(self.chrome_span_events(node, 0));
        }
        for (stamp, marker) in &self.markers {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                marker.event.label(),
                stamp,
                marker.node.0
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
            events.join(",")
        )
    }

    /// The complete (`"X"`) span events of one node under an explicit
    /// Chrome `pid`, as raw JSON object strings — the composition hook for
    /// multi-simulation trace documents.
    pub fn chrome_span_events(&self, node: NodeId, pid: u64) -> Vec<String> {
        let mut events = Vec::new();
        let end = self.last_stamp.max(1);
        let boundary = self.online_since(node);
        let construction = self.construction_span(node);
        let online = self.online_span(node);
        let constructed = !construction.is_idle() || self.still_constructing(node) || boundary > 0;
        if constructed {
            let dur = if self.still_constructing(node) {
                end
            } else {
                boundary
            };
            events.push(format!(
                "{{\"name\":\"construction\",\"ph\":\"X\",\"ts\":0,\"dur\":{},\"pid\":{},\"tid\":{},\
                 \"args\":{{\"sends\":{},\"deliveries\":{}}}}}",
                dur, pid, node.0, construction.sends, construction.deliveries
            ));
        }
        if !self.still_constructing(node) {
            let (ts, dur) = (boundary, end.saturating_sub(boundary));
            events.push(format!(
                "{{\"name\":\"online\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\
                 \"args\":{{\"sends\":{},\"deliveries\":{}}}}}",
                ts, dur, pid, node.0, online.sends, online.deliveries
            ));
        }
        events
    }

    fn span_mut(&mut self, node: NodeId) -> &mut SpanStats {
        self.ensure(node);
        if self.in_construction[node.index()] {
            &mut self.construction[node.index()]
        } else {
            &mut self.online[node.index()]
        }
    }

    fn ensure(&mut self, node: NodeId) {
        // Defensive: on_attach sizes the vectors, but a profiler driven
        // without attach (unit tests) must not index out of bounds.
        if node.index() >= self.online.len() {
            let n = node.index() + 1;
            self.construction.resize(n, SpanStats::default());
            self.online.resize(n, SpanStats::default());
            self.in_construction.resize(n, false);
            self.online_since.resize(n, 0);
        }
    }
}

impl Observer for SpanProfiler {
    fn on_attach(&mut self, nodes: usize, _links: usize) {
        self.construction = vec![SpanStats::default(); nodes];
        self.online = vec![SpanStats::default(); nodes];
        self.in_construction = vec![false; nodes];
        self.online_since = vec![0; nodes];
    }

    fn on_send(
        &mut self,
        from: NodeId,
        _to: NodeId,
        bits: u64,
        _link_depth: usize,
        _inflight: usize,
    ) {
        let span = self.span_mut(from);
        span.sends += 1;
        span.send_bits += bits;
    }

    fn on_deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        bits: u64,
        deliveries: u64,
        _inflight: usize,
    ) {
        self.last_stamp = deliveries;
        let span = self.span_mut(to);
        span.deliveries += 1;
        span.delivered_bits += bits;
        *self.link_deliveries.entry((from, to)).or_insert(0) += 1;
    }

    fn on_drop(&mut self, _from: NodeId, _to: NodeId, deliveries: u64) {
        self.last_stamp = deliveries;
    }

    fn on_marker(&mut self, marker: PhaseMarker, deliveries: u64) {
        self.ensure(marker.node);
        match marker.event {
            PhaseEvent::ConstructionStart => self.in_construction[marker.node.index()] = true,
            PhaseEvent::ConstructionQuiescence if !self.in_construction[marker.node.index()] => {}
            PhaseEvent::ConstructionQuiescence | PhaseEvent::ReplayWarmStart => {
                self.in_construction[marker.node.index()] = false;
                self.online_since[marker.node.index()] = deliveries;
            }
            _ => {}
        }
        if self.markers.len() < self.marker_capacity.max(1) {
            self.markers.push((deliveries, marker));
        } else {
            self.markers_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(s: &mut TimeSeriesSampler, n: u64) {
        let (a, b) = (NodeId(0), NodeId(1));
        for i in 1..=n {
            s.on_send(a, b, 8, 1, 1);
            s.on_deliver(a, b, 8, i, 0);
        }
    }

    #[test]
    fn sampler_keeps_a_regular_grid_and_doubles_the_stride() {
        let mut s = TimeSeriesSampler::new(1, 8);
        deliver(&mut s, 100);
        assert!(s.samples().len() <= 8);
        let stride = s.stride();
        assert!(stride > 1, "100 samples at capacity 8 must have compacted");
        for (i, sample) in s.samples().iter().enumerate() {
            assert_eq!(sample.deliveries % stride, 0, "off-grid sample");
            assert!(i == 0 || sample.deliveries > s.samples()[i - 1].deliveries);
        }
        // Deterministic: the same event stream yields the same samples.
        let mut t = TimeSeriesSampler::new(1, 8);
        deliver(&mut t, 100);
        assert_eq!(s.samples(), t.samples());
        assert_eq!(s.stride(), t.stride());
    }

    #[test]
    fn sampler_phase_follows_construction_markers() {
        let mut s = TimeSeriesSampler::new(1, 64);
        s.on_marker(
            PhaseMarker {
                node: NodeId(0),
                event: PhaseEvent::ConstructionStart,
            },
            0,
        );
        deliver(&mut s, 2);
        s.on_marker(
            PhaseMarker {
                node: NodeId(0),
                event: PhaseEvent::ConstructionQuiescence,
            },
            2,
        );
        let (a, b) = (NodeId(0), NodeId(1));
        s.on_send(a, b, 8, 1, 1);
        s.on_deliver(a, b, 8, 3, 0);
        let phases: Vec<u8> = s.samples().iter().map(|x| x.phase).collect();
        assert_eq!(phases, vec![1, 1, 0]);
    }

    #[test]
    fn sampler_counts_drops_without_sampling_them() {
        let mut s = TimeSeriesSampler::new(1, 64);
        s.on_send(NodeId(0), NodeId(1), 8, 1, 1);
        s.on_drop(NodeId(0), NodeId(1), 0);
        assert!(s.samples().is_empty());
        s.on_send(NodeId(0), NodeId(1), 8, 1, 1);
        s.on_deliver(NodeId(0), NodeId(1), 8, 1, 0);
        assert_eq!(s.samples()[0].dropped, 1);
        assert_eq!(s.samples()[0].sent, 2);
    }

    #[test]
    fn profiler_attributes_phases_and_ranks_links_deterministically() {
        let mut p = SpanProfiler::new();
        p.on_attach(3, 6);
        let m = |node, event| PhaseMarker { node, event };
        // Node 0 constructs for 2 deliveries, then goes online.
        p.on_marker(m(NodeId(0), PhaseEvent::ConstructionStart), 0);
        p.on_send(NodeId(0), NodeId(1), 8, 1, 1);
        p.on_deliver(NodeId(0), NodeId(1), 8, 1, 0);
        p.on_deliver(NodeId(0), NodeId(1), 8, 2, 0);
        p.on_marker(m(NodeId(0), PhaseEvent::ConstructionQuiescence), 2);
        p.on_send(NodeId(0), NodeId(2), 16, 1, 1);
        p.on_deliver(NodeId(0), NodeId(2), 16, 3, 0);
        assert_eq!(p.construction_span(NodeId(0)).sends, 1);
        assert_eq!(p.online_span(NodeId(0)).sends, 1);
        assert_eq!(p.online_span(NodeId(0)).send_bits, 16);
        assert_eq!(p.online_span(NodeId(1)).deliveries, 2);
        assert_eq!(p.online_since(NodeId(0)), 2);
        assert!(!p.still_constructing(NodeId(0)));
        // Hottest links: (0,1) twice beats (0,2) once; ties would fall back
        // to the (from, to) order.
        let hot = p.hottest_links(8);
        assert_eq!(hot[0], ((NodeId(0), NodeId(1)), 2));
        assert_eq!(hot[1], ((NodeId(0), NodeId(2)), 1));
        assert_eq!(p.hottest_links(1).len(), 1);
        assert_eq!(p.last_stamp(), 3);
    }

    #[test]
    fn profiler_marker_log_is_bounded() {
        let mut p = SpanProfiler {
            marker_capacity: 4,
            ..SpanProfiler::default()
        };
        for i in 0..10u64 {
            p.on_marker(
                PhaseMarker {
                    node: NodeId(0),
                    event: PhaseEvent::OnlineWindow,
                },
                i,
            );
        }
        assert_eq!(p.markers().len(), 4);
        assert_eq!(p.markers_dropped(), 6);
    }

    #[test]
    fn chrome_trace_export_is_wellformed_and_deterministic() {
        let mut p = SpanProfiler::new();
        p.on_attach(2, 2);
        p.on_marker(
            PhaseMarker {
                node: NodeId(0),
                event: PhaseEvent::ConstructionStart,
            },
            0,
        );
        p.on_send(NodeId(0), NodeId(1), 8, 1, 1);
        p.on_deliver(NodeId(0), NodeId(1), 8, 1, 0);
        p.on_marker(
            PhaseMarker {
                node: NodeId(0),
                event: PhaseEvent::ConstructionQuiescence,
            },
            1,
        );
        let json = p.to_chrome_trace_json();
        assert_eq!(json, p.to_chrome_trace_json());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"construction\""));
        assert!(json.contains("\"name\":\"online\""));
        assert!(json.contains("construction-quiescence"));
        // Balanced braces — a cheap well-formedness check without a parser.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn tuple_observer_drives_both_sides() {
        let mut pair = (TimeSeriesSampler::new(1, 8), SpanProfiler::new());
        pair.on_attach(2, 2);
        pair.on_send(NodeId(0), NodeId(1), 8, 1, 1);
        pair.on_deliver(NodeId(0), NodeId(1), 8, 1, 0);
        assert_eq!(pair.0.samples().len(), 1);
        assert_eq!(pair.1.online_span(NodeId(1)).deliveries, 1);
        const { assert!(<(TimeSeriesSampler, SpanProfiler) as Observer>::ENABLED) };
        const { assert!(!NullObserver::ENABLED) };
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
