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
//! Once a delivered message's receiver has reacted and its sends and
//! markers are queued, the engine ends the step with
//! [`Observer::on_step_end`], passing the run's [`Stats`]. A probe that
//! samples counters reads them there, from the one place that keeps them,
//! at a point where no event is half done.
//!
//! Everything the built-in observers record is keyed by delivery count,
//! never wall clock: observed output is byte-deterministic and independent
//! of thread count, exactly like the rest of the pipeline.

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
    /// count at which it surfaced. Markers arrive interleaved with the same
    /// event's [`on_send`](Self::on_send) calls in emission order.
    #[inline]
    fn on_marker(&mut self, _marker: PhaseMarker, _deliveries: u64) {}

    /// A delivery's step ended: the receiver has reacted, and its sends and
    /// markers are queued. `stats` holds the run's counters after the step
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

    #[inline]
    fn on_step_end(&mut self, stats: &Stats, inflight: usize) {
        self.0.on_step_end(stats, inflight);
        self.1.on_step_end(stats, inflight);
    }
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

/// The time-series sampler: records a bounded ring of deterministic
/// [`Sample`]s of the run's [`Stats`], one every `stride` deliveries,
/// starting at [`STRIDE`](Self::STRIDE). When the ring fills, every other
/// sample is dropped and the stride doubles, so a run of any length ends
/// with a bounded number of samples on a regular delivery-count grid.
#[derive(Debug, Clone)]
pub struct TimeSeriesSampler {
    stride: u64,
    samples: Vec<Sample>,
    constructing: usize,
}

impl TimeSeriesSampler {
    /// The initial sampling stride, in deliveries.
    pub const STRIDE: u64 = 64;

    /// The most samples retained; even, so compaction halves exactly.
    const CAPACITY: usize = 512;

    /// Creates a sampler taking one sample every [`STRIDE`](Self::STRIDE)
    /// deliveries.
    pub fn new() -> Self {
        TimeSeriesSampler {
            stride: Self::STRIDE,
            samples: Vec::new(),
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

impl Default for TimeSeriesSampler {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for TimeSeriesSampler {
    fn on_marker(&mut self, marker: PhaseMarker, _deliveries: u64) {
        match marker.event {
            PhaseEvent::ConstructionStart => self.constructing += 1,
            PhaseEvent::ConstructionQuiescence => {
                self.constructing = self.constructing.saturating_sub(1);
            }
            _ => {}
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

/// Default bound on the number of phase markers the profiler retains.
pub const DEFAULT_MARKER_CAPACITY: usize = 8192;

/// Per-(phase, node) communication aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Pulses sent by the node while in this phase.
    pub sends: u64,
    /// Deliveries received by the node while in this phase.
    pub deliveries: u64,
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
/// Its spans export as Chrome trace events
/// ([`chrome_span_events`](Self::chrome_span_events)) for a document that
/// Perfetto / `chrome://tracing` loads, with simulated delivery counts as
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
    link_deliveries: BTreeMap<(NodeId, NodeId), u64>,
    last_stamp: u64,
}

impl SpanProfiler {
    /// Creates a profiler retaining at most [`DEFAULT_MARKER_CAPACITY`]
    /// markers, as [`default`](Self::default) does.
    pub fn new() -> Self {
        SpanProfiler::default()
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

    /// The complete (`"X"`) span events of one node under an explicit
    /// Chrome `pid`, as raw JSON object strings — the composition hook for
    /// multi-simulation trace documents. Timestamps and durations are
    /// simulated delivery counts, one "microsecond" per delivery; `tid` is
    /// the node id.
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
        _bits: u64,
        _link_depth: usize,
        _inflight: usize,
    ) {
        self.span_mut(from).sends += 1;
    }

    fn on_deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        _bits: u64,
        deliveries: u64,
        _inflight: usize,
    ) {
        self.last_stamp = deliveries;
        self.span_mut(to).deliveries += 1;
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
        if self.markers.len() < DEFAULT_MARKER_CAPACITY {
            self.markers.push((deliveries, marker));
        } else {
            self.markers_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ends `steps` delivery steps of a relay that always has one pulse in
    /// flight: each step delivers one pulse and sends the next.
    fn relay(s: &mut TimeSeriesSampler, stats: &mut Stats, steps: u64) {
        for _ in 0..steps {
            stats.delivered_total += 1;
            stats.sent_total = stats.delivered_total + 1;
            s.on_step_end(stats, 1);
        }
    }

    fn marker(event: PhaseEvent) -> PhaseMarker {
        PhaseMarker {
            node: NodeId(0),
            event,
        }
    }

    #[test]
    fn sampler_keeps_a_regular_grid_and_doubles_the_stride() {
        // Three full rings' worth of deliveries: the ring compacts twice.
        let steps = 3 * TimeSeriesSampler::STRIDE * TimeSeriesSampler::CAPACITY as u64;
        let mut s = TimeSeriesSampler::new();
        relay(&mut s, &mut Stats::new(2), steps);
        assert!(s.samples().len() < TimeSeriesSampler::CAPACITY);
        let stride = s.stride();
        assert_eq!(stride, 4 * TimeSeriesSampler::STRIDE);
        for (i, sample) in s.samples().iter().enumerate() {
            assert_eq!(
                sample.deliveries,
                (i as u64 + 1) * stride,
                "off-grid sample"
            );
            assert_eq!(sample.sent, sample.deliveries + sample.inflight);
        }
        // Deterministic: the same event stream yields the same samples.
        let mut t = TimeSeriesSampler::default();
        relay(&mut t, &mut Stats::new(2), steps);
        assert_eq!(s.samples(), t.samples());
        assert_eq!(s.stride(), t.stride());
    }

    #[test]
    fn sampler_phase_follows_construction_markers() {
        let stride = TimeSeriesSampler::STRIDE;
        let (mut s, mut stats) = (TimeSeriesSampler::new(), Stats::new(2));
        s.on_marker(marker(PhaseEvent::ConstructionStart), 0);
        relay(&mut s, &mut stats, 2 * stride - 1);
        // The step that ends the construction emits its marker before the
        // step ends, so its own sample is already online.
        stats.delivered_total += 1;
        s.on_marker(
            marker(PhaseEvent::ConstructionQuiescence),
            stats.delivered_total,
        );
        s.on_step_end(&stats, 1);
        relay(&mut s, &mut stats, stride);
        let phases: Vec<u8> = s.samples().iter().map(|x| x.phase).collect();
        assert_eq!(phases, vec![1, 0, 0]);
    }

    #[test]
    fn sampler_reads_the_counters_where_the_step_ends() {
        let mut s = TimeSeriesSampler::new();
        let mut stats = Stats::new(2);
        stats.sent_total = 70;
        stats.dropped_total = 2;
        stats.max_link_depth = 3;
        // Off the grid: no sample.
        stats.delivered_total = TimeSeriesSampler::STRIDE - 1;
        s.on_step_end(&stats, 5);
        assert!(s.samples().is_empty());
        stats.delivered_total = TimeSeriesSampler::STRIDE;
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
        // Both constructors keep the same bound.
        for mut p in [SpanProfiler::new(), SpanProfiler::default()] {
            for i in 0..DEFAULT_MARKER_CAPACITY as u64 + 6 {
                p.on_marker(marker(PhaseEvent::OnlineWindow), i);
            }
            assert_eq!(p.markers().len(), DEFAULT_MARKER_CAPACITY);
            assert_eq!(p.markers_dropped(), 6);
        }
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
        let events = p.chrome_span_events(NodeId(0), 3);
        assert_eq!(events, p.chrome_span_events(NodeId(0), 3));
        // Node 0 constructed until delivery 1, then went online.
        assert_eq!(events.len(), 2);
        assert!(events[0].contains("\"name\":\"construction\""));
        assert!(events[0].contains("\"ts\":0,\"dur\":1,\"pid\":3,\"tid\":0"));
        assert!(events[1].contains("\"name\":\"online\""));
        // A node that never constructed has only its online span.
        let online_only = p.chrome_span_events(NodeId(1), 3);
        assert_eq!(online_only.len(), 1);
        assert!(online_only[0].contains("\"name\":\"online\""));
        for event in events.iter().chain(&online_only) {
            // Balanced braces — a cheap well-formedness check without a parser.
            assert!(event.starts_with('{') && event.ends_with('}'));
            assert_eq!(event.matches('{').count(), event.matches('}').count());
        }
    }

    #[test]
    fn tuple_observer_drives_both_sides() {
        let mut pair = (TimeSeriesSampler::new(), SpanProfiler::new());
        pair.on_attach(2, 2);
        pair.on_send(NodeId(0), NodeId(1), 8, 1, 1);
        pair.on_deliver(NodeId(0), NodeId(1), 8, 1, 0);
        assert_eq!(pair.1.online_span(NodeId(1)).deliveries, 1);
        let mut stats = Stats::new(2);
        stats.delivered_total = TimeSeriesSampler::STRIDE;
        pair.on_step_end(&stats, 0);
        assert_eq!(pair.0.samples().len(), 1);
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
