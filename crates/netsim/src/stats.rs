//! Communication accounting.
//!
//! The paper's complexity measures count *sent* messages (pulses), before
//! any corruption: `CCinit` for the pre-processing phase and
//! `CCoverhead(m)` per simulated message. The simulator counts sends per
//! node and per edge; a content-oblivious run sends only one-byte pulses,
//! so their number is also their length.

#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use std::collections::BTreeMap;

use fdn_graph::graph::Edge;
use fdn_graph::NodeId;

use crate::envelope::Envelope;

/// Counters maintained by a [`crate::Simulation`].
///
/// Equality compares the counters, as their [`snapshot`](Self::snapshot)s
/// do, not the layout of the per-link rows.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Total messages (pulses) sent.
    pub sent_total: u64,
    /// Total messages delivered so far.
    pub delivered_total: u64,
    /// Total messages deleted by the noise model (always 0 under the paper's
    /// alteration-only contract; deletion-side adversaries may drop).
    pub dropped_total: u64,
    /// High-water mark of the total number of messages in flight at any
    /// instant of the run (queue-depth observability of the link-indexed
    /// event core).
    pub max_inflight: u64,
    /// High-water mark of any single directed link's FIFO queue depth at
    /// any instant of the run.
    pub max_link_depth: u64,
    /// Messages sent per directed link: one row per sending node (indexed
    /// by node id, grown on demand) of `(receiver, sends)` entries sorted by
    /// receiver, one per directed link used so far. A lookup is one index
    /// plus a binary search over at most the sender's degree.
    links: Vec<Vec<(NodeId, u64)>>,
    /// Messages sent per node (indexed by node id).
    pub per_node_sent: Vec<u64>,
}

impl PartialEq for Stats {
    fn eq(&self, other: &Self) -> bool {
        self.snapshot() == other.snapshot()
    }
}

impl Eq for Stats {}

impl Stats {
    /// Creates zeroed counters for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Stats {
            links: vec![Vec::new(); n],
            per_node_sent: vec![0; n],
            ..Default::default()
        }
    }

    /// Records a send.
    pub fn record_send(&mut self, env: &Envelope) {
        self.sent_total += 1;
        *self.sent_on_link(env.from, env.to) += 1;
        if let Some(slot) = self.per_node_sent.get_mut(env.from.index()) {
            *slot += 1;
        }
    }

    /// Records a delivery.
    pub fn record_delivery(&mut self) {
        self.delivered_total += 1;
    }

    /// Records a message deleted by the noise model.
    pub fn record_drop(&mut self) {
        self.dropped_total += 1;
    }

    /// Records the queue depth observed right after an enqueue: `link_depth`
    /// messages on the link that took the message, `total_inflight` across
    /// the whole network. Maintains the two high-water marks; which link it
    /// was does not matter to them.
    pub fn record_queue_depth(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        link_depth: u64,
        total_inflight: u64,
    ) {
        self.max_inflight = self.max_inflight.max(total_inflight);
        self.max_link_depth = self.max_link_depth.max(link_depth);
    }

    /// The send count of the directed link `from -> to`, inserted zeroed on
    /// first use.
    fn sent_on_link(&mut self, from: NodeId, to: NodeId) -> &mut u64 {
        if from.index() >= self.links.len() {
            self.links.resize_with(from.index() + 1, Vec::new);
        }
        let row = &mut self.links[from.index()];
        let at = row
            .binary_search_by_key(&to, |&(receiver, _)| receiver)
            .unwrap_or_else(|at| {
                row.insert(at, (to, 0));
                at
            });
        &mut row[at].1
    }

    /// Freezes the counters into a cheap, ordered, aggregation-friendly
    /// [`StatsSnapshot`] (per-edge counters sorted by edge, so two snapshots
    /// of equal runs are equal values and serialize identically).
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut per_edge: BTreeMap<Edge, u64> = BTreeMap::new();
        for (from, row) in self.links.iter().enumerate() {
            let from = NodeId(u32::try_from(from).expect("node ids fit in u32"));
            for &(to, sent) in row {
                *per_edge.entry(Edge::new(from, to)).or_insert(0) += sent;
            }
        }
        StatsSnapshot {
            sent_total: self.sent_total,
            delivered_total: self.delivered_total,
            dropped_total: self.dropped_total,
            max_inflight: self.max_inflight,
            max_link_depth: self.max_link_depth,
            per_node_sent: self.per_node_sent.clone(),
            per_edge_sent: per_edge.into_iter().collect(),
        }
    }
}

/// A frozen, ordered view of a [`Stats`] at one instant.
///
/// Unlike [`Stats`] (whose per-link counters are kept per directed link,
/// for cheap updates), a snapshot is a plain value: `Clone`/`PartialEq`/`Eq`,
/// per-edge counters folded over both directions and sorted by edge, and
/// therefore safe to diff, aggregate across parallel runs, and serialize
/// byte-identically. This is the type report aggregation consumes instead of
/// copying counters field by field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total messages (pulses) sent.
    pub sent_total: u64,
    /// Total messages delivered.
    pub delivered_total: u64,
    /// Total messages deleted by the noise model.
    pub dropped_total: u64,
    /// High-water mark of messages simultaneously in flight (run-cumulative).
    pub max_inflight: u64,
    /// High-water mark of any single directed link's FIFO queue depth
    /// (run-cumulative).
    pub max_link_depth: u64,
    /// Messages sent per node (indexed by node id).
    pub per_node_sent: Vec<u64>,
    /// Messages sent per undirected edge, sorted by edge.
    pub per_edge_sent: Vec<(Edge, u64)>,
}

impl StatsSnapshot {
    /// The maximum number of messages sent by any single node.
    pub fn max_sent_by_node(&self) -> u64 {
        self.per_node_sent.iter().copied().max().unwrap_or(0)
    }

    /// The heaviest per-edge load (messages on the busiest edge).
    pub fn max_sent_on_edge(&self) -> u64 {
        self.per_edge_sent
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(from: u32, to: u32, len: usize) -> Envelope {
        Envelope {
            from: NodeId(from),
            to: NodeId(to),
            payload: vec![0; len].into(),
            seq: 0,
        }
    }

    fn edge(a: u32, b: u32) -> Edge {
        Edge::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn record_and_query() {
        let mut s = Stats::new(3);
        s.record_send(&env(0, 1, 2));
        s.record_send(&env(1, 0, 1));
        s.record_send(&env(1, 2, 1));
        s.record_delivery();
        assert_eq!(s.sent_total, 3);
        assert_eq!(s.delivered_total, 1);
        assert_eq!(s.per_node_sent, vec![1, 2, 0]);
        let snap = s.snapshot();
        assert_eq!(snap.per_edge_sent, vec![(edge(0, 1), 2), (edge(1, 2), 1)]);
        assert_eq!(snap.max_sent_by_node(), 2);
        assert_eq!(snap.max_sent_on_edge(), 2);
    }

    #[test]
    fn default_is_zero() {
        let snap = Stats::default().snapshot();
        assert_eq!(snap, StatsSnapshot::default());
        assert_eq!(snap.max_sent_by_node(), 0);
        assert_eq!(snap.max_sent_on_edge(), 0);
    }

    #[test]
    fn drops_are_counted_and_diffed() {
        let mut s = Stats::new(2);
        s.record_send(&env(0, 1, 1));
        s.record_drop();
        let first = s.snapshot();
        s.record_drop();
        s.record_drop();
        assert_eq!(s.dropped_total, 3);
        assert_eq!(s.snapshot().dropped_total, 3);
        assert_eq!(s.snapshot().dropped_total - first.dropped_total, 2);
    }

    #[test]
    fn snapshot_is_sorted_and_value_equal() {
        let mut s = Stats::new(4);
        // Insert edges in non-sorted order.
        s.record_send(&env(2, 3, 1));
        s.record_send(&env(0, 1, 1));
        s.record_send(&env(1, 2, 1));
        s.record_send(&env(0, 1, 1));
        let snap = s.snapshot();
        assert_eq!(snap.sent_total, 4);
        assert_eq!(snap.max_sent_by_node(), 2);
        let edges: Vec<Edge> = snap.per_edge_sent.iter().map(|&(e, _)| e).collect();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        assert_eq!(edges, sorted);
        assert_eq!(snap.max_sent_on_edge(), 2);
        // Two snapshots of equal stats are equal values.
        assert_eq!(snap, s.clone().snapshot());
    }

    #[test]
    fn queue_depth_high_water_marks() {
        let mut s = Stats::new(3);
        assert_eq!((s.max_inflight, s.max_link_depth), (0, 0));
        s.record_queue_depth(NodeId(0), NodeId(1), 1, 1);
        s.record_queue_depth(NodeId(0), NodeId(1), 2, 2);
        s.record_queue_depth(NodeId(1), NodeId(0), 1, 3);
        // Depths later shrink; the marks do not.
        s.record_queue_depth(NodeId(0), NodeId(1), 1, 1);
        assert_eq!((s.max_inflight, s.max_link_depth), (3, 2));
        let snap = s.snapshot();
        assert_eq!((snap.max_inflight, snap.max_link_depth), (3, 2));
    }

    /// The map `Stats` kept before its per-link rows, as a reference: sends
    /// per undirected edge, plus the deepest queue seen.
    #[derive(Clone, Default)]
    struct MapModel {
        per_edge_sent: BTreeMap<Edge, u64>,
        max_link_depth: u64,
    }

    impl MapModel {
        fn assert_agrees(&self, stats: &Stats) {
            let snap = stats.snapshot();
            let per_edge: Vec<(Edge, u64)> = self.per_edge_sent.clone().into_iter().collect();
            assert_eq!(snap.per_edge_sent, per_edge);
            assert_eq!(snap.max_link_depth, self.max_link_depth);
        }
    }

    /// One step of splitmix64: seeded test sequences without an RNG crate.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn per_link_rows_agree_with_the_map_model() {
        // A 4-cycle with a chord, plus two edges past node 3: beyond `n` for
        // `Stats::new(4)`, and every id is beyond `n` for `Stats::default()`.
        let pairs = [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2), (5, 9), (9, 2)];
        for seed in 0..24u64 {
            for mut stats in [Stats::new(4), Stats::default()] {
                let mut state = seed;
                let mut model = MapModel::default();
                let mut midway = None;
                for step in 0..300 {
                    if step == 150 {
                        midway = Some((stats.clone(), model.clone()));
                    }
                    let draw = splitmix(&mut state);
                    let (a, b) = pairs[(draw % pairs.len() as u64) as usize];
                    let (from, to) = if (draw >> 8) & 1 == 0 { (a, b) } else { (b, a) };
                    let (from, to) = (NodeId(from), NodeId(to));
                    if (draw >> 9) & 1 == 0 {
                        stats.record_send(&Envelope {
                            from,
                            to,
                            payload: vec![0].into(),
                            seq: step,
                        });
                        *model.per_edge_sent.entry(Edge::new(from, to)).or_insert(0) += 1;
                    } else {
                        let depth = (draw >> 10) & 7;
                        stats.record_queue_depth(from, to, depth, depth);
                        model.max_link_depth = model.max_link_depth.max(depth);
                    }
                }
                model.assert_agrees(&stats);
                let (stats_then, model_then) = midway.expect("copy taken mid-run");
                model_then.assert_agrees(&stats_then);
            }
        }
    }
}
