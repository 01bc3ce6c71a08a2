//! Communication accounting.
//!
//! The paper's complexity measures count the number and total length of
//! *sent* messages (pulses), before any corruption: `CCinit` for the
//! pre-processing phase and `CCoverhead(m)` per simulated message. The
//! simulator tracks exactly those quantities, per node and per edge.

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
    /// Total payload bits sent (the paper's `CC` counts bits of sent
    /// messages).
    pub bits_sent: u64,
    /// High-water mark of the total number of messages in flight at any
    /// instant of the run (queue-depth observability of the link-indexed
    /// event core).
    pub max_inflight: u64,
    /// Per-directed-link counters: one row per sending node (indexed by node
    /// id, grown on demand), each sorted by receiver, with one entry per
    /// directed link used so far. A lookup is one index plus a binary search
    /// over at most the sender's degree.
    links: Vec<Vec<LinkCounts>>,
    /// Messages sent per node (indexed by node id).
    pub per_node_sent: Vec<u64>,
}

/// The counters of one used directed link, in its sender's row of
/// [`Stats`].
#[derive(Debug, Clone, Copy)]
struct LinkCounts {
    /// The receiving node.
    to: NodeId,
    /// Messages sent over the link.
    sent: u64,
    /// The link's FIFO queue-depth high-water mark, once a depth has been
    /// recorded. Cumulative over the whole run, like
    /// [`Stats::max_inflight`].
    high_water: Option<u64>,
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
        self.bits_sent += env.bits();
        self.link_mut(env.from, env.to).sent += 1;
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
    /// messages on the directed link `from -> to`, `total_inflight` across
    /// the whole network. Maintains the high-water marks.
    pub fn record_queue_depth(
        &mut self,
        from: NodeId,
        to: NodeId,
        link_depth: u64,
        total_inflight: u64,
    ) {
        self.max_inflight = self.max_inflight.max(total_inflight);
        let hw = &mut self.link_mut(from, to).high_water;
        *hw = Some(hw.map_or(link_depth, |mark| mark.max(link_depth)));
    }

    /// The counters of the directed link `from -> to`, inserted zeroed on
    /// first use.
    fn link_mut(&mut self, from: NodeId, to: NodeId) -> &mut LinkCounts {
        if from.index() >= self.links.len() {
            self.links.resize_with(from.index() + 1, Vec::new);
        }
        let row = &mut self.links[from.index()];
        let at = row
            .binary_search_by_key(&to, |link| link.to)
            .unwrap_or_else(|at| {
                let fresh = LinkCounts {
                    to,
                    sent: 0,
                    high_water: None,
                };
                row.insert(at, fresh);
                at
            });
        &mut row[at]
    }

    /// The row of links sent from node index `from` (empty if unused).
    fn row(&self, from: usize) -> &[LinkCounts] {
        self.links.get(from).map_or(&[], Vec::as_slice)
    }

    /// Every used directed link with its counters, in `(from, to)` order.
    fn link_counts(&self) -> impl Iterator<Item = (NodeId, &LinkCounts)> + '_ {
        self.links.iter().enumerate().flat_map(|(from, row)| {
            let from = NodeId(u32::try_from(from).expect("node ids fit in u32"));
            row.iter().map(move |link| (from, link))
        })
    }

    /// Messages sent by a specific node.
    pub fn sent_by(&self, node: NodeId) -> u64 {
        self.per_node_sent.get(node.index()).copied().unwrap_or(0)
    }

    /// Messages sent over a specific undirected edge (both directions).
    pub fn sent_on_edge(&self, e: Edge) -> u64 {
        sent_to(self.row(e.lo().index()), e.hi()) + sent_to(self.row(e.hi().index()), e.lo())
    }

    /// The maximum number of messages sent by any single node.
    pub fn max_sent_by_node(&self) -> u64 {
        self.per_node_sent.iter().copied().max().unwrap_or(0)
    }

    /// Freezes the counters into a cheap, ordered, aggregation-friendly
    /// [`StatsSnapshot`] (per-edge counters sorted by edge, so two snapshots
    /// of equal runs are equal values and serialize identically).
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut per_edge: BTreeMap<Edge, u64> = BTreeMap::new();
        for (from, link) in self.link_counts().filter(|(_, link)| link.sent > 0) {
            *per_edge.entry(Edge::new(from, link.to)).or_insert(0) += link.sent;
        }
        let per_link_high_water = self
            .link_counts()
            .filter_map(|(from, link)| Some(((from, link.to), link.high_water?)))
            .collect();
        StatsSnapshot {
            sent_total: self.sent_total,
            delivered_total: self.delivered_total,
            dropped_total: self.dropped_total,
            bits_sent: self.bits_sent,
            max_inflight: self.max_inflight,
            per_node_sent: self.per_node_sent.clone(),
            per_edge_sent: per_edge.into_iter().collect(),
            per_link_high_water,
        }
    }
}

/// Messages sent to `to` in one sender's row of [`Stats`].
fn sent_to(row: &[LinkCounts], to: NodeId) -> u64 {
    row.binary_search_by_key(&to, |link| link.to)
        .map_or(0, |at| row[at].sent)
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
    /// Total payload bits sent.
    pub bits_sent: u64,
    /// High-water mark of messages simultaneously in flight (run-cumulative).
    pub max_inflight: u64,
    /// Messages sent per node (indexed by node id).
    pub per_node_sent: Vec<u64>,
    /// Messages sent per undirected edge, sorted by edge.
    pub per_edge_sent: Vec<(Edge, u64)>,
    /// Per-directed-link FIFO queue-depth high-water marks, sorted by link
    /// (run-cumulative).
    pub per_link_high_water: Vec<((NodeId, NodeId), u64)>,
}

impl StatsSnapshot {
    /// The maximum number of messages sent by any single node.
    pub fn max_sent_by_node(&self) -> u64 {
        self.per_node_sent.iter().copied().max().unwrap_or(0)
    }

    /// The deepest per-link FIFO queue observed at any instant of the run.
    pub fn max_link_high_water(&self) -> u64 {
        self.per_link_high_water
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0)
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

    #[test]
    fn record_and_query() {
        let mut s = Stats::new(3);
        s.record_send(&env(0, 1, 2));
        s.record_send(&env(1, 0, 1));
        s.record_send(&env(1, 2, 1));
        s.record_delivery();
        assert_eq!(s.sent_total, 3);
        assert_eq!(s.delivered_total, 1);
        assert_eq!(s.bits_sent, 32);
        assert_eq!(s.sent_by(NodeId(1)), 2);
        assert_eq!(s.sent_by(NodeId(9)), 0);
        assert_eq!(s.sent_on_edge(Edge::new(NodeId(0), NodeId(1))), 2);
        assert_eq!(s.sent_on_edge(Edge::new(NodeId(0), NodeId(2))), 0);
        assert_eq!(s.max_sent_by_node(), 2);
    }

    #[test]
    fn default_is_zero() {
        let s = Stats::default();
        assert_eq!(s.sent_total, 0);
        assert_eq!(s.dropped_total, 0);
        assert_eq!(s.max_sent_by_node(), 0);
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
        assert_eq!(s.max_inflight, 0);
        s.record_queue_depth(NodeId(0), NodeId(1), 1, 1);
        s.record_queue_depth(NodeId(0), NodeId(1), 2, 2);
        s.record_queue_depth(NodeId(1), NodeId(0), 1, 3);
        // Depths later shrink; the marks do not.
        s.record_queue_depth(NodeId(0), NodeId(1), 1, 1);
        assert_eq!(s.max_inflight, 3);
        let snap = s.snapshot();
        assert_eq!(snap.max_inflight, 3);
        assert_eq!(
            snap.per_link_high_water,
            vec![((NodeId(0), NodeId(1)), 2), ((NodeId(1), NodeId(0)), 1),]
        );
        assert_eq!(snap.max_link_high_water(), 2);
    }

    #[test]
    fn per_link_high_water_serializes_order_independently() {
        // The same observations arriving in different orders must give
        // equal values: every render/serialize path goes through the
        // snapshot, and two snapshots of order-permuted stats must be equal
        // AND byte-identical when formatted, whatever order the live
        // counters were filled in.
        let obs = [
            ((3u32, 2u32), 5u64),
            ((0, 1), 2),
            ((2, 3), 4),
            ((1, 0), 1),
            ((0, 3), 7),
        ];
        let mut a = Stats::new(4);
        for &((f, t), d) in &obs {
            a.record_queue_depth(NodeId(f), NodeId(t), d, d);
        }
        let mut b = Stats::new(4);
        for &((f, t), d) in obs.iter().rev() {
            b.record_queue_depth(NodeId(f), NodeId(t), d, d);
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa, sb);
        assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
        // Serializing twice is also stable byte for byte.
        assert_eq!(format!("{sa:?}"), format!("{:?}", a.snapshot()));
        // And the order is the canonical (from, to).
        let links: Vec<(NodeId, NodeId)> = sa.per_link_high_water.iter().map(|&(l, _)| l).collect();
        let mut sorted = links.clone();
        sorted.sort_unstable();
        assert_eq!(links, sorted);
        assert_eq!(sa.max_link_high_water(), 7);
    }

    /// The two maps `Stats` kept before its per-link rows, as a reference:
    /// sends per undirected edge and the high-water mark per directed link.
    #[derive(Clone, Default)]
    struct MapModel {
        per_edge_sent: BTreeMap<Edge, u64>,
        per_link_high_water: BTreeMap<(NodeId, NodeId), u64>,
    }

    impl MapModel {
        fn record_send(&mut self, from: NodeId, to: NodeId) {
            *self.per_edge_sent.entry(Edge::new(from, to)).or_insert(0) += 1;
        }

        fn record_queue_depth(&mut self, from: NodeId, to: NodeId, depth: u64) {
            let hw = self.per_link_high_water.entry((from, to)).or_insert(0);
            *hw = (*hw).max(depth);
        }

        fn assert_agrees(&self, stats: &Stats, edges: &[Edge]) {
            let snap = stats.snapshot();
            let per_edge: Vec<(Edge, u64)> = self.per_edge_sent.clone().into_iter().collect();
            assert_eq!(snap.per_edge_sent, per_edge);
            let per_link: Vec<((NodeId, NodeId), u64)> =
                self.per_link_high_water.clone().into_iter().collect();
            assert_eq!(snap.per_link_high_water, per_link);
            for &e in edges {
                let expected = self.per_edge_sent.get(&e).copied().unwrap_or(0);
                assert_eq!(stats.sent_on_edge(e), expected, "edge {e:?}");
            }
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
        let edges: Vec<Edge> = pairs
            .iter()
            .map(|&(a, b)| Edge::new(NodeId(a), NodeId(b)))
            .collect();
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
                        model.record_send(from, to);
                    } else {
                        let depth = (draw >> 10) & 7;
                        stats.record_queue_depth(from, to, depth, depth);
                        model.record_queue_depth(from, to, depth);
                    }
                }
                model.assert_agrees(&stats, &edges);
                let (stats_then, model_then) = midway.expect("copy taken mid-run");
                model_then.assert_agrees(&stats_then, &edges);
            }
        }
    }
}
