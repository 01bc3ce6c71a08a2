//! Link-indexed in-flight storage: the event core of the simulator.
//!
//! The first-generation simulator kept every in-flight message in one flat
//! `Vec<Envelope>` that schedulers scanned linearly, so a single scheduling
//! decision cost `O(messages)` — the dominant cost of large Theorem 2 runs,
//! whose pulse traffic keeps hundreds of messages in flight. This module
//! replaces the flat vector with a **link-indexed** structure:
//!
//! * every *directed* adjacency `(u, v)` of the graph is a [`LinkId`],
//!   assigned once at simulation start in node/neighbour order;
//! * each link owns a FIFO queue of envelopes — messages on the same link are
//!   delivered (or deleted) in send order, like a physical wire;
//! * the set of **non-empty** links is maintained incrementally, so a
//!   scheduler picks among `O(active links)` candidates instead of
//!   `O(messages)`, and enqueue/dequeue are `O(1)`.
//!
//! The paper's asynchrony model only promises arbitrary finite delay per
//! message; per-link FIFO is a legal (and realistic) refinement of that
//! model. Cross-link reordering — the part adversarial schedulers actually
//! exploit — is fully preserved: the [`crate::Scheduler`] freely chooses
//! *which* link delivers next.
//!
//! # Two queue backends
//!
//! The per-link queue representation is chosen by [`LinkStore`]:
//!
//! * [`LinkStore::Exact`] (the `exact` submodule) — the reference backend:
//!   one `VecDeque<Envelope>` per link, one stored entry per message.
//! * [`LinkStore::Counting`] (the `counting` submodule) — the compressed backend for the
//!   protocol's *content-oblivious* traffic: runs of same-payload messages
//!   whose sequence numbers advance by a constant stride collapse to a single
//!   `(payload, first_seq, stride, count)` record, so a link carrying a
//!   million pulses costs one run and delivery is a decrement. Messages that
//!   do not extend a run (distinct payloads such as CCinit shares or
//!   `ControlMsg` envelopes, or irregular sequence gaps) are kept exact as
//!   their own runs. The head envelope of each link is always materialised,
//!   so schedulers still see real [`Envelope`]s with exact `seq` numbers.
//!
//! Both backends reconstruct the *identical* envelope sequence: same
//! payloads, same exact `seq` numbers, same per-link FIFO order, same
//! activation order of the shared active set. Everything downstream —
//! scheduler decisions (fifo/random/lifo), noise draws (including
//! omission/burst deletions, which are drawn per *popped* envelope in both
//! backends), transcripts, statistics, observer curves — is therefore
//! byte-identical between representations; the equivalence tests and the CI
//! counting gate hold the two backends to that contract.
//!
//! **Queue-operation accounting.** [`LinkTable::queue_ops`] counts stored
//! queue entries inserted or removed: the exact backend pays one operation
//! per push and one per pop, while the counting backend pays one per run
//! created and one per run exhausted — extending a run or decrementing it is
//! free, and the materialised head is a view cache, not a stored entry.
//!
//! Determinism: link ids, queue contents and the active-set order are pure
//! functions of the event sequence, so seeded runs remain byte-reproducible.

#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

mod counting;
mod exact;

use std::fmt;

use fdn_graph::{Graph, NodeId};

use crate::envelope::Envelope;

use counting::CountingQueues;
use exact::ExactQueues;

/// Identifier of a directed link (an ordered pair of adjacent nodes).
///
/// Ids are dense: `0..link_count()`, assigned in node order, neighbours in
/// graph adjacency order — a pure function of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// Sentinel for "not in the active list".
const INACTIVE: usize = usize::MAX;

/// Which per-link queue representation a [`LinkTable`] uses — see the
/// [module docs](self) for the contract between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkStore {
    /// One stored envelope per in-flight message (the reference backend).
    #[default]
    Exact,
    /// Run-length-encoded queues: same-payload constant-stride runs collapse
    /// to a count; delivery is a decrement.
    Counting,
}

impl LinkStore {
    /// Both representations, in gating order (reference first).
    pub const ALL: [LinkStore; 2] = [LinkStore::Exact, LinkStore::Counting];

    /// Parses the stable textual form; [`Display`](fmt::Display) is the
    /// inverse.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on unknown names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "exact" => Ok(LinkStore::Exact),
            "counting" => Ok(LinkStore::Counting),
            other => Err(format!("unknown link store `{other}` (exact|counting)")),
        }
    }
}

impl fmt::Display for LinkStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkStore::Exact => f.write_str("exact"),
            LinkStore::Counting => f.write_str("counting"),
        }
    }
}

/// The backend actually holding queued envelopes. Methods mirror each other;
/// `push`/`pop` report `(queue len, stored-entry ops)` so the shared
/// [`LinkTable`] can maintain the active set and the op counter identically
/// for both representations.
#[derive(Debug, Clone)]
enum Backend {
    Exact(ExactQueues),
    Counting(CountingQueues),
}

impl Backend {
    fn new(store: LinkStore, links: usize) -> Self {
        match store {
            LinkStore::Exact => Backend::Exact(ExactQueues::new(links)),
            LinkStore::Counting => Backend::Counting(CountingQueues::new(links)),
        }
    }

    fn store(&self) -> LinkStore {
        match self {
            Backend::Exact(_) => LinkStore::Exact,
            Backend::Counting(_) => LinkStore::Counting,
        }
    }

    fn push(&mut self, link: LinkId, env: Envelope) -> (usize, u64) {
        match self {
            Backend::Exact(q) => q.push(link, env),
            Backend::Counting(q) => q.push(link, env),
        }
    }

    fn pop(&mut self, link: LinkId, ends: (NodeId, NodeId)) -> Option<(Envelope, usize, u64)> {
        match self {
            Backend::Exact(q) => q.pop(link),
            Backend::Counting(q) => q.pop(link, ends),
        }
    }

    fn head(&self, link: LinkId) -> Option<&Envelope> {
        match self {
            Backend::Exact(q) => q.head(link),
            Backend::Counting(q) => q.head(link),
        }
    }

    fn len(&self, link: LinkId) -> usize {
        match self {
            Backend::Exact(q) => q.len(link),
            Backend::Counting(q) => q.len(link),
        }
    }

    fn clear(&mut self) {
        match self {
            Backend::Exact(q) => q.clear(),
            Backend::Counting(q) => q.clear(),
        }
    }
}

/// Per-directed-edge FIFO queues plus an incrementally-maintained set of
/// non-empty links. See the [module docs](self) for the design rationale.
#[derive(Debug, Clone)]
pub struct LinkTable {
    /// `(from, to)` endpoints per link id.
    ends: Vec<(NodeId, NodeId)>,
    /// Per source node: `(to, link)` pairs sorted by `to`, for id lookup.
    from_index: Vec<Vec<(NodeId, LinkId)>>,
    /// The queued envelopes, in the chosen representation.
    queues: Backend,
    /// The non-empty links. Order is deterministic (activation order, with
    /// swap-remove compaction) but otherwise unspecified; schedulers must not
    /// read meaning into positions.
    active: Vec<LinkId>,
    /// Position of each link in `active`, or [`INACTIVE`].
    active_pos: Vec<usize>,
    /// Total messages in flight across all links.
    total: usize,
    /// Stored queue entries inserted or removed since construction or the
    /// last [`LinkTable::clear`] — the backend cost measure (module docs).
    queue_ops: u64,
}

impl LinkTable {
    /// Builds the (empty) link table of `graph` with the reference
    /// [`LinkStore::Exact`] backend: one link per directed adjacency.
    pub fn new(graph: &Graph) -> Self {
        LinkTable::with_store(graph, LinkStore::Exact)
    }

    /// Builds the (empty) link table of `graph` with the chosen backend.
    pub fn with_store(graph: &Graph, store: LinkStore) -> Self {
        // Every undirected edge contributes exactly two directed links, so
        // the registry sizes are known before the registration pass.
        let links = 2 * graph.edge_count();
        let mut ends = Vec::with_capacity(links);
        let mut from_index = Vec::with_capacity(graph.node_count());
        for u in graph.nodes() {
            let mut row: Vec<(NodeId, LinkId)> = graph
                .neighbors(u)
                .iter()
                .map(|&v| {
                    let id = LinkId(ends.len() as u32);
                    ends.push((u, v));
                    (v, id)
                })
                .collect();
            row.sort_unstable_by_key(|&(to, _)| to);
            from_index.push(row);
        }
        debug_assert_eq!(ends.len(), links, "directed links != 2 * edge count");
        LinkTable {
            ends,
            from_index,
            queues: Backend::new(store, links),
            active: Vec::with_capacity(links),
            active_pos: vec![INACTIVE; links],
            total: 0,
            queue_ops: 0,
        }
    }

    /// Which queue representation this table uses.
    pub fn store(&self) -> LinkStore {
        self.queues.store()
    }

    /// Switches the queue representation, **discarding any queued
    /// envelopes** (the registry — ids, endpoints, lookup index — is kept).
    /// Used when warm-starting a cached topology under a different backend
    /// than the one that built it; callers that must preserve in-flight
    /// traffic should not convert mid-run.
    pub fn convert_store(&mut self, store: LinkStore) {
        if store == self.store() {
            return;
        }
        self.queues = Backend::new(store, self.ends.len());
        for pos in &mut self.active_pos {
            *pos = INACTIVE;
        }
        self.active.clear();
        self.total = 0;
        self.queue_ops = 0;
    }

    /// Number of directed links (twice the undirected edge count).
    pub fn link_count(&self) -> usize {
        self.ends.len()
    }

    /// The `(from, to)` endpoints of a link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn ends(&self, link: LinkId) -> (NodeId, NodeId) {
        self.ends[link.index()]
    }

    /// The link carrying messages from `from` to `to`, if the graph has that
    /// adjacency.
    pub fn link_between(&self, from: NodeId, to: NodeId) -> Option<LinkId> {
        let row = self.from_index.get(from.index())?;
        row.binary_search_by_key(&to, |&(t, _)| t)
            .ok()
            .map(|i| row[i].1)
    }

    /// Enqueues an envelope on its link's FIFO queue. Returns the link and
    /// the queue depth *after* the push (for high-water accounting).
    ///
    /// # Panics
    ///
    /// Panics if the envelope's `(from, to)` is not an adjacency of the
    /// graph; [`crate::Simulation`] validates sends before queueing.
    pub fn push(&mut self, env: Envelope) -> (LinkId, usize) {
        let link = self
            .link_between(env.from, env.to)
            .expect("envelope on a non-existent link");
        (link, self.push_on(link, env))
    }

    /// Enqueues an envelope on `link`, already resolved from its
    /// `(from, to)`, and returns the queue depth *after* the push.
    pub(crate) fn push_on(&mut self, link: LinkId, env: Envelope) -> usize {
        debug_assert_eq!(self.ends[link.index()], (env.from, env.to), "wrong link");
        let (len, ops) = self.queues.push(link, env);
        if len == 1 {
            self.active_pos[link.index()] = self.active.len();
            self.active.push(link);
        }
        self.total += 1;
        self.queue_ops += ops;
        len
    }

    /// The oldest in-flight envelope on `link`, if any.
    pub fn head(&self, link: LinkId) -> Option<&Envelope> {
        self.queues.head(link)
    }

    /// Dequeues the oldest envelope of `link` (FIFO), maintaining the active
    /// set. Returns `None` if the link is empty or out of range.
    pub fn pop(&mut self, link: LinkId) -> Option<Envelope> {
        let ends = *self.ends.get(link.index())?;
        let (env, len, ops) = self.queues.pop(link, ends)?;
        if len == 0 {
            let pos = self.active_pos[link.index()];
            debug_assert_ne!(pos, INACTIVE, "active set out of sync");
            self.active.swap_remove(pos);
            self.active_pos[link.index()] = INACTIVE;
            if let Some(&moved) = self.active.get(pos) {
                self.active_pos[moved.index()] = pos;
            }
        }
        self.total -= 1;
        self.queue_ops += ops;
        Some(env)
    }

    /// Messages currently queued on `link`.
    pub fn queue_len(&self, link: LinkId) -> usize {
        self.queues.len(link)
    }

    /// The non-empty links, in deterministic (but unspecified) order.
    pub fn active(&self) -> &[LinkId] {
        &self.active
    }

    /// Total messages in flight across all links.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether no message is in flight.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Stored queue entries inserted or removed since construction or the
    /// last [`LinkTable::clear`]: envelopes pushed/popped for the exact
    /// backend, runs created/exhausted for the counting backend. See the
    /// [module docs](self) for why this is the backend cost measure.
    pub fn queue_ops(&self) -> u64 {
        self.queue_ops
    }

    /// Empties every queue and the active set, keeping the link registry
    /// (ids, endpoints, lookup index) intact. This is what lets a simulation
    /// be warm-started over the same topology without re-registering links:
    /// registration sorts every node's adjacency row, while clearing only
    /// drops queue contents. The [`LinkTable::queue_ops`] counter restarts
    /// from zero.
    pub fn clear(&mut self) {
        self.queues.clear();
        for pos in &mut self.active_pos {
            *pos = INACTIVE;
        }
        self.active.clear();
        self.total = 0;
        self.queue_ops = 0;
    }

    /// A read-only view for schedulers.
    pub fn view(&self) -> LinkView<'_> {
        LinkView { table: self }
    }
}

/// What a [`crate::Scheduler`] sees when asked to pick the next delivery: the
/// non-empty links, their head envelopes and queue depths. Borrowed from the
/// simulation's [`LinkTable`] for the duration of one decision.
#[derive(Debug, Clone, Copy)]
pub struct LinkView<'a> {
    table: &'a LinkTable,
}

impl<'a> LinkView<'a> {
    /// The non-empty links. Guaranteed non-empty when handed to
    /// [`crate::Scheduler::next_link`].
    pub fn active(&self) -> &'a [LinkId] {
        self.table.active()
    }

    /// The oldest (next-to-deliver) envelope on an active link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is empty — schedulers only see active links.
    pub fn head(&self, link: LinkId) -> &'a Envelope {
        self.table.head(link).expect("head of an empty link")
    }

    /// Messages queued on `link`.
    pub fn queue_len(&self, link: LinkId) -> usize {
        self.table.queue_len(link)
    }

    /// The `(from, to)` endpoints of `link`.
    pub fn ends(&self, link: LinkId) -> (NodeId, NodeId) {
        self.table.ends(link)
    }

    /// Total messages in flight.
    pub fn total(&self) -> usize {
        self.table.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Payload;
    use fdn_graph::generators;

    fn env(from: u32, to: u32, seq: u64) -> Envelope {
        Envelope {
            from: NodeId(from),
            to: NodeId(to),
            payload: vec![seq as u8].into(),
            seq,
        }
    }

    /// A pulse envelope: the same payload regardless of seq.
    fn pulse(from: u32, to: u32, seq: u64) -> Envelope {
        Envelope {
            from: NodeId(from),
            to: NodeId(to),
            payload: Payload::pulse(),
            seq,
        }
    }

    #[test]
    fn link_store_labels_roundtrip() {
        for store in LinkStore::ALL {
            assert_eq!(LinkStore::parse(&store.to_string()).unwrap(), store);
        }
        assert_eq!(LinkStore::default(), LinkStore::Exact);
        assert!(LinkStore::parse("compressed").is_err());
    }

    #[test]
    fn link_ids_cover_every_directed_adjacency() {
        let g = generators::cycle(4).unwrap();
        let t = LinkTable::new(&g);
        assert_eq!(t.link_count(), 2 * g.edge_count());
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                let l = t.link_between(u, v).unwrap();
                assert_eq!(t.ends(l), (u, v));
            }
        }
        // Opposite directions are distinct links.
        let a = t.link_between(NodeId(0), NodeId(1)).unwrap();
        let b = t.link_between(NodeId(1), NodeId(0)).unwrap();
        assert_ne!(a, b);
        // Non-adjacent pairs have no link.
        assert_eq!(t.link_between(NodeId(0), NodeId(2)), None);
        assert_eq!(t.link_between(NodeId(9), NodeId(0)), None);
    }

    #[test]
    fn push_pop_preserves_fifo_per_link() {
        for store in LinkStore::ALL {
            let g = generators::cycle(4).unwrap();
            let mut t = LinkTable::with_store(&g, store);
            assert_eq!(t.store(), store);
            let (l01, d1) = t.push(env(0, 1, 1));
            let (same, d2) = t.push(env(0, 1, 2));
            assert_eq!(l01, same);
            assert_eq!((d1, d2), (1, 2));
            t.push(env(1, 2, 3));
            assert_eq!(t.total(), 3);
            assert_eq!(t.active().len(), 2);
            assert_eq!(t.head(l01).unwrap().seq, 1);
            assert_eq!(t.pop(l01).unwrap().seq, 1);
            assert_eq!(t.pop(l01).unwrap().seq, 2);
            assert_eq!(t.pop(l01), None);
            assert_eq!(t.total(), 1);
            assert_eq!(t.active().len(), 1);
        }
    }

    #[test]
    fn active_set_tracks_empty_and_non_empty_links() {
        for store in LinkStore::ALL {
            let g = generators::cycle(5).unwrap();
            let mut t = LinkTable::with_store(&g, store);
            assert!(t.is_empty());
            assert!(t.active().is_empty());
            let (a, _) = t.push(env(0, 1, 0));
            let (b, _) = t.push(env(1, 2, 1));
            let (c, _) = t.push(env(2, 3, 2));
            assert_eq!(t.active(), &[a, b, c]);
            // Draining the *first* active link swap-removes: c takes its slot.
            t.pop(a).unwrap();
            assert_eq!(t.active(), &[c, b]);
            // Re-activation appends at the end again.
            t.push(env(0, 1, 3));
            assert_eq!(t.active(), &[c, b, a]);
            t.pop(c).unwrap();
            t.pop(b).unwrap();
            t.pop(a).unwrap();
            assert!(t.is_empty());
            assert!(t.active().is_empty());
        }
    }

    #[test]
    fn view_exposes_heads_depths_and_ends() {
        for store in LinkStore::ALL {
            let g = generators::cycle(4).unwrap();
            let mut t = LinkTable::with_store(&g, store);
            let (l, _) = t.push(env(2, 1, 7));
            t.push(env(2, 1, 8));
            let view = t.view();
            assert_eq!(view.active(), &[l]);
            assert_eq!(view.head(l).seq, 7);
            assert_eq!(view.queue_len(l), 2);
            assert_eq!(view.ends(l), (NodeId(2), NodeId(1)));
            assert_eq!(view.total(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "non-existent link")]
    fn push_on_missing_adjacency_panics() {
        let g = generators::cycle(4).unwrap();
        let mut t = LinkTable::new(&g);
        t.push(env(0, 2, 0));
    }

    #[test]
    #[should_panic(expected = "non-existent link")]
    fn push_on_missing_adjacency_panics_in_counting_mode() {
        let g = generators::cycle(4).unwrap();
        let mut t = LinkTable::with_store(&g, LinkStore::Counting);
        t.push(env(0, 2, 0));
    }

    /// Pushes the same traffic into both backends and drains link-by-link in
    /// the same order, asserting every popped envelope (payload *and* seq),
    /// every reported depth, every head and the active set agree — the
    /// table-level core of the representation-equivalence contract.
    fn assert_backends_agree(traffic: &[Envelope]) {
        let g = generators::cycle(6).unwrap();
        let mut exact = LinkTable::new(&g);
        let mut counting = LinkTable::with_store(&g, LinkStore::Counting);
        for env in traffic {
            let (le, de) = exact.push(env.clone());
            let (lc, dc) = counting.push(env.clone());
            assert_eq!((le, de), (lc, dc), "push disagreement on {env:?}");
            assert_eq!(exact.active(), counting.active());
        }
        while !exact.is_empty() {
            let link = exact.active()[0];
            assert_eq!(exact.head(link), counting.head(link));
            assert_eq!(exact.queue_len(link), counting.queue_len(link));
            let a = exact.pop(link);
            let b = counting.pop(link);
            assert_eq!(a, b);
            assert_eq!(exact.active(), counting.active());
            assert_eq!(exact.total(), counting.total());
        }
        assert!(counting.is_empty());
    }

    #[test]
    fn backends_agree_on_homogeneous_pulse_runs() {
        // Consecutive seqs (stride 1) on one link.
        let traffic: Vec<Envelope> = (0..100).map(|s| pulse(0, 1, s)).collect();
        assert_backends_agree(&traffic);
    }

    #[test]
    fn backends_agree_on_broadcast_stride_runs() {
        // A node alternating sends to both ring neighbours: each link sees a
        // constant stride of 2 — the drain pattern of a pulse broadcast.
        let traffic: Vec<Envelope> = (0..100)
            .map(|s| {
                if s % 2 == 0 {
                    pulse(1, 0, s)
                } else {
                    pulse(1, 2, s)
                }
            })
            .collect();
        assert_backends_agree(&traffic);
    }

    #[test]
    fn backends_agree_on_runs_split_by_control_envelopes() {
        // Pulses interrupted by distinguishable control payloads (CCinit
        // shares / ControlMsg-style), at every interruption position.
        for split in 0..12 {
            let mut traffic = Vec::new();
            for s in 0..12u64 {
                if s == split {
                    traffic.push(env(0, 1, s)); // distinct payload: seq byte
                } else {
                    traffic.push(pulse(0, 1, s));
                }
            }
            assert_backends_agree(&traffic);
        }
    }

    #[test]
    fn backends_agree_on_irregular_seq_gaps() {
        // Same payload but a non-constant stride: runs must break rather
        // than mis-reconstruct seqs.
        let seqs = [0u64, 1, 2, 10, 11, 13, 14, 15, 40, 41, 42, 43, 99];
        let traffic: Vec<Envelope> = seqs.iter().map(|&s| pulse(3, 4, s)).collect();
        assert_backends_agree(&traffic);
    }

    #[test]
    fn counting_runs_collapse_queue_ops() {
        let g = generators::cycle(4).unwrap();
        let n = 1_000u64;
        let mut exact = LinkTable::new(&g);
        let mut counting = LinkTable::with_store(&g, LinkStore::Counting);
        for t in [&mut exact, &mut counting] {
            for s in 0..n {
                t.push(pulse(0, 1, s));
            }
            let l = t.link_between(NodeId(0), NodeId(1)).unwrap();
            for s in 0..n {
                assert_eq!(t.pop(l).unwrap().seq, s);
            }
        }
        // Exact pays 2 ops per envelope; the whole homogeneous run costs the
        // counting backend one run created + one exhausted.
        assert_eq!(exact.queue_ops(), 2 * n);
        assert_eq!(counting.queue_ops(), 2);
        assert!(exact.queue_ops() >= 10 * counting.queue_ops());
    }

    #[test]
    fn clear_and_convert_keep_the_registry() {
        let g = generators::cycle(4).unwrap();
        let mut t = LinkTable::with_store(&g, LinkStore::Counting);
        for s in 0..50 {
            t.push(pulse(0, 1, s));
        }
        assert!(t.queue_ops() > 0);
        t.clear();
        assert!(t.is_empty());
        assert!(t.active().is_empty());
        assert_eq!(t.queue_ops(), 0);
        assert_eq!(t.store(), LinkStore::Counting);
        // The registry survives: pushes still resolve to the same link ids.
        let l = t.link_between(NodeId(0), NodeId(1)).unwrap();
        let (l2, _) = t.push(pulse(0, 1, 99));
        assert_eq!(l, l2);

        // Conversion discards traffic but keeps ids and endpoints.
        t.convert_store(LinkStore::Exact);
        assert_eq!(t.store(), LinkStore::Exact);
        assert!(t.is_empty());
        assert_eq!(t.link_between(NodeId(0), NodeId(1)), Some(l));
        assert_eq!(t.ends(l), (NodeId(0), NodeId(1)));
        // Converting to the current store is a no-op even with traffic.
        t.push(pulse(0, 1, 100));
        t.convert_store(LinkStore::Exact);
        assert_eq!(t.total(), 1);
    }
}
