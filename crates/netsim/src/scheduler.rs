//! Delivery schedulers: the source of asynchrony.
//!
//! The paper's model only promises that every sent message is delivered after
//! an *arbitrary, finite* delay. In the simulator this adversarial freedom is
//! captured by a [`Scheduler`]: at each step it selects which **link**
//! delivers its oldest in-flight message next. The event core keeps one FIFO
//! queue per directed link ([`crate::LinkTable`]), so a scheduling decision
//! ranges over the `O(active links)` non-empty links instead of the
//! `O(messages)` flat scan of the first-generation engine — and the default
//! [`RandomScheduler`] decides in `O(1)`.
//!
//! **Semantics note (link-indexed core).** Messages sharing a directed link
//! are delivered in send order (per-link FIFO, like a physical wire);
//! schedulers reorder freely *across* links. This is a legal refinement of
//! the paper's asynchrony model. Compared with the pre-refactor flat-scan
//! engine, [`FifoScheduler`] is byte-identical (the globally oldest message
//! is always some link's head), while [`RandomScheduler`] and
//! [`LifoScheduler`] pick among links rather than among individual messages,
//! so their interleavings — and transcripts — legitimately differ from old
//! runs whenever a link queues two or more messages. The campaign diff gate
//! compares reports produced by the *same* engine generation, so this change
//! shows up only when diffing against pre-refactor artifacts (expect pulse
//! p50/p95 shifts on random/lifo cells, never success-rate drops: Theorems 2
//! and 10 hold under every admissible schedule).

#![expect(
    clippy::disallowed_methods,
    reason = "D3: a seeded RNG factory; every schedule derives from the scenario's scheduler seed"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

use fdn_graph::graph::Edge;

use crate::links::{LinkId, LinkView};

/// Chooses which non-empty link delivers its head (oldest message) next.
pub trait Scheduler {
    /// Returns the link (one of `view.active()`, which is guaranteed
    /// non-empty) whose head envelope is delivered next.
    fn next_link(&mut self, view: &LinkView<'_>) -> LinkId;

    /// A short human-readable name used in experiment reports.
    fn name(&self) -> &'static str {
        "scheduler"
    }
}

/// Delivers the head of a uniformly random non-empty link (seeded, hence
/// reproducible). This is the default scheduler, and the reason the
/// link-indexed core schedules in O(1): one `gen_range` over the active set.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates the scheduler with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn next_link(&mut self, view: &LinkView<'_>) -> LinkId {
        let active = view.active();
        active[self.rng.gen_range(0..active.len())]
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Delivers messages in global send order (the most synchronous-looking
/// schedule). The globally oldest message is always the head of some link
/// (per-link queues are in send order), so this is exactly the pre-refactor
/// FIFO schedule, found in `O(active links)` instead of `O(messages)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn next_link(&mut self, view: &LinkView<'_>) -> LinkId {
        *view
            .active()
            .iter()
            .min_by_key(|&&l| view.head(l).seq)
            .expect("active set is non-empty")
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Delivers from the link with the most recently sent *head* — an
/// adversarially "unfair" schedule that maximises cross-link reordering
/// while (like every scheduler on the link-indexed core) preserving
/// per-link FIFO.
#[derive(Debug, Clone, Copy, Default)]
pub struct LifoScheduler;

impl Scheduler for LifoScheduler {
    fn next_link(&mut self, view: &LinkView<'_>) -> LinkId {
        *view
            .active()
            .iter()
            .max_by_key(|&&l| view.head(l).seq)
            .expect("active set is non-empty")
    }

    fn name(&self) -> &'static str {
        "lifo"
    }
}

/// Starves a designated set of "slow" edges: links on those edges deliver
/// only when nothing else is in flight, and among them the freshest head goes
/// first. Models an adversary that delays specific links as long as the
/// model allows.
#[derive(Debug, Clone)]
pub struct EdgeDelayScheduler {
    slow: BTreeSet<Edge>,
    rng: StdRng,
}

impl EdgeDelayScheduler {
    /// Creates the scheduler with the given slow edges and seed (used to pick
    /// among the non-slow links).
    pub fn new<I: IntoIterator<Item = Edge>>(slow: I, seed: u64) -> Self {
        EdgeDelayScheduler {
            slow: slow.into_iter().collect(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn is_slow(&self, view: &LinkView<'_>, link: LinkId) -> bool {
        let (from, to) = view.ends(link);
        self.slow.contains(&Edge::new(from, to))
    }
}

impl Scheduler for EdgeDelayScheduler {
    fn next_link(&mut self, view: &LinkView<'_>) -> LinkId {
        // Two passes over the active set, no allocation: count the fast
        // links, then select the r-th one.
        let fast = view
            .active()
            .iter()
            .filter(|&&l| !self.is_slow(view, l))
            .count();
        if fast == 0 {
            return *view
                .active()
                .iter()
                .max_by_key(|&&l| view.head(l).seq)
                .expect("active set is non-empty");
        }
        let r = self.rng.gen_range(0..fast);
        *view
            .active()
            .iter()
            .filter(|&&l| !self.is_slow(view, l))
            .nth(r)
            .expect("r < fast link count")
    }

    fn name(&self) -> &'static str {
        "edge-delay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;
    use crate::links::LinkTable;
    use fdn_graph::{generators, NodeId};

    fn env(from: u32, to: u32, seq: u64) -> Envelope {
        Envelope {
            from: NodeId(from),
            to: NodeId(to),
            payload: vec![1].into(),
            seq,
        }
    }

    /// Three single-message links on a 4-cycle, seqs 10/11/12.
    fn table() -> LinkTable {
        let g = generators::cycle(4).unwrap();
        let mut t = LinkTable::new(&g);
        t.push(env(0, 1, 10));
        t.push(env(1, 2, 11));
        t.push(env(2, 3, 12));
        t
    }

    #[test]
    fn fifo_picks_the_link_with_the_oldest_head() {
        let t = table();
        let mut s = FifoScheduler;
        let link = s.next_link(&t.view());
        assert_eq!(t.view().head(link).seq, 10);
        assert_eq!(s.name(), "fifo");
    }

    #[test]
    fn fifo_follows_global_send_order_within_a_link() {
        // Two messages on one link plus a younger one elsewhere: FIFO drains
        // strictly by seq, which per-link queues make reachable (the oldest
        // is always a head).
        let g = generators::cycle(4).unwrap();
        let mut t = LinkTable::new(&g);
        t.push(env(0, 1, 5));
        t.push(env(0, 1, 6));
        t.push(env(3, 2, 7));
        let mut s = FifoScheduler;
        let mut order = Vec::new();
        while !t.is_empty() {
            let l = s.next_link(&t.view());
            order.push(t.pop(l).unwrap().seq);
        }
        assert_eq!(order, vec![5, 6, 7]);
    }

    #[test]
    fn lifo_picks_the_link_with_the_newest_head() {
        let t = table();
        let mut s = LifoScheduler;
        let link = s.next_link(&t.view());
        assert_eq!(t.view().head(link).seq, 12);
        assert_eq!(s.name(), "lifo");
    }

    #[test]
    fn lifo_preserves_fifo_within_each_link() {
        let g = generators::cycle(4).unwrap();
        let mut t = LinkTable::new(&g);
        t.push(env(0, 1, 1));
        t.push(env(0, 1, 9)); // newest overall, but behind seq 1 on its link
        t.push(env(1, 2, 2));
        let mut s = LifoScheduler;
        let l = s.next_link(&t.view());
        // The freshest *head* is seq 2 (link 1->2); seq 9 is queued behind 1.
        assert_eq!(t.view().head(l).seq, 2);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_picks_active_links() {
        let t = table();
        let mut a = RandomScheduler::new(99);
        let mut b = RandomScheduler::new(99);
        for _ in 0..50 {
            let la = a.next_link(&t.view());
            let lb = b.next_link(&t.view());
            assert_eq!(la, lb);
            assert!(t.view().active().contains(&la));
        }
        assert_eq!(a.name(), "random");
    }

    #[test]
    fn edge_delay_starves_slow_edges() {
        let slow = Edge::new(NodeId(0), NodeId(1));
        let mut s = EdgeDelayScheduler::new([slow], 5);
        let t = table();
        // The 0->1 link is slow: never chosen while others are active.
        for _ in 0..50 {
            let l = s.next_link(&t.view());
            assert_ne!(t.view().ends(l), (NodeId(0), NodeId(1)));
        }
        // When only slow-edge links remain they still deliver (finite
        // delay), freshest head first.
        let g = generators::cycle(4).unwrap();
        let mut only_slow = LinkTable::new(&g);
        only_slow.push(env(0, 1, 1));
        only_slow.push(env(1, 0, 2));
        let l = s.next_link(&only_slow.view());
        assert_eq!(only_slow.view().head(l).seq, 2);
        assert_eq!(s.name(), "edge-delay");
    }
}
