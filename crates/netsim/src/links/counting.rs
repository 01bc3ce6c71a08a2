//! The counting queue backend: run-length-encoded per-link queues for
//! content-oblivious pulse traffic.
//!
//! A *run* is a maximal block of queued messages on one link that share a
//! payload (classified in `O(1)` by [`crate::Payload::ptr_eq`], which holds
//! for any two pulses and for clones of one allocation, with a byte-compare
//! fallback) and whose sequence numbers advance by a constant stride — exactly the shape a pulse broadcast produces, where one drain of
//! a node's outbox hands consecutive global seqs to its outgoing links. A
//! run stores `(payload, first_seq, stride, count)`; a link carrying a
//! million such pulses costs one run and delivery is a decrement that
//! reconstructs each envelope's exact `seq` arithmetically.
//!
//! Messages that do not extend the last run — distinguishable control
//! payloads (CCinit shares, `ControlMsg` envelopes) or same-payload messages
//! arriving with an irregular seq gap — simply start a new run of their own,
//! so nothing is ever approximated: the backend reproduces the identical
//! envelope sequence the exact backend stores, which is what the
//! representation-equivalence gates verify.
//!
//! The oldest message of each link is kept **materialised** as a real
//! [`Envelope`] so scheduler views (`head`) borrow an envelope without any
//! interior mutability; a pop hands out the materialised head and refills it
//! from the front run. The head is a view cache, not a stored entry: the
//! stored-entry operation count (see [`super::LinkTable::queue_ops`]) pays
//! one for each run created and one for each run exhausted, and nothing for
//! extensions or decrements.

use std::collections::VecDeque;

use fdn_graph::NodeId;

use crate::envelope::{Envelope, Payload};

use super::LinkId;

/// A maximal same-payload, constant-stride block of queued messages.
#[derive(Debug, Clone)]
struct Run {
    payload: Payload,
    /// Seq of the run's oldest (next-to-materialise) message.
    first_seq: u64,
    /// Seq distance between consecutive messages. Only meaningful once
    /// `count >= 2`; a fresh single-message run holds the placeholder 1
    /// until its second message fixes the stride.
    stride: u64,
    count: u64,
}

impl Run {
    /// Whether a message with `seq` extends this run, fixing the stride on
    /// the second message. Seqs are strictly increasing per link (global
    /// send order), but the guard is defensive for direct table use.
    fn try_extend(&mut self, payload: &Payload, seq: u64) -> bool {
        if self.payload != *payload {
            return false;
        }
        if self.count == 1 {
            if seq <= self.first_seq {
                return false;
            }
            self.stride = seq - self.first_seq;
            self.count = 2;
            true
        } else if seq == self.first_seq + self.stride * self.count {
            self.count += 1;
            true
        } else {
            false
        }
    }
}

/// One link's compressed queue: the materialised oldest envelope plus the
/// runs queued behind it.
#[derive(Debug, Clone, Default)]
struct CountingQueue {
    /// The oldest queued message, materialised (`None` iff the link is
    /// empty, in which case `runs` is empty too).
    head: Option<Envelope>,
    /// Compressed blocks behind the head, oldest run first.
    runs: VecDeque<Run>,
    /// Total queued messages, including the head.
    len: usize,
}

/// Per-link run-length-encoded queues.
#[derive(Debug, Clone)]
pub(super) struct CountingQueues {
    queues: Vec<CountingQueue>,
}

impl CountingQueues {
    pub(super) fn new(links: usize) -> Self {
        CountingQueues {
            queues: vec![CountingQueue::default(); links],
        }
    }

    /// Appends `env`; returns the queue length after the push and how many
    /// stored entries (runs) it created: 0 when the push extended a run or
    /// became the materialised head, 1 when it opened a new run.
    pub(super) fn push(&mut self, link: LinkId, env: Envelope) -> (usize, u64) {
        let q = &mut self.queues[link.index()];
        q.len += 1;
        if q.head.is_none() {
            debug_assert!(q.runs.is_empty(), "runs behind an empty head");
            q.head = Some(env);
            return (q.len, 0);
        }
        let extended = q
            .runs
            .back_mut()
            .is_some_and(|run| run.try_extend(&env.payload, env.seq));
        if extended {
            return (q.len, 0);
        }
        q.runs.push_back(Run {
            payload: env.payload,
            first_seq: env.seq,
            stride: 1,
            count: 1,
        });
        (q.len, 1)
    }

    /// Removes the oldest message; returns it with the remaining queue
    /// length and how many stored entries (runs) were exhausted by refilling
    /// the head. `None` if the link is empty or out of range. `ends` names
    /// the link's `(from, to)` for rematerialisation — every message on a
    /// directed link shares them, so runs do not store endpoints.
    pub(super) fn pop(
        &mut self,
        link: LinkId,
        ends: (NodeId, NodeId),
    ) -> Option<(Envelope, usize, u64)> {
        let q = self.queues.get_mut(link.index())?;
        let env = q.head.take()?;
        q.len -= 1;
        let mut ops = 0;
        if let Some(run) = q.runs.front_mut() {
            let (from, to) = ends;
            q.head = Some(Envelope {
                from,
                to,
                payload: run.payload.clone(),
                seq: run.first_seq,
            });
            run.first_seq += run.stride;
            run.count -= 1;
            if run.count == 0 {
                q.runs.pop_front();
                ops = 1;
            }
        }
        debug_assert_eq!(q.head.is_none(), q.len == 0, "head/len out of sync");
        Some((env, q.len, ops))
    }

    pub(super) fn head(&self, link: LinkId) -> Option<&Envelope> {
        self.queues.get(link.index()).and_then(|q| q.head.as_ref())
    }

    pub(super) fn len(&self, link: LinkId) -> usize {
        self.queues.get(link.index()).map_or(0, |q| q.len)
    }

    pub(super) fn clear(&mut self) {
        for q in &mut self.queues {
            q.head = None;
            q.runs.clear();
            q.len = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse(seq: u64) -> Envelope {
        Envelope {
            from: NodeId(0),
            to: NodeId(1),
            payload: Payload::pulse(),
            seq,
        }
    }

    const LINK: LinkId = LinkId(0);
    const ENDS: (NodeId, NodeId) = (NodeId(0), NodeId(1));

    #[test]
    fn a_million_pulse_link_is_one_run() {
        let mut q = CountingQueues::new(1);
        let n = 1_000_000u64;
        let mut created = 0;
        for s in 0..n {
            let (_, ops) = q.push(LINK, pulse(s));
            created += ops;
        }
        // One run: everything past the materialised head extends it.
        assert_eq!(created, 1);
        assert_eq!(q.len(LINK), n as usize);
        // Spot-check the reconstruction without draining a million entries.
        assert_eq!(q.head(LINK).unwrap().seq, 0);
        let (e, len, _) = q.pop(LINK, ENDS).unwrap();
        assert_eq!((e.seq, len), (0, n as usize - 1));
        assert_eq!(q.head(LINK).unwrap().seq, 1);
    }

    #[test]
    fn stride_is_fixed_by_the_second_message() {
        let mut q = CountingQueues::new(1);
        // head 0, then a stride-7 run: 10, 17, 24.
        for s in [0, 10, 17, 24] {
            q.push(LINK, pulse(s));
        }
        // 31 extends; 40 breaks the stride and opens a new run.
        let (_, ops) = q.push(LINK, pulse(31));
        assert_eq!(ops, 0);
        let (_, ops) = q.push(LINK, pulse(40));
        assert_eq!(ops, 1);
        let mut seqs = Vec::new();
        while let Some((e, _, _)) = q.pop(LINK, ENDS) {
            seqs.push(e.seq);
        }
        assert_eq!(seqs, vec![0, 10, 17, 24, 31, 40]);
    }

    #[test]
    fn byte_equal_payloads_extend_a_pulse_run() {
        let mut q = CountingQueues::new(1);
        q.push(LINK, pulse(0));
        q.push(LINK, pulse(1));
        // Not the pulse by construction, but the same byte: the run grows.
        let allocated = Envelope {
            payload: vec![0].into(),
            ..pulse(2)
        };
        assert_eq!(q.push(LINK, allocated).1, 0);
        let other = Envelope {
            payload: vec![1].into(),
            ..pulse(3)
        };
        assert_eq!(q.push(LINK, other).1, 1);
        let mut popped = Vec::new();
        while let Some((e, _, _)) = q.pop(LINK, ENDS) {
            popped.push((e.seq, e.payload.to_vec()));
        }
        assert_eq!(
            popped,
            vec![(0, vec![0]), (1, vec![0]), (2, vec![0]), (3, vec![1])]
        );
    }

    #[test]
    fn non_increasing_seq_starts_a_new_run() {
        let mut q = CountingQueues::new(1);
        q.push(LINK, pulse(5));
        q.push(LINK, pulse(9)); // materialised head 5, run {9}
        let (_, ops) = q.push(LINK, pulse(9)); // defensive: no stride-0 runs
        assert_eq!(ops, 1);
        let mut seqs = Vec::new();
        while let Some((e, _, _)) = q.pop(LINK, ENDS) {
            seqs.push(e.seq);
        }
        assert_eq!(seqs, vec![5, 9, 9]);
    }
}
