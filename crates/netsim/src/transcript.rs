//! Execution transcripts.
//!
//! The paper defines the transcript `τ` of an execution as the ordered
//! sequence of send and receive events, each tagged with the nodes and the
//! link involved. The simulator can optionally record this sequence; the
//! equivalence experiments use it to check the Theorem 6/12 guarantee that
//! the simulated execution corresponds to a valid noiseless execution of the
//! inner protocol.

#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use fdn_graph::NodeId;

/// One entry of a transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranscriptEvent {
    /// `from` handed a message for `to` to the channel.
    Sent {
        from: NodeId,
        to: NodeId,
        payload: Vec<u8>,
    },
    /// `to` received a message from `from` (after noise).
    Delivered {
        from: NodeId,
        to: NodeId,
        payload: Vec<u8>,
    },
    /// The noise model deleted the message `from` sent towards `to` (only
    /// possible under deletion-side adversaries, never in the paper's model).
    /// The payload is the one that was sent; neither endpoint observes the
    /// event.
    Dropped {
        from: NodeId,
        to: NodeId,
        payload: Vec<u8>,
    },
}

impl TranscriptEvent {
    /// The node performing (or, for `Dropped`, suffering) the action: sender
    /// for `Sent`, receiver for `Delivered` and `Dropped`.
    pub fn actor(&self) -> NodeId {
        match self {
            TranscriptEvent::Sent { from, .. } => *from,
            TranscriptEvent::Delivered { to, .. } | TranscriptEvent::Dropped { to, .. } => *to,
        }
    }
}

/// The ordered sequence of send/deliver events of one execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transcript {
    events: Vec<TranscriptEvent>,
}

impl Transcript {
    /// Creates an empty transcript.
    pub fn new() -> Self {
        Transcript::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: TranscriptEvent) {
        self.events.push(event);
    }

    /// All events in order.
    pub fn events(&self) -> &[TranscriptEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The local transcript of a node: the subsequence of events in which the
    /// node is the sender or the receiver (the paper's `τ_v`).
    pub fn local(&self, node: NodeId) -> Vec<&TranscriptEvent> {
        self.events.iter().filter(|e| e.actor() == node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let mut t = Transcript::new();
        assert!(t.is_empty());
        t.push(TranscriptEvent::Sent {
            from: NodeId(0),
            to: NodeId(1),
            payload: vec![1],
        });
        t.push(TranscriptEvent::Delivered {
            from: NodeId(0),
            to: NodeId(1),
            payload: vec![1],
        });
        t.push(TranscriptEvent::Sent {
            from: NodeId(1),
            to: NodeId(0),
            payload: vec![2],
        });
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.events().len(), 3);
        let local0 = t.local(NodeId(0));
        assert_eq!(local0.len(), 1);
        let local1 = t.local(NodeId(1));
        assert_eq!(local1.len(), 2);
        assert_eq!(local1[0].actor(), NodeId(1));
        // A dropped message is attributed to its would-be receiver.
        t.push(TranscriptEvent::Dropped {
            from: NodeId(1),
            to: NodeId(0),
            payload: vec![3],
        });
        assert_eq!(t.local(NodeId(0)).len(), 2);
        assert_eq!(t.events()[3].actor(), NodeId(0));
    }
}
