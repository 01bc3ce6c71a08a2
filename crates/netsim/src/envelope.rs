//! In-flight messages and their shared payload representation.

#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use std::ops::Deref;
use std::sync::Arc;

use fdn_graph::NodeId;

/// An immutable, cheaply-clonable message payload.
///
/// The protocol under study is *content-oblivious*: almost every message is
/// the identical single-byte pulse, broadcast to every neighbour. Storing the
/// bytes behind an [`Arc`] means a broadcast serializes its payload once and
/// every per-link envelope shares it, and the counting link backend can
/// classify "same payload" in `O(1)` by pointer identity before falling back
/// to a byte compare.
///
/// `Payload` is a value type: equality is *byte* equality (pointer identity is
/// only a fast path), so two independently-built pulses still compare equal
/// and reports never depend on allocation history.
#[derive(Debug, Clone, Eq)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// Copies the bytes out into an owned `Vec` (transcripts and the
    /// [`crate::NoiseModel`] API still speak `Vec<u8>`).
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// Whether two payloads share the same allocation — the `O(1)` fast path
    /// the counting backend uses to extend a run without touching bytes.
    pub fn ptr_eq(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.0 == other.0
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload(bytes.into())
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload(bytes.into())
    }
}

/// A message travelling on a link: sender, receiver and the payload as it was
/// sent. Noise is applied only at delivery time, so the envelope always
/// carries the original content (the paper's communication-complexity
/// accounting measures the *sent* length, before corruption).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Payload exactly as handed to the channel by the sender.
    pub payload: Payload,
    /// Global send sequence number (used by FIFO/LIFO schedulers and for
    /// deterministic tie-breaking).
    pub seq: u64,
}

impl Envelope {
    /// Payload length in bits, as counted by the paper's `CC` measures.
    pub fn bits(&self) -> u64 {
        self.payload.len() as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_counts_payload_length() {
        let e = Envelope {
            from: NodeId(0),
            to: NodeId(1),
            payload: vec![0xff, 0x00].into(),
            seq: 7,
        };
        assert_eq!(e.bits(), 16);
    }

    #[test]
    fn payload_equality_is_byte_equality() {
        let a: Payload = vec![1, 2, 3].into();
        let b = a.clone();
        let c: Payload = vec![1, 2, 3].into();
        let d: Payload = vec![4].into();
        assert!(a.ptr_eq(&b));
        assert!(!a.ptr_eq(&c));
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, d);
        assert_eq!(&*a, &[1, 2, 3]);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
    }
}
