//! In-flight messages and their shared payload representation.

#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use fdn_graph::NodeId;

/// An immutable, cheaply-clonable message payload.
///
/// The protocol under study is *content-oblivious*: almost every message is
/// the identical single-byte pulse, broadcast to every neighbour. The pulse
/// ([`Payload::pulse`]) therefore has a representation of its own that holds
/// no allocation: cloning it copies a tag and dropping it frees nothing, so
/// a pulse costs no reference count on any thread. Every other payload stores
/// its bytes behind an [`Arc`], so a broadcast serializes once and every
/// per-link envelope shares it.
///
/// `Payload` is a value type: equality is *byte* equality, so a pulse equals
/// any payload holding the single byte `0`, and reports never depend on
/// allocation history. Pointer identity ([`ptr_eq`](Self::ptr_eq)) is only a
/// fast path: every pulse is identical to every other pulse, and an
/// `Arc`-backed payload to its clones. The counting link backend uses it to
/// classify "same payload" in `O(1)` before falling back to a byte compare.
#[derive(Clone)]
pub struct Payload(Repr);

/// The two representations of a [`Payload`].
#[derive(Clone)]
enum Repr {
    /// The content-less pulse, the byte `0`.
    Pulse,
    /// Any other content, shared between clones.
    Shared(Arc<[u8]>),
}

/// The bytes of [`Payload::pulse`].
const PULSE_BYTES: [u8; 1] = [0];

impl Payload {
    /// The content-less pulse: the single byte `0`, held without an
    /// allocation.
    pub const fn pulse() -> Self {
        Payload(Repr::Pulse)
    }

    /// Copies the bytes out into an owned `Vec` (transcripts and the
    /// [`crate::NoiseModel`] API still speak `Vec<u8>`).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Whether two payloads are the same value by construction: both pulses,
    /// or clones of one allocation. The `O(1)` fast path the counting backend
    /// uses to extend a run without touching bytes.
    pub fn ptr_eq(&self, other: &Payload) -> bool {
        match (&self.0, &other.0) {
            (Repr::Pulse, Repr::Pulse) => true,
            (Repr::Shared(a), Repr::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_ref() == other.as_ref()
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Payload").field(&self.as_ref()).finish()
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_ref()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        match &self.0 {
            Repr::Pulse => &PULSE_BYTES,
            Repr::Shared(bytes) => bytes,
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload(Repr::Shared(bytes.into()))
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload(Repr::Shared(bytes.into()))
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

    #[test]
    fn the_pulse_is_the_byte_zero_without_an_allocation() {
        let pulse = Payload::pulse();
        let shared = Payload::from(PULSE_BYTES.to_vec());
        assert!(pulse.ptr_eq(&pulse.clone()));
        // One value on every thread: there is no per-thread share.
        let other = std::thread::scope(|s| {
            s.spawn(Payload::pulse)
                .join()
                .expect("pulse thread panicked")
        });
        assert!(pulse.ptr_eq(&other));
        assert!(!pulse.ptr_eq(&shared) && !shared.ptr_eq(&pulse));
        assert_eq!(pulse, shared);
        assert_ne!(pulse, Payload::from(vec![0, 0]));
        assert_eq!(&*pulse, &PULSE_BYTES);
        assert_eq!(&*pulse, &[0]);
        assert_eq!(pulse.to_vec(), vec![0]);
        // What reports and logs print of a pulse is the one-byte payload's.
        assert_eq!(format!("{pulse:?}"), format!("{shared:?}"));
        assert_eq!(format!("{pulse:?}"), "Payload([0])");
        // The pulse variant fits the `Arc` pointer's niche.
        assert_eq!(std::mem::size_of::<Payload>(), 16);
        assert_eq!(std::mem::size_of::<Envelope>(), 32);
    }
}
