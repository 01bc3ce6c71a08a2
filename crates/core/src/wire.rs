//! The wire format of simulated messages.
//!
//! Whatever the inner protocol `π` asks to send is wrapped as
//! `(message, source, destination)` — exactly the triple the paper's
//! simulators enqueue (Algorithm 1/3, "Handling messages sent by π"). The
//! destination may be a single node or `*` (the broadcast extension of
//! Remark 3, used pervasively by the Robbins-cycle construction).
//!
//! The byte encoding is deliberately compact (2 header bytes) because the
//! simulators pay `Θ(|C|)` pulses *per bit* under the binary encoding and
//! `Θ(2^{bits})` under the unary encoding.

use fdn_graph::{Graph, NodeId};
use fdn_netsim::{Dest, ProtocolMsg};

use crate::error::CoreError;

/// Maximum node id representable by the *compact* wire header (id 255 is
/// reserved as the broadcast marker). Messages whose ids all fit use the
/// historical 2-byte header, so small-graph byte streams — and with them the
/// pulse costs every saved report and golden fingerprint encode — are
/// unchanged by the wide format below.
pub const MAX_NODE_ID: u32 = 254;

/// First header byte of the wide format. A compact header's first byte is a
/// source id and therefore at most [`MAX_NODE_ID`], so `0xFF` unambiguously
/// marks the 5-byte header `[0xFF][src u16 LE][dest u16 LE]` used when any
/// id exceeds the compact range (large-n campaigns).
const WIDE_MARKER: u8 = 0xFF;

/// Wide-format broadcast destination marker.
const WIDE_BROADCAST: u16 = 0xFFFF;

/// Maximum node id representable at all (`0xFFFF` is reserved as the wide
/// broadcast marker).
pub const MAX_WIDE_NODE_ID: u32 = 65_534;

/// Checks that every node of `graph` has a wire id.
///
/// # Errors
///
/// Returns [`CoreError::TooManyNodes`] if the graph has more nodes than
/// [`MAX_WIDE_NODE_ID`] allows.
pub(crate) fn check_node_count(graph: &Graph) -> Result<(), CoreError> {
    let max = MAX_WIDE_NODE_ID as usize + 1;
    if graph.node_count() > max {
        return Err(CoreError::TooManyNodes {
            nodes: graph.node_count(),
            max,
        });
    }
    Ok(())
}

/// A simulated message in flight: the inner protocol's payload plus the
/// source and destination the simulator must route it between.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WireMessage {
    /// The node whose inner protocol emitted the message.
    pub src: NodeId,
    /// Where it should be delivered.
    pub dest: Dest,
    /// The inner protocol's payload.
    pub payload: Vec<u8>,
}

impl WireMessage {
    /// Wraps a message emitted by the inner protocol at `src`.
    pub fn from_protocol(src: NodeId, msg: ProtocolMsg) -> Self {
        WireMessage {
            src,
            dest: msg.dest,
            payload: msg.payload,
        }
    }

    /// Convenience constructor for a point-to-point message.
    pub fn to_node(src: NodeId, dest: NodeId, payload: Vec<u8>) -> Self {
        WireMessage {
            src,
            dest: Dest::Node(dest),
            payload,
        }
    }

    /// Convenience constructor for a broadcast message.
    pub fn broadcast(src: NodeId, payload: Vec<u8>) -> Self {
        WireMessage {
            src,
            dest: Dest::Broadcast,
            payload,
        }
    }

    /// Whether the message should be handed to the inner protocol of `node`.
    pub fn is_for(&self, node: NodeId) -> bool {
        match self.dest {
            Dest::Node(v) => v == node,
            Dest::Broadcast => true,
        }
    }

    /// Whether every id fits the historical 2-byte compact header. The
    /// serializer always prefers the compact form, so graphs with at most
    /// [`MAX_NODE_ID`]` + 1` nodes produce exactly the bytes they always did.
    fn fits_compact(&self) -> bool {
        self.src.0 <= MAX_NODE_ID
            && match self.dest {
                Dest::Broadcast => true,
                Dest::Node(v) => v.0 <= MAX_NODE_ID,
            }
    }

    /// Serializes to the wire format: the compact `[src][dest|0xFF]` header
    /// when every id fits, else the wide `[0xFF][src u16][dest u16]` header.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TooManyNodes`] if an id exceeds
    /// [`MAX_WIDE_NODE_ID`].
    pub fn to_bytes(&self) -> Result<Vec<u8>, CoreError> {
        if self.fits_compact() {
            let dest_byte = match self.dest {
                Dest::Broadcast => 0xFF,
                Dest::Node(v) => v.0 as u8,
            };
            let mut out = Vec::with_capacity(2 + self.payload.len());
            out.push(self.src.0 as u8);
            out.push(dest_byte);
            out.extend_from_slice(&self.payload);
            return Ok(out);
        }
        let check = |id: u32| {
            if id > MAX_WIDE_NODE_ID {
                Err(CoreError::TooManyNodes {
                    nodes: id as usize + 1,
                    max: MAX_WIDE_NODE_ID as usize + 1,
                })
            } else {
                Ok(id as u16)
            }
        };
        let src = check(self.src.0)?;
        let dest = match self.dest {
            Dest::Broadcast => WIDE_BROADCAST,
            Dest::Node(v) => check(v.0)?,
        };
        let mut out = Vec::with_capacity(5 + self.payload.len());
        out.push(WIDE_MARKER);
        out.extend_from_slice(&src.to_le_bytes());
        out.extend_from_slice(&dest.to_le_bytes());
        out.extend_from_slice(&self.payload);
        Ok(out)
    }

    /// Parses the wire format (compact or wide — self-describing via the
    /// first header byte).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedWireMessage`] if the buffer is shorter
    /// than its header.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        if bytes.first() == Some(&WIDE_MARKER) {
            if bytes.len() < 5 {
                return Err(CoreError::MalformedWireMessage(format!(
                    "need at least 5 wide-header bytes, got {}",
                    bytes.len()
                )));
            }
            let src = NodeId(u32::from(u16::from_le_bytes([bytes[1], bytes[2]])));
            let dest_raw = u16::from_le_bytes([bytes[3], bytes[4]]);
            let dest = if dest_raw == WIDE_BROADCAST {
                Dest::Broadcast
            } else {
                Dest::Node(NodeId(u32::from(dest_raw)))
            };
            return Ok(WireMessage {
                src,
                dest,
                payload: bytes[5..].to_vec(),
            });
        }
        if bytes.len() < 2 {
            return Err(CoreError::MalformedWireMessage(format!(
                "need at least 2 header bytes, got {}",
                bytes.len()
            )));
        }
        let src = NodeId(u32::from(bytes[0]));
        let dest = if bytes[1] == 0xFF {
            Dest::Broadcast
        } else {
            Dest::Node(NodeId(u32::from(bytes[1])))
        };
        Ok(WireMessage {
            src,
            dest,
            payload: bytes[2..].to_vec(),
        })
    }

    /// The serialized length in bits (the `|M| = |m| + O(log n)` of the
    /// paper's cost accounting). Mirrors [`WireMessage::to_bytes`]' choice
    /// of header.
    pub fn bit_len(&self) -> usize {
        let header = if self.fits_compact() { 2 } else { 5 };
        (header + self.payload.len()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_node_dest() {
        let m = WireMessage::to_node(NodeId(3), NodeId(7), vec![1, 2, 3]);
        let bytes = m.to_bytes().unwrap();
        assert_eq!(bytes.len(), 5);
        assert_eq!(WireMessage::from_bytes(&bytes).unwrap(), m);
        assert_eq!(m.bit_len(), 40);
        assert!(m.is_for(NodeId(7)));
        assert!(!m.is_for(NodeId(3)));
    }

    #[test]
    fn roundtrip_broadcast() {
        let m = WireMessage::broadcast(NodeId(0), vec![]);
        let bytes = m.to_bytes().unwrap();
        assert_eq!(bytes, vec![0, 0xFF]);
        let back = WireMessage::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert!(back.is_for(NodeId(42)));
    }

    #[test]
    fn roundtrip_empty_payload_and_binary_payload() {
        for payload in [vec![], vec![0u8], vec![0xFF, 0x00, 0x7F]] {
            let m = WireMessage::to_node(NodeId(1), NodeId(2), payload);
            assert_eq!(WireMessage::from_bytes(&m.to_bytes().unwrap()).unwrap(), m);
        }
    }

    #[test]
    fn large_ids_use_the_wide_header_and_roundtrip() {
        // One id past the compact range switches the whole header to wide.
        for m in [
            WireMessage::to_node(NodeId(255), NodeId(0), vec![]),
            WireMessage::to_node(NodeId(0), NodeId(300), vec![7]),
            WireMessage::to_node(NodeId(9_999), NodeId(65_534), vec![1, 2]),
            WireMessage::broadcast(NodeId(1_000), vec![]),
        ] {
            let bytes = m.to_bytes().unwrap();
            assert_eq!(bytes[0], 0xFF, "wide marker for {m:?}");
            assert_eq!(bytes.len(), 5 + m.payload.len());
            assert_eq!(m.bit_len(), bytes.len() * 8);
            assert_eq!(WireMessage::from_bytes(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn compact_header_bytes_are_unchanged_for_small_ids() {
        // The historical encoding, byte for byte: large-n support must not
        // perturb the costs small-graph reports and fingerprints encode.
        let m = WireMessage::to_node(NodeId(254), NodeId(0), vec![9]);
        assert_eq!(m.to_bytes().unwrap(), vec![254, 0, 9]);
        assert_eq!(m.bit_len(), 24);
    }

    #[test]
    fn rejects_oversized_ids_and_short_buffers() {
        let m = WireMessage::to_node(NodeId(65_535), NodeId(0), vec![]);
        assert!(matches!(m.to_bytes(), Err(CoreError::TooManyNodes { .. })));
        let m = WireMessage::to_node(NodeId(0), NodeId(70_000), vec![]);
        assert!(matches!(m.to_bytes(), Err(CoreError::TooManyNodes { .. })));
        assert!(matches!(
            WireMessage::from_bytes(&[5]),
            Err(CoreError::MalformedWireMessage(_))
        ));
        // A truncated wide header is malformed, not a short compact message.
        assert!(matches!(
            WireMessage::from_bytes(&[0xFF, 1, 0]),
            Err(CoreError::MalformedWireMessage(_))
        ));
    }

    #[test]
    fn from_protocol_msg() {
        let m = WireMessage::from_protocol(
            NodeId(4),
            ProtocolMsg {
                dest: Dest::Broadcast,
                payload: vec![9],
            },
        );
        assert_eq!(m.dest, Dest::Broadcast);
        assert_eq!(m.src, NodeId(4));
        let m = WireMessage::from_protocol(
            NodeId(4),
            ProtocolMsg {
                dest: Dest::Node(NodeId(1)),
                payload: vec![9],
            },
        );
        assert_eq!(m.dest, Dest::Node(NodeId(1)));
    }
}
