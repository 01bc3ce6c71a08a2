//! Versioned, deterministic binary serialization for
//! [`ConstructionCheckpoint`] — the wire format of the persistent
//! checkpoint store.
//!
//! The construction/online boundary is pure data: the learned
//! [`RobbinsCycle`](fdn_graph::RobbinsCycle) plus, per node, the idle
//! [`RobbinsEngine`](crate::engine::RobbinsEngine) — its (rotated) view,
//! token flag, encoding and frozen pulse/epoch counters — and the node's
//! share of `CCinit`. Everything else about an idle engine (empty queue, no
//! pending pulses, the `AwaitTrigger` wait point, the derived direction map)
//! is implied by quiescence, so the format stores exactly the boundary facts
//! and [`decode_checkpoint`] reconstructs the rest through the same
//! constructors and validation a live capture goes through.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  b"FDNC"
//! u16    CHECKPOINT_FORMAT_VERSION
//! u32    node_count
//! u32    cycle_len, then cycle_len x u32 node ids (position 0 = token)
//! per node, in id order:
//!   u64  construction_pulses (the node's CCinit share)
//!   u64  pulses_sent
//!   u64  pulses_received
//!   u64  epochs_completed
//!   u8   is_token_holder (0 | 1)
//!   u8   encoding tag (0 = unary, 1 = binary)
//!   u128 encoding parameter (max_pulses | l)
//!   u32  occurrence_count, then per occurrence: u32 prev, u32 next
//! u64    FNV-1a of every preceding byte
//! ```
//!
//! Encoding is canonical: the same checkpoint always produces the same
//! bytes, so store writers racing on one entry write identical files and a
//! byte-compare of two encodings is a semantic compare. Decoding trusts
//! nothing: the checksum guards against bit rot, the version field against
//! format drift, and the reassembled parts are re-validated by the same
//! quiescence checks as [`ConstructionCheckpoint::capture`] — a bad entry
//! yields [`CoreError::MalformedCheckpoint`], which store consumers treat as
//! "rebuild", never as data.

use fdn_graph::cycle::Occurrence;
use fdn_graph::{LocalCycleView, NodeId, RobbinsCycle};

use super::{ConstructionCheckpoint, NodeCheckpoint};
use crate::encoding::Encoding;
use crate::engine::RobbinsEngine;
use crate::error::CoreError;

/// Version of the checkpoint wire format. Bump on any layout change; the
/// store treats entries with a different version as absent (rebuild and
/// rewrite).
pub const CHECKPOINT_FORMAT_VERSION: u16 = 1;

/// Magic prefix of a serialized checkpoint.
const MAGIC: [u8; 4] = *b"FDNC";

const TAG_UNARY: u8 = 0;
const TAG_BINARY: u8 = 1;

/// 64-bit FNV-1a over `bytes` — the integrity checksum of the checkpoint
/// format, hand-rolled so the wire format needs no dependencies and never
/// drifts with a library upgrade.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serializes `checkpoint` into the canonical byte layout above.
pub fn encode_checkpoint(checkpoint: &ConstructionCheckpoint) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&CHECKPOINT_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(checkpoint.node_count() as u32).to_le_bytes());
    let seq = checkpoint.cycle().seq();
    out.extend_from_slice(&(seq.len() as u32).to_le_bytes());
    for v in seq {
        out.extend_from_slice(&v.0.to_le_bytes());
    }
    for node in checkpoint.nodes() {
        let engine = &node.engine;
        out.extend_from_slice(&node.construction_pulses().to_le_bytes());
        out.extend_from_slice(&engine.pulses_sent().to_le_bytes());
        out.extend_from_slice(&engine.pulses_received().to_le_bytes());
        out.extend_from_slice(&engine.epochs_completed().to_le_bytes());
        out.push(u8::from(engine.is_token_holder()));
        let (tag, param) = match engine.encoding() {
            Encoding::Unary { max_pulses } => (TAG_UNARY, max_pulses),
            Encoding::Binary { l } => (TAG_BINARY, l as u128),
        };
        out.push(tag);
        out.extend_from_slice(&param.to_le_bytes());
        let occurrences = engine.view().occurrences();
        out.extend_from_slice(&(occurrences.len() as u32).to_le_bytes());
        for occ in occurrences {
            out.extend_from_slice(&occ.prev.0.to_le_bytes());
            out.extend_from_slice(&occ.next.0.to_le_bytes());
        }
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// A bounds-checked little-endian reader over the serialized bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(CoreError::MalformedCheckpoint(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, CoreError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Deserializes a checkpoint previously produced by [`encode_checkpoint`],
/// re-validating the quiescence contract on the way in.
///
/// # Errors
///
/// [`CoreError::MalformedCheckpoint`] on a bad magic, an unknown format
/// version, truncation, trailing garbage, a checksum mismatch, or decoded
/// parts that fail the capture-time validation (non-idle engine, token
/// count != 1, view/cycle mismatch, invalid cycle or encoding).
pub fn decode_checkpoint(bytes: &[u8]) -> Result<ConstructionCheckpoint, CoreError> {
    if bytes.len() < MAGIC.len() + 2 + 8 {
        return Err(CoreError::MalformedCheckpoint(format!(
            "{} bytes is too short for a checkpoint",
            bytes.len()
        )));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(CoreError::MalformedCheckpoint(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    let mut cur = Cursor::new(body);
    if cur.take(MAGIC.len())? != MAGIC {
        return Err(CoreError::MalformedCheckpoint("bad magic".into()));
    }
    let version = cur.u16()?;
    if version != CHECKPOINT_FORMAT_VERSION {
        return Err(CoreError::MalformedCheckpoint(format!(
            "format version {version} (this build reads {CHECKPOINT_FORMAT_VERSION})"
        )));
    }
    let node_count = cur.u32()? as usize;
    let cycle_len = cur.u32()? as usize;
    let mut seq = Vec::new();
    for _ in 0..cycle_len {
        seq.push(NodeId(cur.u32()?));
    }
    let cycle = RobbinsCycle::new(seq)
        .map_err(|e| CoreError::MalformedCheckpoint(format!("stored cycle is invalid: {e}")))?;
    let mut nodes = Vec::new();
    for id in 0..node_count {
        let construction_pulses = cur.u64()?;
        let pulses_sent = cur.u64()?;
        let pulses_received = cur.u64()?;
        let epochs_completed = cur.u64()?;
        let is_token_holder = match cur.u8()? {
            0 => false,
            1 => true,
            b => {
                return Err(CoreError::MalformedCheckpoint(format!(
                    "token flag byte {b} (expected 0 or 1)"
                )))
            }
        };
        let tag = cur.u8()?;
        let param = cur.u128()?;
        let encoding = match tag {
            TAG_UNARY => Encoding::Unary { max_pulses: param },
            TAG_BINARY => {
                let l = usize::try_from(param).map_err(|_| {
                    CoreError::MalformedCheckpoint(format!(
                        "binary padding parameter {param} does not fit a usize"
                    ))
                })?;
                Encoding::Binary { l }
            }
            b => {
                return Err(CoreError::MalformedCheckpoint(format!(
                    "unknown encoding tag {b}"
                )))
            }
        };
        let occurrence_count = cur.u32()? as usize;
        if occurrence_count == 0 {
            return Err(CoreError::MalformedCheckpoint(format!(
                "node {id} has no occurrences on the cycle"
            )));
        }
        let mut occurrences = Vec::new();
        for _ in 0..occurrence_count {
            let prev = NodeId(cur.u32()?);
            let next = NodeId(cur.u32()?);
            occurrences.push(Occurrence { prev, next });
        }
        let view = LocalCycleView::new(NodeId(id as u32), occurrences);
        let engine = RobbinsEngine::resume_idle(
            view,
            is_token_holder,
            encoding,
            pulses_sent,
            pulses_received,
            epochs_completed,
        )
        .map_err(|e| {
            CoreError::MalformedCheckpoint(format!("node {id}'s engine does not resume: {e}"))
        })?;
        nodes.push(NodeCheckpoint {
            engine,
            construction_pulses,
        });
    }
    if !cur.done() {
        return Err(CoreError::MalformedCheckpoint(format!(
            "{} trailing bytes after the last node",
            body.len() - cur.pos
        )));
    }
    ConstructionCheckpoint::from_parts(cycle, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::run_construction;
    use fdn_graph::{Graph, GraphFamily};

    fn checkpoint_for(graph: &Graph, encoding: Encoding) -> ConstructionCheckpoint {
        ConstructionCheckpoint::capture(run_construction(graph, encoding)).unwrap()
    }

    fn assert_same_checkpoint(a: &ConstructionCheckpoint, b: &ConstructionCheckpoint) {
        assert_eq!(a.cycle(), b.cycle());
        assert_eq!(a.cc_init(), b.cc_init());
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.token_holder(), b.token_holder());
        for (na, nb) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(na.node(), nb.node());
            assert_eq!(na.construction_pulses(), nb.construction_pulses());
            let (ea, eb) = (na.engine(), nb.engine());
            assert_eq!(ea.view(), eb.view());
            assert_eq!(ea.encoding(), eb.encoding());
            assert_eq!(ea.is_token_holder(), eb.is_token_holder());
            assert_eq!(ea.pulses_sent(), eb.pulses_sent());
            assert_eq!(ea.pulses_received(), eb.pulses_received());
            assert_eq!(ea.epochs_completed(), eb.epochs_completed());
            assert!(eb.is_idle());
        }
    }

    #[test]
    fn round_trip_every_preset_family() {
        // Constructions run under the binary encoding (the campaign layer
        // skips full-mode unary cells — the unary encoding is exponential in
        // the message length, Lemma 7).
        let mut covered = 0usize;
        for family in GraphFamily::representatives() {
            if !family.guarantees_two_edge_connected() {
                continue;
            }
            let graph = family.build().unwrap();
            let ckpt = checkpoint_for(&graph, Encoding::binary());
            let bytes = encode_checkpoint(&ckpt);
            // Canonical: encoding is a pure function of the checkpoint.
            assert_eq!(bytes, encode_checkpoint(&ckpt), "{family}");
            let back = decode_checkpoint(&bytes).unwrap();
            assert_same_checkpoint(&ckpt, &back);
            // Round-trip exact down to the bytes.
            assert_eq!(bytes, encode_checkpoint(&back), "{family}");
            covered += 1;
        }
        assert!(covered >= 10, "only {covered} families covered");
    }

    #[test]
    fn round_trip_unary_engines() {
        // The unary wire tag (and its u128 pulse budget) round-trips too:
        // rebuild a captured boundary with unary engines via `resume_idle`
        // and push it through the format.
        let graph = GraphFamily::Figure3.build().unwrap();
        let binary = checkpoint_for(&graph, Encoding::binary());
        let encoding = Encoding::Unary {
            max_pulses: (1 << 77) + 3,
        };
        let nodes: Vec<NodeCheckpoint> = binary
            .nodes()
            .iter()
            .map(|n| {
                let e = n.engine();
                NodeCheckpoint {
                    engine: RobbinsEngine::resume_idle(
                        e.view().clone(),
                        e.is_token_holder(),
                        encoding,
                        e.pulses_sent(),
                        e.pulses_received(),
                        e.epochs_completed(),
                    )
                    .unwrap(),
                    construction_pulses: n.construction_pulses(),
                }
            })
            .collect();
        let ckpt = ConstructionCheckpoint::from_parts(binary.cycle().clone(), nodes).unwrap();
        let bytes = encode_checkpoint(&ckpt);
        let back = decode_checkpoint(&bytes).unwrap();
        assert_same_checkpoint(&ckpt, &back);
        assert_eq!(back.nodes()[0].engine().encoding(), encoding);
        assert_eq!(bytes, encode_checkpoint(&back));
    }

    #[test]
    fn decode_rejects_truncation_anywhere() {
        let graph = GraphFamily::Figure3.build().unwrap();
        let bytes = encode_checkpoint(&checkpoint_for(&graph, Encoding::binary()));
        for len in 0..bytes.len() {
            assert!(
                decode_checkpoint(&bytes[..len]).is_err(),
                "truncation to {len} bytes decoded"
            );
        }
    }

    #[test]
    fn decode_rejects_any_single_bit_flip() {
        let graph = GraphFamily::Figure1.build().unwrap();
        let bytes = encode_checkpoint(&checkpoint_for(&graph, Encoding::binary()));
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << (byte % 8);
            assert!(
                decode_checkpoint(&flipped).is_err(),
                "bit flip in byte {byte} decoded"
            );
        }
    }

    #[test]
    fn decode_rejects_wrong_version_and_magic() {
        let graph = GraphFamily::Figure3.build().unwrap();
        let bytes = encode_checkpoint(&checkpoint_for(&graph, Encoding::binary()));
        // Version bump (checksum fixed up so only the version is at fault).
        let mut versioned = bytes.clone();
        let v = (CHECKPOINT_FORMAT_VERSION + 1).to_le_bytes();
        versioned[4..6].copy_from_slice(&v);
        let len = versioned.len();
        let sum = fnv1a64(&versioned[..len - 8]).to_le_bytes();
        versioned[len - 8..].copy_from_slice(&sum);
        let err = decode_checkpoint(&versioned).unwrap_err();
        assert!(matches!(err, CoreError::MalformedCheckpoint(_)));
        assert!(err.to_string().contains("version"));
        // Bad magic, same checksum fix-up.
        let mut magicked = bytes;
        magicked[0] = b'X';
        let sum = fnv1a64(&magicked[..len - 8]).to_le_bytes();
        magicked[len - 8..].copy_from_slice(&sum);
        assert!(decode_checkpoint(&magicked).is_err());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let graph = GraphFamily::Figure3.build().unwrap();
        let bytes = encode_checkpoint(&checkpoint_for(&graph, Encoding::binary()));
        let mut padded = bytes[..bytes.len() - 8].to_vec();
        padded.extend_from_slice(&[0u8; 4]);
        let sum = fnv1a64(&padded).to_le_bytes();
        padded.extend_from_slice(&sum);
        let err = decode_checkpoint(&padded).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn decoded_checkpoints_replay() {
        // A decoded checkpoint is as good as a captured one: it warm-starts
        // replay simulators on the matching graph and is rejected elsewhere.
        let graph = GraphFamily::Figure3.build().unwrap();
        let ckpt = decode_checkpoint(&encode_checkpoint(&checkpoint_for(
            &graph,
            Encoding::binary(),
        )))
        .unwrap();
        let sims = super::super::replay_simulators(&graph, &ckpt, |v| {
            fdn_protocols::FloodBroadcast::new(v, NodeId(0), vec![1])
        })
        .unwrap();
        assert_eq!(sims.len(), graph.node_count());
        let other = GraphFamily::Cycle { n: 4 }.build().unwrap();
        assert!(super::super::replay_simulators(&other, &ckpt, |v| {
            fdn_protocols::FloodBroadcast::new(v, NodeId(0), vec![1])
        })
        .is_err());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
