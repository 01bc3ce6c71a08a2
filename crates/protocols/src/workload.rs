//! Workloads as data: a sweepable description of every protocol in this
//! crate, with deterministic inputs and a uniform success predicate.
//!
//! The protocol types ([`crate::FloodBroadcast`], …) have heterogeneous
//! constructors and success conditions, which makes them awkward for an
//! experiment campaign to sweep over. [`WorkloadSpec`] fixes a canonical,
//! node-id-derived input assignment per workload (so a spec value fully
//! determines the expected result on a given graph), exposes an applicability
//! check, and judges an output vector via [`WorkloadSpec::is_success`] — the
//! same predicate whether the outputs came from a noiseless baseline or a
//! content-oblivious simulation.
//!
//! Canonical inputs:
//!
//! * **flood(k)** — root [`WorkloadSpec::ROOT`], value [`flood_value`]`(k)`;
//! * **leader** — candidate id = node id (winner is `n - 1`);
//! * **echo** — root [`WorkloadSpec::ROOT`], input of node `v` is `v + 1`
//!   (total `n (n + 1) / 2`);
//! * **gossip** — value of node `v` is `10 v + 1`;
//! * **token-ring** — starter [`WorkloadSpec::ROOT`], rings only.

use std::fmt;

use fdn_graph::{Graph, NodeId};
use fdn_netsim::InnerProtocol;

use crate::util::{decode_u64, encode_u64};
use crate::{EchoAggregate, FloodBroadcast, GossipAllToAll, MaxIdLeaderElection, TokenRingCounter};

/// The canonical payload of `flood(k)`: `k` bytes of a fixed rolling pattern.
pub fn flood_value(payload_bytes: usize) -> Vec<u8> {
    (0..payload_bytes)
        .map(|i| 0xA5u8.wrapping_add(i as u8))
        .collect()
}

/// One per-node protocol instance, type-erased for uniform spawning.
pub type BoxedProtocol = Box<dyn InnerProtocol + Send>;

/// A workload protocol with its canonical inputs, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WorkloadSpec {
    /// [`FloodBroadcast`] of a payload of the given byte length.
    Flood {
        /// Payload length in bytes (0 is valid: receivers adopt the empty
        /// value; useful for isolating header cost under unary encoding).
        payload_bytes: usize,
    },
    /// [`MaxIdLeaderElection`] with node ids as candidates.
    Leader,
    /// [`EchoAggregate`] summation rooted at [`WorkloadSpec::ROOT`].
    Echo,
    /// [`GossipAllToAll`] with canonical per-node values.
    Gossip,
    /// [`TokenRingCounter`] started at [`WorkloadSpec::ROOT`]; rings only.
    TokenRing,
}

impl WorkloadSpec {
    /// The designated root/starter node of rooted workloads.
    pub const ROOT: NodeId = NodeId(0);

    /// Every workload with a small representative parameterization.
    pub const ALL: [WorkloadSpec; 5] = [
        WorkloadSpec::Flood { payload_bytes: 4 },
        WorkloadSpec::Leader,
        WorkloadSpec::Echo,
        WorkloadSpec::Gossip,
        WorkloadSpec::TokenRing,
    ];

    /// Whether the workload is well-defined on `graph`.
    ///
    /// Every workload needs a connected graph with at least 2 nodes;
    /// [`WorkloadSpec::TokenRing`] additionally requires a plain ring with
    /// node ids in ring order (node `i` adjacent to `(i + 1) mod n`).
    pub fn supports(&self, graph: &Graph) -> bool {
        let n = graph.node_count();
        if n < 2 {
            return false;
        }
        match self {
            WorkloadSpec::TokenRing => (0..n).all(|i| {
                let next = NodeId(((i + 1) % n) as u32);
                graph.degree(NodeId(i as u32)) == 2 && graph.has_edge(NodeId(i as u32), next)
            }),
            _ => true,
        }
    }

    /// Whether the canonical instance can run on a bare noiseless network via
    /// [`fdn_netsim::DirectRunner`]. `flood(0)` cannot: an empty payload is
    /// not sendable raw (only framed by the content-oblivious simulators).
    pub fn supports_direct(&self) -> bool {
        !matches!(self, WorkloadSpec::Flood { payload_bytes: 0 })
    }

    /// Builds the canonical protocol instance for `node` of `graph`.
    pub fn build(&self, graph: &Graph, node: NodeId) -> BoxedProtocol {
        let n = graph.node_count();
        match *self {
            WorkloadSpec::Flood { payload_bytes } => Box::new(FloodBroadcast::new(
                node,
                Self::ROOT,
                flood_value(payload_bytes),
            )),
            WorkloadSpec::Leader => Box::new(MaxIdLeaderElection::new(node)),
            WorkloadSpec::Echo => {
                Box::new(EchoAggregate::new(node, Self::ROOT, u64::from(node.0) + 1))
            }
            WorkloadSpec::Gossip => {
                Box::new(GossipAllToAll::new(node, n, u64::from(node.0) * 10 + 1))
            }
            WorkloadSpec::TokenRing => Box::new(TokenRingCounter::new(node, Self::ROOT, n as u32)),
        }
    }

    /// Judges the per-node outputs of a run (indexed by node id) against the
    /// analytically known result of the canonical instance on `graph`.
    ///
    /// Workloads whose non-root outputs are schedule-dependent (echo's
    /// subtree sums) or root-only (token ring) are judged on the
    /// schedule-independent part, exactly as the paper's equivalence notion
    /// requires.
    pub fn is_success(&self, graph: &Graph, outputs: &[Option<Vec<u8>>]) -> bool {
        let n = graph.node_count();
        if outputs.len() != n {
            return false;
        }
        match *self {
            WorkloadSpec::Flood { payload_bytes } => {
                let value = flood_value(payload_bytes);
                outputs.iter().all(|o| o.as_deref() == Some(&value[..]))
            }
            WorkloadSpec::Leader => {
                let winner = encode_u64(n as u64 - 1);
                outputs.iter().all(|o| o.as_deref() == Some(&winner[..]))
            }
            WorkloadSpec::Echo => {
                let total = (n as u64) * (n as u64 + 1) / 2;
                outputs[Self::ROOT.index()].as_deref().map(decode_u64) == Some(total)
            }
            WorkloadSpec::Gossip => {
                let expected: Vec<u8> =
                    (0..n as u64).flat_map(|v| encode_u64(v * 10 + 1)).collect();
                outputs.iter().all(|o| o.as_deref() == Some(&expected[..]))
            }
            WorkloadSpec::TokenRing => {
                outputs[Self::ROOT.index()].as_deref().map(decode_u64) == Some(n as u64)
            }
        }
    }

    /// Parses the stable textual form; [`Display`](fmt::Display) is the
    /// inverse.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem on unknown names or bad
    /// parameters.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        match s {
            "leader" => Ok(WorkloadSpec::Leader),
            "echo" => Ok(WorkloadSpec::Echo),
            "gossip" => Ok(WorkloadSpec::Gossip),
            "token-ring" => Ok(WorkloadSpec::TokenRing),
            _ => {
                if let Some(k) = s.strip_prefix("flood(").and_then(|r| r.strip_suffix(')')) {
                    let payload_bytes = k
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("workload `{s}`: payload must be a byte count"))?;
                    Ok(WorkloadSpec::Flood { payload_bytes })
                } else {
                    Err(format!("unknown workload spec `{s}`"))
                }
            }
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WorkloadSpec::Flood { payload_bytes } => write!(f, "flood({payload_bytes})"),
            WorkloadSpec::Leader => f.write_str("leader"),
            WorkloadSpec::Echo => f.write_str("echo"),
            WorkloadSpec::Gossip => f.write_str("gossip"),
            WorkloadSpec::TokenRing => f.write_str("token-ring"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::run_direct;
    use fdn_graph::generators;

    /// Runs the canonical instance directly (noiseless) and returns outputs.
    fn direct(spec: WorkloadSpec, graph: &Graph, seed: u64) -> Vec<Option<Vec<u8>>> {
        run_direct(graph, |v| spec.build(graph, v), seed).unwrap()
    }

    #[test]
    fn canonical_runs_satisfy_their_own_predicate() {
        let ring = generators::cycle(6).unwrap();
        let dense = generators::petersen();
        for seed in 0..3 {
            for spec in WorkloadSpec::ALL {
                assert!(spec.supports(&ring), "{spec} on ring");
                let out = direct(spec, &ring, seed);
                assert!(spec.is_success(&ring, &out), "{spec} on ring, seed {seed}");
                if spec.supports(&dense) {
                    let out = direct(spec, &dense, seed);
                    assert!(
                        spec.is_success(&dense, &out),
                        "{spec} on petersen, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn token_ring_only_supports_rings() {
        let spec = WorkloadSpec::TokenRing;
        assert!(spec.supports(&generators::cycle(5).unwrap()));
        assert!(!spec.supports(&generators::petersen()));
        assert!(!spec.supports(&generators::wheel(5).unwrap()));
        assert!(!spec.supports(&generators::path(4).unwrap()));
    }

    #[test]
    fn predicate_rejects_wrong_outputs() {
        let g = generators::cycle(4).unwrap();
        let spec = WorkloadSpec::Leader;
        let mut out = direct(spec, &g, 0);
        assert!(spec.is_success(&g, &out));
        out[2] = Some(encode_u64(99));
        assert!(!spec.is_success(&g, &out));
        out.pop();
        assert!(!spec.is_success(&g, &out));
    }

    #[test]
    fn flood_zero_is_not_directly_runnable() {
        assert!(!WorkloadSpec::Flood { payload_bytes: 0 }.supports_direct());
        assert!(WorkloadSpec::Flood { payload_bytes: 1 }.supports_direct());
        assert!(WorkloadSpec::Gossip.supports_direct());
    }

    #[test]
    fn flood_value_is_deterministic_and_sized() {
        assert_eq!(flood_value(0), Vec::<u8>::new());
        assert_eq!(flood_value(3), vec![0xA5, 0xA6, 0xA7]);
        assert_eq!(flood_value(4), flood_value(4));
    }

    #[test]
    fn label_parse_roundtrip() {
        for spec in WorkloadSpec::ALL {
            assert_eq!(WorkloadSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        assert!(WorkloadSpec::parse("quicksort").is_err());
        assert!(WorkloadSpec::parse("flood(x)").is_err());
    }
}
