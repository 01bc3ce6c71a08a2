//! The pulse every reactor sends, and the simulation of an inner protocol
//! over a given cycle on a fully-defective network (Theorems 4 and 10).
//!
//! [`cycle_simulators`] starts one [`FullSimulator`] per node directly in
//! its online phase, each on a fresh [`RobbinsEngine`] over the given cycle.
//! Fed with a *simple* cycle it is the Theorem 4 simulator (Algorithm 1/2);
//! fed with a Robbins cycle of a 2-edge-connected graph it is the Theorem 10
//! simulator (Algorithm 3). The end-to-end Theorem 2 compiler, which first
//! *constructs* the Robbins cycle, is the same reactor started at the
//! construction ([`crate::full`]).

use std::sync::Arc;

use fdn_graph::{connectivity, Graph, NodeId, RobbinsCycle};
use fdn_netsim::{InnerProtocol, Payload};

use crate::encoding::Encoding;
use crate::engine::RobbinsEngine;
use crate::error::CoreError;
use crate::full::FullSimulator;

/// A content-less pulse payload. The byte value is irrelevant — receivers
/// ignore content — but it must be non-empty because the noise model may not
/// delete messages.
pub const PULSE: [u8; 1] = [0];

/// The [`PULSE`] as a shared [`Payload`]: serialized once per thread, cloned
/// (an `Arc` bump) per send. A simulation runs on one thread, so all of its
/// pulses share one allocation, which is what lets the counting link backend
/// classify pulse runs by pointer identity instead of comparing bytes.
///
/// The share is per thread rather than per process because every send and
/// delivery writes the `Arc`'s refcount: one process-wide pulse would make
/// parallel workers contend for that cache line on every delivery.
/// [`Payload`] compares by bytes, so which thread allocated a pulse is not
/// observable.
pub fn pulse_payload() -> Payload {
    thread_local! {
        static SHARED: Payload = PULSE.to_vec().into();
    }
    SHARED.with(Payload::clone)
}

/// Builds one online [`FullSimulator`] per node of `graph` over the given
/// Robbins cycle. The token holder is the node at the cycle's position 0
/// (Remark 4).
///
/// # Errors
///
/// Returns an error if the graph is not 2-edge-connected, the cycle is not a
/// valid Robbins cycle of the graph, or the graph is too large for the wire
/// format.
pub fn cycle_simulators<P, F>(
    graph: &Graph,
    cycle: &RobbinsCycle,
    encoding: Encoding,
    factory: F,
) -> Result<Vec<FullSimulator<P>>, CoreError>
where
    P: InnerProtocol,
    F: FnMut(NodeId) -> P,
{
    if !connectivity::is_two_edge_connected(graph) {
        return Err(CoreError::NotTwoEdgeConnected);
    }
    cycle
        .validate(graph)
        .map_err(|e| CoreError::InvalidCycle(e.to_string()))?;
    cycle_simulators_prevalidated(graph, cycle, encoding, factory)
}

/// Like [`cycle_simulators`], but skips the 2-edge-connectivity check and the
/// cycle/graph cross-validation. This is the construction-cache handoff: a
/// caller that validated `(graph, cycle)` **once** (e.g. `fdn-lab`'s topology
/// cache) re-hands the same pair to fresh simulator nodes for every seed of a
/// sweep without paying the `O(|C|)` validation per run.
///
/// The node views are built in one `O(|C|)` pass
/// ([`RobbinsCycle::local_views`]) rather than one scan per node, and the
/// nodes share one copy of the cycle.
///
/// # Errors
///
/// Returns an error if the graph is too large for the wire format or a graph
/// node does not appear on the cycle (a Robbins cycle visits every node, so
/// this only fires on mismatched inputs the caller failed to validate).
pub fn cycle_simulators_prevalidated<P, F>(
    graph: &Graph,
    cycle: &RobbinsCycle,
    encoding: Encoding,
    mut factory: F,
) -> Result<Vec<FullSimulator<P>>, CoreError>
where
    P: InnerProtocol,
    F: FnMut(NodeId) -> P,
{
    crate::wire::check_node_count(graph)?;
    let mut views = cycle.local_views();
    let holder = cycle.root();
    let shared = Arc::new(cycle.clone());
    graph
        .nodes()
        .map(|v| {
            let view = views
                .remove(&v)
                .ok_or_else(|| CoreError::InvalidCycle(format!("node {v} not on the cycle")))?;
            let engine = RobbinsEngine::new(view, v == holder, encoding)?;
            Ok(FullSimulator::online(
                v,
                graph.neighbors(v).to_vec(),
                engine,
                Arc::clone(&shared),
                0,
                factory(v),
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdn_graph::{generators, robbins};
    use fdn_netsim::{FullCorruption, RandomScheduler, Reactor, Simulation};
    use fdn_protocols::{FloodBroadcast, TokenRingCounter};

    #[test]
    fn pulse_payload_is_shared_per_thread() {
        let first = pulse_payload();
        assert!(first.ptr_eq(&pulse_payload()));
        // `first` stays alive while the other thread allocates its pulse, so
        // the two cannot share an address by reuse.
        let other = std::thread::scope(|s| {
            s.spawn(pulse_payload)
                .join()
                .expect("pulse thread panicked")
        });
        assert!(!first.ptr_eq(&other));
        assert_eq!(first, other);
        assert_eq!(&*other, &PULSE[..]);
    }

    /// Floods `value` from `sender` over the `n`-ring's simple cycle under
    /// full corruption (noise seed `seeds.0`, scheduler seed `seeds.1`),
    /// checks that every node adopts it without error, and returns the
    /// pulses sent.
    fn flood_over_ring(
        n: usize,
        encoding: Encoding,
        sender: NodeId,
        value: Vec<u8>,
        seeds: (u64, u64),
    ) -> u64 {
        let g = generators::cycle(n).unwrap();
        let cycle = robbins::reference_robbins_cycle(&g, NodeId(0)).unwrap();
        let nodes = cycle_simulators(&g, &cycle, encoding, |v| {
            FloodBroadcast::new(v, sender, value.clone())
        })
        .unwrap();
        let mut sim = Simulation::new(g.clone(), nodes)
            .unwrap()
            .with_noise(FullCorruption::new(seeds.0))
            .with_scheduler(RandomScheduler::new(seeds.1));
        sim.run().unwrap();
        for v in g.nodes() {
            assert_eq!(
                sim.node(v).output(),
                Some(value.clone()),
                "node {v} did not adopt the broadcast value"
            );
            assert!(
                sim.node(v).error().is_none(),
                "node {v}: {:?}",
                sim.node(v).error()
            );
        }
        sim.stats().sent_total
    }

    #[test]
    fn broadcast_over_fully_defective_simple_cycle() {
        flood_over_ring(6, Encoding::binary(), NodeId(2), vec![0xBE, 0xEF], (11, 7));
        // Lemma 9: the cost grows linearly with the payload, so 4 bytes cost
        // more than 1 byte but far less than 8 times as much.
        let one = flood_over_ring(6, Encoding::binary(), NodeId(2), vec![0xA5], (11, 7));
        let four = flood_over_ring(6, Encoding::binary(), NodeId(2), vec![0xA5; 4], (11, 7));
        assert!(four > one);
        assert!(four < 8 * one);
    }

    #[test]
    fn token_ring_over_fully_defective_simple_cycle_binary() {
        let n = 5usize;
        let g = generators::cycle(n).unwrap();
        let cycle = robbins::reference_robbins_cycle(&g, NodeId(0)).unwrap();
        let nodes = cycle_simulators(&g, &cycle, Encoding::binary(), |v| {
            TokenRingCounter::new(v, NodeId(0), n as u32)
        })
        .unwrap();
        let mut sim = Simulation::new(g.clone(), nodes)
            .unwrap()
            .with_noise(FullCorruption::new(3))
            .with_scheduler(RandomScheduler::new(5));
        sim.run().unwrap();
        let out = sim.node(NodeId(0)).output().unwrap();
        assert_eq!(out, (n as u64).to_be_bytes().to_vec());
        for v in g.nodes() {
            assert!(sim.node(v).error().is_none());
        }
    }

    #[test]
    fn broadcast_over_fully_defective_simple_cycle_unary() {
        // Unary encoding is exponential in the message length, so the unary
        // test uses an empty payload (the 2 header bytes alone already cost
        // ~2^16 DATA circulations).
        let unary = flood_over_ring(4, Encoding::unary(), NodeId(1), vec![], (9, 2));
        // Lemma 7 against Lemma 9: the same messages cost a few dozen bits
        // each in binary.
        let binary = flood_over_ring(4, Encoding::binary(), NodeId(1), vec![], (9, 2));
        assert!(unary > 100 * binary);
    }

    #[test]
    fn unary_reports_oversized_messages() {
        // An 8-byte payload is far beyond the unary budget; the node must
        // surface MessageTooLargeForUnary instead of silently dropping it.
        let g = generators::cycle(4).unwrap();
        let cycle = robbins::reference_robbins_cycle(&g, NodeId(0)).unwrap();
        let nodes = cycle_simulators(&g, &cycle, Encoding::unary(), |v| {
            TokenRingCounter::new(v, NodeId(0), 4)
        })
        .unwrap();
        let mut sim = Simulation::new(g, nodes).unwrap();
        sim.run().unwrap();
        assert!(matches!(
            sim.node(NodeId(0)).error(),
            Some(CoreError::MessageTooLargeForUnary { .. })
        ));
    }

    #[test]
    fn broadcast_over_fully_defective_nonsimple_cycle() {
        // Figure-1 style graph whose Robbins cycle is non-simple.
        let g = generators::figure1();
        let cycle = robbins::reference_robbins_cycle(&g, NodeId(0)).unwrap();
        assert!(cycle.len() > g.node_count(), "cycle should be non-simple");
        for seed in 0..4 {
            let nodes = cycle_simulators(&g, &cycle, Encoding::binary(), |v| {
                FloodBroadcast::new(v, NodeId(4), vec![seed as u8, 0x42])
            })
            .unwrap();
            let mut sim = Simulation::new(g.clone(), nodes)
                .unwrap()
                .with_noise(FullCorruption::new(seed))
                .with_scheduler(RandomScheduler::new(seed * 31 + 1));
            sim.run().unwrap();
            for v in g.nodes() {
                assert_eq!(sim.node(v).output(), Some(vec![seed as u8, 0x42]));
                assert!(sim.node(v).error().is_none());
            }
        }
    }

    #[test]
    fn rejects_non_2ec_graphs_and_bad_cycles() {
        let g = generators::barbell(3).unwrap();
        let fake_cycle = RobbinsCycle::new(vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let res = cycle_simulators(&g, &fake_cycle, Encoding::binary(), |v| {
            FloodBroadcast::new(v, NodeId(0), vec![1])
        });
        assert!(matches!(res, Err(CoreError::NotTwoEdgeConnected)));

        let g = generators::cycle(5).unwrap();
        let wrong = RobbinsCycle::new(vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let res = cycle_simulators(&g, &wrong, Encoding::binary(), |v| {
            FloodBroadcast::new(v, NodeId(0), vec![1])
        });
        assert!(matches!(res, Err(CoreError::InvalidCycle(_))));
    }
}
