//! Property-style tests on the core invariants: encoding round-trips,
//! structural guarantees of the graph generators, the Theorem 15 construction
//! on random graphs, and end-to-end equivalence on random inputs and
//! schedules.
//!
//! The original seed used `proptest`; the build environment has no registry
//! access, so the same properties are exercised by explicit deterministic case
//! loops driven by the seeded workspace RNG — every failure reproduces from
//! the printed case seed.

use fully_defective::core::encoding::{
    bits_to_bytes, bytes_to_bits, frame, pad, parse_frame, unary_decode, unary_value, unpad,
};
use fully_defective::core::{construction_simulators, full_simulators, WireDest, WireMessage};
use fully_defective::prelude::*;
use fully_defective::protocols::util::run_direct;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `f` on `cases` deterministic seeded RNGs, reporting the failing case.
fn for_cases(cases: u64, mut f: impl FnMut(&mut StdRng)) {
    for case in 0..cases {
        #[expect(
            clippy::disallowed_methods,
            reason = "D3: property cases draw their inputs from a fixed per-case seed"
        )]
        let mut rng = StdRng::seed_from_u64(0xF00D_0000 + case);
        f(&mut rng);
    }
}

fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| rng.gen()).collect()
}

#[test]
fn bits_roundtrip() {
    for_cases(64, |rng| {
        let bytes = random_bytes(rng, 63);
        assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)).unwrap(), bytes);
    });
}

#[test]
fn pad_unpad_roundtrip() {
    for_cases(64, |rng| {
        let bits: Vec<bool> = (0..rng.gen_range(0..256usize)).map(|_| rng.gen()).collect();
        let l = rng.gen_range(2..6usize);
        let padded = pad(&bits, l);
        // No run of l zeros anywhere in the padded string.
        let mut run = 0usize;
        for &b in &padded {
            if b {
                run = 0
            } else {
                run += 1
            }
            assert!(run < l, "run of {l} zeros in padded string (l = {l})");
        }
        assert_eq!(unpad(&padded, l).unwrap(), bits);
    });
}

#[test]
fn frame_roundtrip() {
    for_cases(64, |rng| {
        let msg = random_bytes(rng, 47);
        let l = rng.gen_range(2..5usize);
        let z = frame(&msg, l);
        assert_eq!(parse_frame(&z, l).unwrap(), msg);
    });
}

#[test]
fn unary_roundtrip() {
    for_cases(64, |rng| {
        let msg = random_bytes(rng, 14);
        let d = unary_value(&msg).unwrap();
        assert!(d >= 1);
        assert_eq!(unary_decode(d).unwrap(), msg);
    });
}

#[test]
fn wire_message_roundtrip() {
    for_cases(64, |rng| {
        let src = NodeId(rng.gen_range(0..250u32));
        let payload = random_bytes(rng, 31);
        let msg = if rng.gen() {
            WireMessage::to_node(src, NodeId(rng.gen_range(0..250u32)), payload)
        } else {
            WireMessage::broadcast(src, payload)
        };
        let bytes = msg.to_bytes().unwrap();
        assert_eq!(WireMessage::from_bytes(&bytes).unwrap(), msg.clone());
        match msg.dest {
            WireDest::Broadcast => assert!(msg.is_for(NodeId(0))),
            WireDest::Node(d) => assert!(msg.is_for(d)),
        }
    });
}

#[test]
fn random_generators_produce_two_edge_connected_graphs() {
    for_cases(64, |rng| {
        let n = rng.gen_range(4..20usize);
        let extra = rng.gen_range(0..6usize).min(n * (n - 1) / 2 - n);
        let seed: u64 = rng.gen();
        let g = generators::random_two_edge_connected(n, extra, seed).unwrap();
        assert!(
            connectivity::is_two_edge_connected(&g),
            "n={n} extra={extra} seed={seed}"
        );
        let reference = robbins::reference_robbins_cycle(&g, NodeId(0)).unwrap();
        assert!(reference.validate(&g).is_ok());
        assert!(reference.covers_all_edges(&g));
    });
}

#[test]
fn bridges_match_bruteforce_on_random_sparse_graphs() {
    for_cases(64, |rng| {
        // A random sparse graph (not necessarily 2EC), to exercise the bridge
        // finder against the brute force oracle.
        let seed: u64 = rng.gen();
        let g = generators::random_ear_graph(3, 3, 2, seed).unwrap();
        assert_eq!(
            connectivity::bridges(&g),
            connectivity::bridges_bruteforce(&g),
            "seed={seed}"
        );
    });
}

// The heavier end-to-end properties run fewer cases.

#[test]
fn construction_yields_valid_robbins_cycle_on_random_graphs() {
    for_cases(8, |rng| {
        let n = rng.gen_range(5..9usize);
        let seed: u64 = rng.gen();
        let g = generators::random_two_edge_connected(n, 2, seed).unwrap();
        let nodes = construction_simulators(&g, NodeId(0), Encoding::binary()).unwrap();
        let mut sim = Simulation::new(g.clone(), nodes)
            .unwrap()
            .with_noise(FullCorruption::new(seed))
            .with_scheduler(RandomScheduler::new(seed ^ 0xF00D));
        sim.run().unwrap();
        let cycle = sim.node(NodeId(0)).cycle().expect("finished").clone();
        assert!(cycle.validate(&g).is_ok(), "n={n} seed={seed}");
        assert!(cycle.covers_all_edges(&g), "n={n} seed={seed}");
        for v in g.nodes() {
            assert!(sim.node(v).error().is_none());
            assert_eq!(sim.node(v).cycle().expect("finished").seq(), cycle.seq());
        }
    });
}

#[test]
fn broadcast_equivalence_on_random_graphs_and_schedules() {
    for_cases(8, |rng| {
        let seed: u64 = rng.gen();
        let value = {
            let len = rng.gen_range(1..6usize);
            (0..len).map(|_| rng.gen()).collect::<Vec<u8>>()
        };
        let g = generators::random_two_edge_connected(6, 2, seed % 1000).unwrap();
        let baseline =
            run_direct(&g, |v| FloodBroadcast::new(v, NodeId(1), value.clone()), 0).unwrap();
        let nodes = full_simulators(&g, NodeId(0), Encoding::binary(), |v| {
            FloodBroadcast::new(v, NodeId(1), value.clone())
        })
        .unwrap();
        let mut sim = Simulation::new(g.clone(), nodes)
            .unwrap()
            .with_noise(FullCorruption::new(seed))
            .with_scheduler(RandomScheduler::new(seed >> 32));
        sim.run().unwrap();
        assert_eq!(sim.outputs(), baseline, "seed={seed}");
    });
}
