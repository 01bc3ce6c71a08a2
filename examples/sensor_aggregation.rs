//! Sensor aggregation over a fully-defective field network.
//!
//! A grid of sensors (a torus, so 2-edge-connected) must deliver the sum of
//! their readings to a sink even though every radio link garbles every
//! transmission. The sink runs the classical echo/convergecast algorithm
//! written for reliable channels; the Theorem 2 compiler carries it over the
//! fully-defective network.
//!
//! Run with: `cargo run --example sensor_aggregation`

#![expect(clippy::print_stdout, reason = "D5: an example prints its results")]

use fully_defective::prelude::*;
use fully_defective::protocols::util::decode_u64;

fn main() {
    let g = generators::grid_torus(3, 3).expect("valid grid");
    let sink = NodeId(0);
    println!("sensor field: {g}, sink = {sink}");

    // Synthetic sensor readings.
    let readings: Vec<u64> = g.nodes().map(|v| 100 + u64::from(v.0) * 7).collect();
    let expected: u64 = readings.iter().sum();
    println!("readings: {readings:?}  => true total {expected}");

    let nodes = full_simulators(&g, sink, Encoding::binary(), |v| {
        EchoAggregate::new(v, sink, readings[v.index()])
    })
    .expect("torus is 2-edge-connected");
    let mut sim = Simulation::new(g.clone(), nodes)
        .expect("one reactor per node")
        .with_noise(FullCorruption::new(1234))
        .with_scheduler(RandomScheduler::new(5678));
    sim.run().expect("simulation runs to quiescence");

    let sink_node = sim.node(sink);
    let total = decode_u64(&sink_node.output().expect("sink decides"));
    println!(
        "sink computed total {total} over a Robbins cycle of length {}",
        sink_node.cycle().map(RobbinsCycle::len).unwrap_or(0)
    );
    assert_eq!(total, expected);
    println!(
        "pulses: {} sent in total, of which {} during the cycle construction ✔",
        sim.stats().sent_total,
        g.nodes()
            .map(|v| sim.node(v).construction_pulses())
            .sum::<u64>()
    );
}
