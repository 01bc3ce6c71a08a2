//! Per-delivery cost of the run-length-compressed (counting) link store,
//! charted against the exact reference backend.
//!
//! The compressed core's claim: runs of identical pulses on a link collapse
//! to a payload-class + count, so the *stored-entry* queue work per
//! delivery shrinks with queue depth — a link carrying a million identical
//! pulses costs O(1) stored-entry insertions — while the transcript stays
//! byte-identical to the exact backend's (see the scheduler-equivalence
//! tests). This mirrors `link_core`'s drain shape exactly: same ring, same
//! pre-load, same schedulers, one series per backend, so the two charts
//! overlay. A non-benchmarked assertion pins the headline ratio: at depth
//! 64 the counting backend does at least 10x fewer queue operations per
//! delivered envelope.

#![expect(
    clippy::print_stdout,
    reason = "D5: the bench prints its headline ratio"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fdn_graph::{generators, NodeId};
use fdn_netsim::{Context, LinkStore, Reactor, SchedulerSpec, Simulation};

/// A sink: messages are consumed, never answered. The interesting work is
/// draining the pre-loaded queues, i.e. pure event-core throughput.
struct Sink;

impl Reactor for Sink {
    fn on_start(&mut self, _ctx: &mut Context) {}
    fn on_message(&mut self, _from: NodeId, _payload: &[u8], _ctx: &mut Context) {}
    fn output(&self) -> Option<Vec<u8>> {
        None
    }
}

/// Builds a ring simulation with `depth` identical messages pre-loaded on
/// every directed link, and drains it on the given backend. Returns the
/// queue-op count of the drained run.
fn drain(n: usize, depth: usize, scheduler: SchedulerSpec, store: LinkStore) -> u64 {
    let g = generators::cycle(n).unwrap();
    let nodes = (0..n).map(|_| Sink).collect();
    let mut sim = Simulation::new(g, nodes)
        .unwrap()
        .with_link_store(store)
        .with_scheduler_boxed(scheduler.build(7));
    sim.start().unwrap();
    for _ in 0..depth {
        for u in 0..n {
            let next = NodeId(((u + 1) % n) as u32);
            let prev = NodeId(((u + n - 1) % n) as u32);
            sim.with_node_mut(NodeId(u as u32), |_, ctx| {
                ctx.send(next, vec![1]);
                ctx.send(prev, vec![1]);
            })
            .unwrap();
        }
    }
    let report = sim.run_to_quiescence().unwrap();
    assert_eq!(report.steps, (2 * n * depth) as u64);
    sim.link_queue_ops()
}

fn bench_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("counting_core_drain");
    group.sample_size(10);
    let n = 64usize;
    for store in LinkStore::ALL {
        for scheduler in SchedulerSpec::ALL {
            for depth in [1usize, 8, 64] {
                group.bench_with_input(
                    BenchmarkId::new(
                        format!("{}_{}", store.label(), scheduler.label()),
                        format!("depth{depth}"),
                    ),
                    &depth,
                    |b, &depth| b.iter(|| drain(n, depth, scheduler, store)),
                );
            }
        }
    }
    group.finish();

    // The headline acceptance ratio, printed once per backend pair rather
    // than timed: identical pulse runs collapse, so stored-entry queue work
    // per delivered envelope drops by the run length.
    let n = 64usize;
    let depth = 64usize;
    for scheduler in SchedulerSpec::ALL {
        let exact = drain(n, depth, scheduler, LinkStore::Exact);
        let counting = drain(n, depth, scheduler, LinkStore::Counting);
        let ratio = exact as f64 / counting.max(1) as f64;
        println!(
            "counting_core: {} depth={depth} queue ops exact={exact} \
             counting={counting} ratio={ratio:.1}x",
            scheduler.label(),
        );
        assert!(
            ratio >= 10.0,
            "{}: counting backend saved only {ratio:.1}x queue ops at depth \
             {depth} (expected >= 10x)",
            scheduler.label(),
        );
    }
}

criterion_group!(benches, bench_drain);
criterion_main!(benches);
