//! Cost of one frontier probe level.
//!
//! The bisection engine's economics: a probe is a seed-replicated sweep of
//! one cell at one omission rate, and a full bisection takes roughly
//! `log2(max_rate / resolution)` of them per cell — so the per-probe cost is
//! what bounds how fine a frontier curve CI can afford. Two claims are
//! pinned here:
//!
//! * probe cost is bounded by the *holding* end of the axis: a breaking
//!   probe drains early (drops consume step budget like deliveries, so
//!   higher rates finish sooner, never later) — adaptive bisection cannot
//!   hit a rate that is pathologically slower than rate 0;
//! * re-probing through warm [`Caches`] pays only the simulation,
//!   while a cold cache re-runs the Lemma 19 reference construction every
//!   time — the difference is the cache's contribution to the engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fdn_graph::GraphFamily;
use fdn_lab::{run_scenario_with, Caches, Cell, EncodingSpec, EngineMode, Scenario};
use fdn_netsim::{NoiseSpec, SchedulerSpec};
use fdn_protocols::WorkloadSpec;

const SEEDS: u64 = 4;

/// One probe level, run serially: the figure-3 cell at the given omission
/// rate, replicated across the seed range. Returns the number of successes
/// (consumed by the caller so the work cannot be optimized away). Note the
/// shared [`Caches`] also memoizes the noiseless baseline, so a warm probe
/// pays only the content-oblivious simulation itself.
fn probe(caches: &Caches, rate: u16) -> u32 {
    let cell = Cell {
        family: GraphFamily::Figure3,
        mode: EngineMode::Full,
        encoding: EncodingSpec::Binary,
        workload: WorkloadSpec::Flood { payload_bytes: 2 },
        noise: NoiseSpec::Omission {
            drop_per_mille: rate,
        },
        scheduler: SchedulerSpec::Random,
    };
    (0..SEEDS)
        .map(|seed| Scenario {
            index: seed as usize,
            cell,
            seed: seed + 1,
            construction_seed: 1,
            max_steps: 2_000_000,
            link_store: fdn_netsim::LinkStore::Exact,
        })
        .filter(|&s| run_scenario_with(caches, s).success)
        .count() as u32
}

fn bench_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontier_probe");
    group.sample_size(10);
    let warm = Caches::new();
    // Pre-build the topology so every warm sample measures pure probe cost.
    warm.topology.get(GraphFamily::Figure3).unwrap();
    for rate in [0u16, 125, 500, 1000] {
        group.bench_with_input(
            BenchmarkId::new("warm-cache", format!("omission({rate})")),
            &rate,
            |b, &rate| b.iter(|| probe(&warm, rate)),
        );
    }
    // The naive alternative a bisection driver must not fall into: a fresh
    // cache per probe re-pays the reference Robbins construction every time.
    group.bench_with_input(
        BenchmarkId::new("cold-cache", "omission(125)"),
        &125u16,
        |b, &rate| b.iter(|| probe(&Caches::new(), rate)),
    );
    group.finish();
}

criterion_group!(benches, bench_probe);
criterion_main!(benches);
