//! Criterion wall-clock of the population engine at 1 and 4 shards.
//!
//! Small populations so one iteration stays in the tens of
//! milliseconds: the full 21/256/1024-node sweep lives in
//! `figures -- scale` (ScaleParams::full), which writes
//! `BENCH_scale.json`; this bench keeps the engine under the tier-1
//! `--test` smoke gate so a regression in its hot loop is caught by CI.

use criterion::{criterion_group, criterion_main, Criterion};
use p2_bench::ScaleParams;
use p2_core::{NodeConfig, ParallelHarness, Population};
use p2_net::SimConfig;
use p2_types::TimeDelta;
use std::hint::black_box;

const NODES: usize = 24;
const SEED: u64 = 7_777;

/// Build a Chord ring and run it for a minute of virtual time.
fn chord_minute<H: Population>(mut sim: H) -> u64 {
    let ring = p2_chord::build_ring(&mut sim, NODES, &p2_chord::ChordConfig::default());
    sim.run_for(TimeDelta::from_secs(60));
    black_box(ring.addrs.len());
    sim.net_stats().total_sent()
}

fn bench_population_engines(c: &mut Criterion) {
    for shards in [1usize, 4] {
        c.bench_function(&format!("population_sharded_24n_{shards}s"), |b| {
            b.iter(|| {
                chord_minute(ParallelHarness::new(
                    SimConfig::default(),
                    NodeConfig::default(),
                    SEED,
                    shards,
                ))
            })
        });
    }
    // The quick scale sweep end to end (what tier1 exports as
    // BENCH_scale.json), so the exporter path itself stays exercised.
    c.bench_function("population_scale_quick_sweep", |b| {
        b.iter(|| {
            let params = ScaleParams {
                nodes: vec![12],
                shards: vec![2],
                seed: SEED,
                warm_secs: 5,
                window_secs: 10,
            };
            p2_bench::population_scale(black_box(&params))
        })
    });
}

criterion_group!(benches, bench_population_engines);
criterion_main!(benches);
