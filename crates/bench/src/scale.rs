//! Population scaling: the engine's published-clock protocol versus
//! the scan-everything reference loop.
//!
//! The paper's testbed stops at 21 processes; the conservative sharded
//! engine (DESIGN.md §2.10) is what lets the reproduction push the same
//! Chord + monitoring workload to 1,000+ virtual nodes. This experiment
//! runs an identical Chord population — same seed, same protocol
//! periods — on the sequential oracle (the "sequential" baseline row)
//! and on the engine at 1/2/4/8 shards, wall-clocks the measured
//! window, and cross-checks that every run sent **exactly** the same
//! number of envelopes (the determinism contract, enforced, not
//! assumed).
//!
//! The win is algorithmic, not just parallel: the reference loop pays
//! an O(population) next-event scan and pumps every live node at every
//! event instant, while a shard reads cached timers and pumps only the
//! nodes with work, for the instants its slice owns. The speedup
//! therefore survives even on a single-core host (CI), and compounds
//! with real cores.

use p2_chord::build_ring;
use p2_core::{NodeConfig, ParallelHarness, Population, SequentialOracle};
use p2_net::SimConfig;
use p2_types::TimeDelta;
use std::time::Instant;

/// One engine × population datapoint of the scaling sweep.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Population size.
    pub nodes: usize,
    /// `"sequential"` or `"sharded"`.
    pub engine: &'static str,
    /// Shard count (1 for the sequential baseline).
    pub shards: usize,
    /// Wall-clock milliseconds to build + warm the ring.
    pub build_ms: f64,
    /// Wall-clock milliseconds for the measured window.
    pub run_ms: f64,
    /// Speedup of the measured window vs the sequential baseline at the
    /// same population (1.0 for the baseline itself).
    pub speedup: f64,
    /// Envelopes sent population-wide over the whole run — must be
    /// identical across engines at the same population and seed.
    pub total_sent: u64,
    /// Event instants executed across all shards (0 for sequential,
    /// which does not count them).
    pub events: u64,
    /// Population-wide rendezvous (run deadlines and tracer-GC
    /// instants), summed over shards.
    pub barrier_waits: u64,
    /// Envelopes routed through the cross-shard mailbox.
    pub mailbox_envelopes: u64,
}

/// Parameters of the scaling sweep.
#[derive(Debug, Clone)]
pub struct ScaleParams {
    /// Population sizes to sweep.
    pub nodes: Vec<usize>,
    /// Shard counts to sweep (the sequential baseline always runs).
    pub shards: Vec<usize>,
    /// Seed shared by every engine (the determinism cross-check needs
    /// identical inputs).
    pub seed: u64,
    /// Ring build + warm-up, virtual seconds.
    pub warm_secs: u64,
    /// Measured window, virtual seconds.
    pub window_secs: u64,
}

impl ScaleParams {
    /// The ISSUE's sweep: 21 / 256 / 1024 nodes × 1 / 2 / 4 / 8 shards.
    pub fn full() -> ScaleParams {
        ScaleParams {
            nodes: vec![21, 256, 1024],
            shards: vec![1, 2, 4, 8],
            seed: 7_777,
            warm_secs: 30,
            window_secs: 60,
        }
    }

    /// A CI-sized sweep.
    pub fn quick() -> ScaleParams {
        ScaleParams {
            nodes: vec![21, 64],
            shards: vec![1, 4],
            seed: 7_777,
            warm_secs: 10,
            window_secs: 20,
        }
    }
}

/// Build a Chord ring with the paper's monitoring stack on every node
/// (§3.1.1 active ring probes plus the §1.3 passive watchpoint suite),
/// warm it, run the measured window; return (build_ms, run_ms, total
/// envelopes sent).
fn chord_run<H: Population>(sim: &mut H, n: usize, warm: u64, window: u64) -> (f64, f64, u64) {
    let t0 = Instant::now();
    let chord = p2_chord::ChordConfig::default();
    let ring = build_ring(sim, n, &chord);
    let probe = p2_monitor::ring::active_probe_program(2);
    let suite = p2_monitor::watchpoints::suite_program(5);
    for a in ring.addrs.clone() {
        sim.install(&a, &probe).expect("install ring probes");
        sim.install(&a, &suite).expect("install watchpoint suite");
    }
    sim.run_for(TimeDelta::from_secs(warm));
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    sim.run_for(TimeDelta::from_secs(window));
    let run_ms = t1.elapsed().as_secs_f64() * 1e3;
    (build_ms, run_ms, sim.net_stats().total_sent())
}

/// Run the sweep. For each population: the sequential baseline first,
/// then each shard count, all at the same seed.
///
/// # Panics
///
/// Panics if any sharded run sends a different envelope count than the
/// sequential baseline — a determinism violation.
pub fn population_scale(params: &ScaleParams) -> Vec<ScaleRow> {
    let mut rows = Vec::new();
    for &n in &params.nodes {
        eprintln!("scale: {n} nodes, sequential baseline...");
        let mut sim =
            SequentialOracle::new(SimConfig::default(), NodeConfig::default(), params.seed);
        let (build_ms, base_ms, base_sent) =
            chord_run(&mut sim, n, params.warm_secs, params.window_secs);
        rows.push(ScaleRow {
            nodes: n,
            engine: "sequential",
            shards: 1,
            build_ms,
            run_ms: base_ms,
            speedup: 1.0,
            total_sent: base_sent,
            events: 0,
            barrier_waits: 0,
            mailbox_envelopes: 0,
        });
        for &shards in &params.shards {
            eprintln!("scale: {n} nodes, {shards} shard(s)...");
            let mut sim = ParallelHarness::new(
                SimConfig::default(),
                NodeConfig::default(),
                params.seed,
                shards,
            );
            let (build_ms, run_ms, sent) =
                chord_run(&mut sim, n, params.warm_secs, params.window_secs);
            assert_eq!(
                sent, base_sent,
                "{n} nodes at {shards} shards diverged from the sequential oracle"
            );
            let stats = sim.shard_stats();
            rows.push(ScaleRow {
                nodes: n,
                engine: "sharded",
                shards,
                build_ms,
                run_ms,
                speedup: base_ms / run_ms.max(1e-9),
                total_sent: sent,
                events: stats.iter().map(|s| s.events).sum(),
                barrier_waits: stats.iter().map(|s| s.barrier_waits).sum(),
                mailbox_envelopes: stats.iter().map(|s| s.mailbox_envelopes).sum(),
            });
        }
    }
    rows
}

/// Render the sweep as an aligned text table.
pub fn print_scale_table(rows: &[ScaleRow]) {
    println!("\n== Population scaling — sharded published clocks vs sequential");
    println!(
        "{:<7} {:<11} {:>7} {:>10} {:>10} {:>8} {:>11} {:>9} {:>9} {:>9}",
        "nodes",
        "engine",
        "shards",
        "build_ms",
        "run_ms",
        "speedup",
        "sent",
        "events",
        "barriers",
        "mailbox"
    );
    for r in rows {
        println!(
            "{:<7} {:<11} {:>7} {:>10.1} {:>10.1} {:>8.2} {:>11} {:>9} {:>9} {:>9}",
            r.nodes,
            r.engine,
            r.shards,
            r.build_ms,
            r.run_ms,
            r.speedup,
            r.total_sent,
            r.events,
            r.barrier_waits,
            r.mailbox_envelopes
        );
    }
}

/// Serialize the sweep to JSON (`BENCH_scale.json`). Hand-rolled like
/// `report::to_json`: the schema is flat.
pub fn scale_to_json(rows: &[ScaleRow]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"nodes\": {}, \"engine\": \"{}\", \"shards\": {}, \"build_ms\": {:.3}, \
             \"run_ms\": {:.3}, \"speedup\": {:.3}, \"total_sent\": {}, \"events\": {}, \
             \"barrier_waits\": {}, \"mailbox_envelopes\": {}}}",
            r.nodes,
            r.engine,
            r.shards,
            r.build_ms,
            r.run_ms,
            r.speedup,
            r.total_sent,
            r.events,
            r.barrier_waits,
            r.mailbox_envelopes
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature sweep: every engine agrees on the envelope count
    /// (asserted inside `population_scale`) and the rows are sane.
    #[test]
    fn mini_sweep_is_deterministic_across_engines() {
        let params = ScaleParams {
            nodes: vec![6],
            shards: vec![1, 2],
            seed: 11,
            warm_secs: 10,
            window_secs: 10,
        };
        let rows = population_scale(&params);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.total_sent == rows[0].total_sent));
        assert!(rows[1].events > 0 && rows[1].barrier_waits > 0);
        let json = scale_to_json(&rows);
        assert!(json.contains("\"engine\": \"sequential\""));
        assert!(json.contains("\"shards\": 2"));
    }

    /// The CI-sized sweep (`figures scale --quick`): 21 and 64 nodes,
    /// sequential plus 1 and 4 shards. Every engine sends the
    /// sequential oracle's envelope count (asserted inside
    /// `population_scale`), and the JSON carries all six rows.
    #[test]
    fn quick_sweep_agrees_across_engines() {
        let rows = population_scale(&ScaleParams::quick());
        assert_eq!(rows.len(), 6);
        let json = scale_to_json(&rows);
        assert_eq!(json.matches("\"nodes\": ").count(), 6, "{json}");
    }
}
