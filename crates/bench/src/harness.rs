//! Measurement scaffolding shared by all experiments.

use p2_chord::{build_ring, ChordConfig, ChordRing};
use p2_core::{NodeConfig, Population, SimHarness};
use p2_types::{Addr, Time, TimeDelta};

/// Population / protocol parameters (§4's setup in full mode).
#[derive(Debug, Clone)]
pub struct BenchParams {
    /// Number of nodes (paper: 21).
    pub nodes: usize,
    /// Warm-up before measuring, virtual seconds (paper: 5 min).
    pub warmup_secs: u64,
    /// Steady-state measurement window, virtual seconds.
    pub window_secs: u64,
    /// Seeds per datapoint (paper: three runs).
    pub seeds: Vec<u64>,
    /// Chord protocol periods.
    pub chord: ChordConfig,
}

impl BenchParams {
    /// The paper's configuration: 21 nodes, 5-minute warm-up, three runs.
    pub fn full() -> BenchParams {
        BenchParams {
            nodes: 21,
            warmup_secs: 300,
            window_secs: 240,
            seeds: vec![101, 202, 303],
            chord: ChordConfig::default(),
        }
    }

    /// A small configuration for smoke tests and CI.
    pub fn quick() -> BenchParams {
        BenchParams {
            nodes: 8,
            warmup_secs: 180,
            window_secs: 90,
            seeds: vec![101],
            chord: ChordConfig::default(),
        }
    }
}

/// One steady-state sample of the measured node.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeSample {
    /// CPU utilization, percent (busy wall time / virtual window).
    pub cpu_percent: f64,
    /// Live-tuple bytes (tables + tracer state) at window end.
    pub mem_bytes: f64,
    /// Live tuples at window end.
    pub live_tuples: f64,
    /// Envelopes transmitted by the measured node during the window.
    pub tx_messages: f64,
    /// Tuples dispatched through the demux during the window — a
    /// deterministic work counter that backs the CPU trend without
    /// wall-clock noise.
    pub dispatches: f64,
    /// CPU utilization summed over the whole population, percent.
    /// Captures systemic load the initiator-only sample misses (the
    /// paper's probes tax *every* node with parallel lookups).
    pub pop_cpu_percent: f64,
    /// Dispatches summed over the whole population.
    pub pop_dispatches: f64,
}

/// A prepared testbed: warmed ring plus the designated measured node
/// (the last to join, as in §4's "then the 21st virtual node starts").
/// Generic over the harness so the same rig measures any shard count.
pub struct Testbed<H: Population = SimHarness> {
    /// The simulation.
    pub sim: H,
    /// Ring metadata.
    pub ring: ChordRing,
    /// The measured node's address.
    pub measured: Addr,
}

/// Build a warmed testbed on one shard. `measured_config`
/// configures only the measured node (e.g. tracing on) — the rest of the
/// population runs the default, exactly like the paper's two-machine
/// split.
pub fn build_testbed(params: &BenchParams, seed: u64, measured_config: NodeConfig) -> Testbed {
    let sim = SimHarness::new(Default::default(), NodeConfig::default(), seed);
    prepare_testbed(sim, params, measured_config)
}

/// Warm a ring and join the measured node on any population harness.
pub fn prepare_testbed<H: Population>(
    mut sim: H,
    params: &BenchParams,
    measured_config: NodeConfig,
) -> Testbed<H> {
    let seed = sim.seed();
    // n-1 nodes start and stabilize first...
    let mut ring = build_ring(&mut sim, params.nodes - 1, &params.chord);
    sim.run_for(TimeDelta::from_secs(params.warmup_secs));
    // ...then the measured node joins and stabilizes.
    let name = format!("n{}", params.nodes - 1);
    let measured = sim.add_node_with(&name, measured_config);
    let id = p2_types::DetRng::derive(seed, "measured-node").ring_id();
    ring.ids.insert(measured.clone(), id);
    ring.addrs.push(measured.clone());
    sim.install(&measured, &p2_chord::chord_program(&params.chord))
        .expect("install chord");
    sim.install(
        &measured,
        &p2_chord::node_facts(measured.as_str(), id.0, Some(ring.addrs[0].as_str())),
    )
    .expect("install facts");
    sim.run_for(TimeDelta::from_secs(params.warmup_secs));
    Testbed {
        sim,
        ring,
        measured,
    }
}

/// Run the measurement window over a prepared testbed and sample the
/// measured node (deltas for counters, end-of-window for gauges).
pub fn measure_window<H: Population>(testbed: &mut Testbed<H>, window_secs: u64) -> NodeSample {
    let Testbed {
        sim,
        measured,
        ring,
    } = testbed;
    let pop_busy = |sim: &H| -> std::time::Duration {
        ring.addrs.iter().map(|a| sim.node(a).metrics().busy).sum()
    };
    let pop_disp = |sim: &H| -> u64 {
        ring.addrs
            .iter()
            .map(|a| sim.node(a).metrics().tuples_dispatched)
            .sum()
    };
    let busy0 = sim.node(measured).metrics().busy;
    let disp0 = sim.node(measured).metrics().tuples_dispatched;
    let sent0 = sim.net_stats().sent_by(measured);
    let pbusy0 = pop_busy(sim);
    let pdisp0 = pop_disp(sim);
    let t0: Time = sim.now();
    sim.run_for(TimeDelta::from_secs(window_secs));
    let busy1 = sim.node(measured).metrics().busy;
    let disp1 = sim.node(measured).metrics().tuples_dispatched;
    let sent1 = sim.net_stats().sent_by(measured);
    let elapsed = (sim.now() - t0).as_secs_f64();
    NodeSample {
        cpu_percent: 100.0 * (busy1 - busy0).as_secs_f64() / elapsed,
        mem_bytes: sim.node(measured).approx_bytes() as f64,
        live_tuples: sim.node(measured).live_tuples() as f64,
        tx_messages: (sent1 - sent0) as f64,
        dispatches: (disp1 - disp0) as f64,
        pop_cpu_percent: 100.0 * (pop_busy(sim) - pbusy0).as_secs_f64() / elapsed,
        pop_dispatches: (pop_disp(sim) - pdisp0) as f64,
    }
}

/// Mean and standard deviation of a set of samples, per field.
pub fn aggregate(samples: &[NodeSample]) -> (NodeSample, NodeSample) {
    let n = samples.len().max(1) as f64;
    let mut mean = NodeSample::default();
    for s in samples {
        mean.cpu_percent += s.cpu_percent / n;
        mean.mem_bytes += s.mem_bytes / n;
        mean.live_tuples += s.live_tuples / n;
        mean.tx_messages += s.tx_messages / n;
        mean.dispatches += s.dispatches / n;
        mean.pop_cpu_percent += s.pop_cpu_percent / n;
        mean.pop_dispatches += s.pop_dispatches / n;
    }
    let mut var = NodeSample::default();
    for s in samples {
        var.cpu_percent += (s.cpu_percent - mean.cpu_percent).powi(2) / n;
        var.mem_bytes += (s.mem_bytes - mean.mem_bytes).powi(2) / n;
        var.live_tuples += (s.live_tuples - mean.live_tuples).powi(2) / n;
        var.tx_messages += (s.tx_messages - mean.tx_messages).powi(2) / n;
        var.dispatches += (s.dispatches - mean.dispatches).powi(2) / n;
        var.pop_cpu_percent += (s.pop_cpu_percent - mean.pop_cpu_percent).powi(2) / n;
        var.pop_dispatches += (s.pop_dispatches - mean.pop_dispatches).powi(2) / n;
    }
    let std = NodeSample {
        cpu_percent: var.cpu_percent.sqrt(),
        mem_bytes: var.mem_bytes.sqrt(),
        live_tuples: var.live_tuples.sqrt(),
        tx_messages: var.tx_messages.sqrt(),
        dispatches: var.dispatches.sqrt(),
        pop_cpu_percent: var.pop_cpu_percent.sqrt(),
        pop_dispatches: var.pop_dispatches.sqrt(),
    };
    (mean, std)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_mean_and_std() {
        let samples = [
            NodeSample {
                cpu_percent: 1.0,
                mem_bytes: 10.0,
                live_tuples: 5.0,
                ..Default::default()
            },
            NodeSample {
                cpu_percent: 3.0,
                mem_bytes: 30.0,
                live_tuples: 5.0,
                ..Default::default()
            },
        ];
        let (mean, std) = aggregate(&samples);
        assert!((mean.cpu_percent - 2.0).abs() < 1e-9);
        assert!((mean.mem_bytes - 20.0).abs() < 1e-9);
        assert!((std.cpu_percent - 1.0).abs() < 1e-9);
        assert!((std.live_tuples - 0.0).abs() < 1e-9);
    }

    #[test]
    fn quick_testbed_builds_and_measures() {
        let params = BenchParams {
            nodes: 4,
            warmup_secs: 60,
            window_secs: 30,
            seeds: vec![1],
            chord: ChordConfig::default(),
        };
        let mut tb = build_testbed(&params, 1, NodeConfig::default());
        let s = measure_window(&mut tb, params.window_secs);
        assert!(s.cpu_percent >= 0.0);
        assert!(s.live_tuples > 0.0, "measured node must hold state");
        assert!(s.tx_messages > 0.0, "measured node must participate");
    }
}
