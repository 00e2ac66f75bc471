//! The experiments of Section 4.

use crate::harness::{aggregate, build_testbed, measure_window, BenchParams};
use crate::report::Row;
use p2_core::NodeConfig;
use p2_monitor::{consistency, ring, snapshot};

/// §4, text: the cost of execution logging on a running Chord node.
/// Paper: CPU +40% (0.98 → 1.38), memory +66% (8 MB → 13 MB) — small in
/// absolute terms. We report the same comparison (tracing off vs on) and
/// the measured ratios.
pub fn e1_logging_cost(params: &BenchParams) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, tracing) in [("tracing off", false), ("tracing on", true)] {
        let mut samples = Vec::new();
        for &seed in &params.seeds {
            let cfg = NodeConfig {
                tracing,
                ..Default::default()
            };
            let mut tb = build_testbed(params, seed, cfg);
            samples.push(measure_window(&mut tb, params.window_secs));
        }
        let (mean, std) = aggregate(&samples);
        rows.push(Row::from_samples("e1", label, mean, std));
    }
    rows
}

/// The ratios E1 reports against the paper's +40% CPU / +66% memory.
pub fn e1_ratios(rows: &[Row]) -> (f64, f64) {
    let off = &rows[0];
    let on = &rows[1];
    let cpu = if off.cpu_percent > 0.0 {
        on.cpu_percent / off.cpu_percent
    } else {
        f64::NAN
    };
    let mem = if off.mem_bytes > 0.0 {
        on.mem_bytes / off.mem_bytes
    } else {
        f64::NAN
    };
    (cpu, mem)
}

fn periodic_rules_program(n: usize) -> String {
    // N copies of: result@NAddr() :- periodic@NAddr(E, 1).
    // Each copy installs its own timer — that is the point of Figure 4.
    (0..n)
        .map(|i| format!("fig4r{i} result@NAddr() :- periodic@NAddr(E, 1).\n"))
        .collect()
}

/// Figure 4: CPU and memory vs number of periodic rules with period 1 s.
/// Paper shape: CPU grows roughly linearly with the rule count (to ~4.5%
/// at 250 rules from a ~1% baseline); memory plateaus above baseline.
pub fn fig4_periodic_rules(params: &BenchParams, counts: &[usize]) -> Vec<Row> {
    sweep_rule_counts(params, counts, "fig4", periodic_rules_program)
}

fn piggyback_rules_program(n: usize) -> String {
    // One shared 1 s timer feeds N rules that each perform a bestSucc
    // table lookup (Figure 5's "piggy-backed" rules).
    let mut out = String::from("fig5drv fig5ev@NAddr() :- periodic@NAddr(E, 1).\n");
    for i in 0..n {
        out.push_str(&format!(
            "fig5r{i} result@NAddr() :- fig5ev@NAddr(), bestSucc@NAddr(SID, SAddr).\n"
        ));
    }
    out
}

/// Figure 5: CPU and memory vs number of piggy-backed rules sharing one
/// timer, each with a state lookup. Paper shape: linear CPU growth,
/// steeper than Figure 4 ("state lookups are costlier than private
/// timers"); memory similar to Figure 4.
pub fn fig5_piggyback_rules(params: &BenchParams, counts: &[usize]) -> Vec<Row> {
    sweep_rule_counts(params, counts, "fig5", piggyback_rules_program)
}

fn sweep_rule_counts(
    params: &BenchParams,
    counts: &[usize],
    name: &str,
    program: fn(usize) -> String,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in counts {
        let mut samples = Vec::new();
        for &seed in &params.seeds {
            let mut tb = build_testbed(params, seed, NodeConfig::default());
            if n > 0 {
                let measured = tb.measured.clone();
                tb.sim
                    .install(&measured, &program(n))
                    .expect("install bench rules");
            }
            samples.push(measure_window(&mut tb, params.window_secs));
        }
        let (mean, std) = aggregate(&samples);
        rows.push(Row::from_samples(name, format!("{n} rules"), mean, std));
    }
    rows
}

/// The probe/snapshot rates of Figures 6 and 7: none, then 1/32 … 1 per
/// second. Returns (label, period-in-seconds); `None` period = feature
/// disabled.
pub fn figure_rates() -> Vec<(&'static str, Option<f64>)> {
    vec![
        ("none", None),
        ("1/32", Some(32.0)),
        ("1/4", Some(4.0)),
        ("1/2", Some(2.0)),
        ("3/4", Some(4.0 / 3.0)),
        ("1", Some(1.0)),
    ]
}

/// Figure 6: cost of proactive consistency probes vs initiation rate.
/// Paper shape: memory and messages grow ~linearly with the rate; CPU
/// grows superlinearly (frequent probes' parallel lookups contend).
pub fn fig6_consistency_probes(params: &BenchParams) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, period) in figure_rates() {
        let mut samples = Vec::new();
        for &seed in &params.seeds {
            let mut tb = build_testbed(params, seed, NodeConfig::default());
            if let Some(p) = period {
                let cfg = consistency::ProbeConfig {
                    probe_secs: p,
                    tally_secs: 20,
                    wait_secs: 20,
                    ..Default::default()
                };
                let measured = tb.measured.clone();
                tb.sim
                    .install(&measured, &consistency::probe_program(&cfg))
                    .expect("install probes");
            }
            samples.push(measure_window(&mut tb, params.window_secs));
        }
        let (mean, std) = aggregate(&samples);
        rows.push(Row::from_samples("fig6", label, mean, std));
    }
    rows
}

/// Figure 7: cost of consistent snapshots vs initiation rate. Paper
/// shape: same trends as Figure 6 but markedly cheaper at equal rates —
/// snapshots tax the system much less than the probes' parallel lookups.
pub fn fig7_snapshots(params: &BenchParams) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, period) in figure_rates() {
        let mut samples = Vec::new();
        for &seed in &params.seeds {
            let mut tb = build_testbed(params, seed, NodeConfig::default());
            if let Some(p) = period {
                for a in tb.ring.addrs.clone() {
                    tb.sim
                        .install(&a, &snapshot::backpointer_program())
                        .expect("install bp");
                    tb.sim
                        .install(&a, &snapshot::snapshot_program())
                        .expect("install snapshot");
                }
                let measured = tb.measured.clone();
                tb.sim
                    .install(&measured, &snapshot::initiator_program(&measured, p))
                    .expect("install initiator");
            }
            samples.push(measure_window(&mut tb, params.window_secs));
        }
        let (mean, std) = aggregate(&samples);
        rows.push(Row::from_samples("fig7", label, mean, std));
    }
    rows
}

/// Ablation (§3.1.1's stated trade-off): the active ring probe
/// (`rp1`–`rp3`) pays messages for a chosen detection rate; the passive
/// check (`rp4`) is free but detects only at the stabilization rate.
/// Reports the population-wide message cost of each.
pub fn ablation_ring_checks(params: &BenchParams) -> Vec<Row> {
    let mut rows = Vec::new();
    for (label, which) in [("no check", 0), ("passive rp4", 1), ("active rp1-3 @5s", 2)] {
        let mut samples = Vec::new();
        for &seed in &params.seeds {
            let mut tb = build_testbed(params, seed, NodeConfig::default());
            for a in tb.ring.addrs.clone() {
                match which {
                    1 => {
                        tb.sim
                            .install(&a, &ring::passive_check_program())
                            .expect("install");
                    }
                    2 => {
                        tb.sim
                            .install(&a, &ring::active_probe_program(5))
                            .expect("install");
                    }
                    _ => {}
                }
            }
            // Measure population-wide message delta.
            let sent0 = tb.sim.net_stats().total_sent();
            let mut s = measure_window(&mut tb, params.window_secs);
            s.tx_messages = (tb.sim.net_stats().total_sent() - sent0) as f64;
            samples.push(s);
        }
        let (mean, std) = aggregate(&samples);
        rows.push(Row::from_samples("ablation-ring", label, mean, std));
    }
    rows
}

/// Ablation (§3.4 optimization): tracer record budget per strand. The
/// fixed budget bounds tracer memory with negligible effect on CPU.
pub fn ablation_record_budget(params: &BenchParams, budgets: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &b in budgets {
        let mut samples = Vec::new();
        for &seed in &params.seeds {
            let cfg = NodeConfig {
                tracing: true,
                trace: p2_trace::TraceConfig {
                    records_per_strand: b,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut tb = build_testbed(params, seed, cfg);
            samples.push(measure_window(&mut tb, params.window_secs));
        }
        let (mean, std) = aggregate(&samples);
        rows.push(Row::from_samples(
            "ablation-records",
            format!("{b} records"),
            mean,
            std,
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchParams {
        BenchParams {
            nodes: 4,
            warmup_secs: 60,
            window_secs: 40,
            seeds: vec![7],
            chord: Default::default(),
        }
    }

    #[test]
    fn fig4_rows_scale_with_rule_count() {
        let rows = fig4_periodic_rules(&tiny(), &[0, 40]);
        assert_eq!(rows.len(), 2);
        // More periodic rules must cost more CPU.
        assert!(
            rows[1].cpu_percent > rows[0].cpu_percent,
            "{} !> {}",
            rows[1].cpu_percent,
            rows[0].cpu_percent
        );
    }

    #[test]
    fn e1_tracing_costs_more() {
        let rows = e1_logging_cost(&tiny());
        let (cpu_ratio, mem_ratio) = e1_ratios(&rows);
        assert!(cpu_ratio > 1.0, "tracing must cost CPU, ratio {cpu_ratio}");
        assert!(
            mem_ratio > 1.0,
            "tracing must cost memory, ratio {mem_ratio}"
        );
    }

    #[test]
    fn fig6_probes_cost_messages() {
        let params = tiny();
        let rows = fig6_consistency_probes(&params);
        let none = &rows[0];
        let fast = rows.last().unwrap();
        assert!(
            fast.tx_messages > none.tx_messages,
            "probes must send messages: {} !> {}",
            fast.tx_messages,
            none.tx_messages
        );
    }
}
