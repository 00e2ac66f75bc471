//! `monitor_stack_21`: the paper's 21-node testbed on the sequential
//! engine, execution tracing on, with the whole §3 monitoring stack
//! installed on every node.
//!
//! `dataflow.strand`, `store.table` probe/insert/expiry and
//! `trace.tracer` do nearly all the work and `core.parallel` none: the
//! bypass for every optimisation of the sharded engine, and the
//! sequential engine beside it. The request is "advance the deployment by
//! one virtual second"; the unit of work is the virtual second.

use crate::probes;
use crate::report::Report;
use crate::simrun::{
    self, install_each, parse_us, run_window, snapshot, watch_alarms, Engine, Entry, Lookups,
};
use crate::span::Tracer;
use crate::stats;
use crate::workloads::forensic::table_rows;
use crate::Sizing;
use p2_chord::{build_ring, ChordConfig};
use p2_core::{NodeConfig, SimHarness};
use p2_monitor::{consistency, ordering, oscillation, ring, snapshot as snap, watchpoints};
use p2_net::SimConfig;
use p2_types::TimeDelta;
use std::time::Instant;

pub const NAME: &str = "monitor_stack_21";
pub const DEFAULT_SEED: u64 = 101;
/// The deployment is the same on every run; `--seed` draws the lookups
/// (see `chord::POPULATION_SEED` for why).
const POPULATION_SEED: u64 = 101;

pub struct Params {
    pub nodes: usize,
    pub warm_vsec: u64,
    pub settle_vsec: u64,
    pub window_vsec: u64,
    pub lookups_per_vsec: u64,
}

impl Params {
    pub fn sized(s: Sizing) -> Params {
        Params {
            nodes: 21,
            warm_vsec: 300,
            settle_vsec: 60,
            window_vsec: s.scale(120),
            lookups_per_vsec: 4,
        }
    }
}

pub fn run(p: &Params, r: &mut Report, tr: &mut Tracer) {
    let setup = Instant::now();
    let chord = ChordConfig::default();
    let config = NodeConfig {
        tracing: true,
        ..NodeConfig::default()
    };
    let mut sim = SimHarness::new(SimConfig::default(), config, POPULATION_SEED);
    let (ring_, build) = tr.time("chord.testbed/build_ring", 0, |_| {
        build_ring(&mut sim, p.nodes, &chord)
    });
    tr.time("core.sim/warm", 0, |_| {
        sim.run_for(TimeDelta::from_secs(p.warm_vsec))
    });
    // The §3 stack on every node...
    let everywhere = [
        snap::backpointer_program(),
        snap::snapshot_program(),
        ring::active_probe_program(2),
        watchpoints::suite_program(5),
        oscillation::full_program(),
        ordering::opportunistic_program(),
    ];
    let mut install_us = Vec::new();
    for program in &everywhere {
        install_each(&mut sim, &ring_.addrs, program, tr, &mut install_us);
    }
    // ...and on the measured node (the last to join) the two active
    // monitors at the top rates of Figures 6 and 7.
    let measured = ring_.addrs[p.nodes - 1].clone();
    let on_measured = [
        consistency::probe_program(&consistency::ProbeConfig {
            probe_secs: 1.0,
            ..Default::default()
        }),
        snap::initiator_program(&measured, 4.0),
    ];
    for program in &on_measured {
        install_each(
            &mut sim,
            std::slice::from_ref(&measured),
            program,
            tr,
            &mut install_us,
        );
    }
    watch_alarms(&mut sim, &ring_);
    tr.time("core.sim/settle", 0, |_| {
        sim.run_for(TimeDelta::from_secs(p.settle_vsec))
    });
    let setup_s = setup.elapsed().as_secs_f64();

    let before = snapshot(&mut sim, &ring_.addrs);
    let mut lookups = Lookups::new(&mut sim, &ring_, r.seed, Entry::Anywhere);
    let w = run_window(
        &mut sim,
        &Engine {
            layer: "core.sim",
            shards: 1,
            addrs: &ring_.addrs,
        },
        p.window_vsec,
        1,
        tr,
        |sim, op, tr| lookups.issue(sim, &ring_, p.lookups_per_vsec, op, tr),
    );
    let after = snapshot(&mut sim, &ring_.addrs);

    // After 360 virtual seconds a 21-ring has converged: an answer that
    // is missing or differs from the oracle's fails.
    for j in lookups.report(&mut sim, &ring_, r) {
        r.check(j.answered && j.consistent);
    }

    r.set("setup_s", setup_s);
    let (typical_ms, spans) = w.typical_ms();
    r.set_n("latency_ms_p50", typical_ms, spans);
    r.set_n(
        "throughput_per_s",
        p.window_vsec as f64 / w.wall.as_secs_f64(),
        w.slice_ms.len(),
    );
    simrun::report_window(r, &w, &before, &after, 1, 1..1 + p.window_vsec, tr);
    r.require_zero("core.scheduler.overflow_drops");
    r.set("chord.build_ring_s", build.as_secs_f64());
    r.set_n(
        "core.installer.install_us_p50",
        stats::median(&install_us),
        install_us.len(),
    );
    r.set(
        "trace.rule_exec_rows",
        table_rows(&mut sim, &ring_.addrs, p2_trace::RULE_EXEC),
    );
    r.set(
        "trace.tuple_table_rows",
        table_rows(&mut sim, &ring_.addrs, p2_trace::TUPLE_TABLE),
    );
    if tr.on() {
        let mut sources = vec![p2_chord::chord_program(&chord)];
        sources.extend(everywhere);
        sources.extend(on_measured);
        r.set("overlog.parse_us", parse_us(&sources, tr));
        probes::scan_eq(&mut sim, &measured, r, tr);
        probes::wire_codec(&mut sim, &measured, p2_trace::RULE_EXEC, r, tr);
        probes::trace_gc(&mut sim, &ring_.addrs, r, tr);
    }
}
