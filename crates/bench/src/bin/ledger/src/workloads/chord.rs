//! `chord_monitor_256`: a 256-node Chord ring with the ring probe and the
//! watchpoint suite on every node, on the sharded engine.
//!
//! The only workload where `core.parallel` (windows, barriers, mailbox)
//! and the per-event population scan do most of the work; tracer and
//! archive are off. The request is "advance the deployment by one virtual
//! second"; the unit of work is the virtual second.

use crate::report::Report;
use crate::simrun::{
    self, install_each, parse_us, run_window, snapshot, watch_alarms, Engine, Entry, Lookups,
};
use crate::span::Tracer;
use crate::stats;
use crate::Sizing;
use p2_chord::{build_ring, ChordConfig};
use p2_core::{NodeConfig, ParallelHarness};
use p2_net::SimConfig;
use p2_types::TimeDelta;
use std::time::Instant;

pub const NAME: &str = "chord_monitor_256";
pub const DEFAULT_SEED: u64 = 7777;
/// The ring is the system under test and is the same on every run
/// (ring IDs and node RNGs derive from this); `--seed` draws the lookups.
/// Work per virtual second depends on the topology, so a ring drawn per
/// seed would make runs of different seeds incomparable.
const POPULATION_SEED: u64 = 7777;
const SHARDS: u32 = 2;

pub struct Params {
    pub nodes: usize,
    pub warm_vsec: u64,
    pub window_vsec: u64,
    pub lookups_per_vsec: u64,
}

impl Params {
    pub fn sized(s: Sizing) -> Params {
        Params {
            nodes: 256,
            warm_vsec: 30,
            window_vsec: s.scale(120),
            lookups_per_vsec: 4,
        }
    }
}

pub fn run(p: &Params, r: &mut Report, tr: &mut Tracer) {
    let setup = Instant::now();
    let chord = ChordConfig::default();
    let probe = p2_monitor::ring::active_probe_program(2);
    let suite = p2_monitor::watchpoints::suite_program(5);
    let mut sim = ParallelHarness::new(
        SimConfig::default(),
        NodeConfig::default(),
        POPULATION_SEED,
        SHARDS as usize,
    );
    let (ring, build) = tr.time("chord.testbed/build_ring", 0, |_| {
        build_ring(&mut sim, p.nodes, &chord)
    });
    let mut install_us = Vec::new();
    install_each(&mut sim, &ring.addrs, &probe, tr, &mut install_us);
    install_each(&mut sim, &ring.addrs, &suite, tr, &mut install_us);
    watch_alarms(&mut sim, &ring);
    tr.time("core.parallel/warm", 0, |_| {
        sim.run_for(TimeDelta::from_secs(p.warm_vsec))
    });
    let setup_s = setup.elapsed().as_secs_f64();

    let before = snapshot(&mut sim, &ring.addrs);
    let shard0 = sim.shard_stats();
    let mut lookups = Lookups::new(&mut sim, &ring, r.seed, Entry::NearOwner);
    let w = run_window(
        &mut sim,
        &Engine {
            layer: "core.parallel",
            shards: SHARDS,
            addrs: &ring.addrs,
        },
        p.window_vsec,
        1,
        tr,
        |sim, op, tr| lookups.issue(sim, &ring, p.lookups_per_vsec, op, tr),
    );
    let after = snapshot(&mut sim, &ring.addrs);
    let shard1 = sim.shard_stats();

    // A lookup with no answer by the end of the window failed. After 30
    // virtual seconds a 256-ring has not converged: answers that disagree
    // with the oracle are counted, not failed (the same on every run of a
    // seed), and lookups enter the ring next to their key
    // (`Entry::NearOwner` says what a routed one does there).
    for j in lookups.report(&mut sim, &ring, r) {
        r.check(j.answered);
    }

    r.set("setup_s", setup_s);
    let (typical_ms, spans) = w.typical_ms();
    r.set_n("latency_ms_p50", typical_ms, spans);
    r.set_n(
        "throughput_per_s",
        p.window_vsec as f64 / w.wall.as_secs_f64(),
        w.slice_ms.len(),
    );
    simrun::report_window(r, &w, &before, &after, SHARDS, 1..1 + p.window_vsec, tr);
    if let Some(drops) = r.get("core.scheduler.overflow_drops").filter(|d| *d > 0.0) {
        r.notes.push(format!(
            "{drops} tuples dropped by the dispatch budget: a lookup looped on the unconverged ring"
        ));
    }

    r.set("chord.build_ring_s", build.as_secs_f64());
    r.set_n(
        "core.installer.install_us_p50",
        stats::median(&install_us),
        install_us.len(),
    );
    let shard_sum = |pick: fn(&p2_core::ShardStats) -> u64| {
        let total = |s: &[p2_core::ShardStats]| s.iter().map(pick).sum::<u64>();
        (total(&shard1) - total(&shard0)) as f64
    };
    let mailbox = shard_sum(|s| s.mailbox_envelopes);
    r.set("core.parallel.events", shard_sum(|s| s.events));
    r.set(
        "core.parallel.barrier_waits",
        shard_sum(|s| s.barrier_waits),
    );
    r.set("core.parallel.mailbox_envelopes", mailbox);
    r.set(
        "core.parallel.mailbox_share",
        mailbox / ((after.total_sent - before.total_sent) as f64).max(1.0),
    );
    r.set(
        "core.parallel.busy_share",
        after.busy.saturating_sub(before.busy).as_secs_f64()
            / (f64::from(SHARDS) * w.wall.as_secs_f64()),
    );
    if tr.on() {
        r.set(
            "overlog.parse_us",
            parse_us(&[p2_chord::chord_program(&chord), probe, suite], tr),
        );
    }
    r.notes.push(format!(
        "{} nodes on {SHARDS} shards, {} host threads available",
        p.nodes,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
}
