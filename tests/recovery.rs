//! Crash-restart recovery, end to end (ISSUE 10 acceptance criteria).
//!
//! The headline invariant: a node that crashes at **any** injected
//! fault point and restarts recovers a *clean prefix* of its sealed
//! archive epochs — never a torn frame, never a panic — and `past()`
//! forensic queries over the recovered history byte-match the no-crash
//! run restricted to those epochs. The invariant holds identically
//! on the sequential oracle and on the engine at every shard count,
//! because the durable store is handed across the restart as a value
//! and recovery replays the same append stream everywhere.
//!
//! Alongside: restart without durability loses everything (the
//! control), silent corruption is quarantined and surfaced in
//! `sysStat`, a collector whose pull timed out against a crashed
//! origin re-fetches successfully after the origin restarts (and the
//! typed P2S902 failure is cleared), and subscribe-mode announces
//! survive a restart thanks to the boot-counter generation bump.

use p2ql::core::{
    DurabilityMode, DurableBackend, NodeConfig, ParallelHarness, Population, SequentialOracle,
    ShipFailure, SimHarness,
};
use p2ql::net::SimConfig;
use p2ql::store::{DurableStats, Fault, FaultPlan};
use p2ql::types::{Addr, Time, TimeDelta, Tuple, Value};

const APP: &str = r#"
materialize(seen, 5, 32, keys(1, 2)).
r1 seen@N(X) :- ping@N(X).
"#;

const DEPLOY_FORENSICS: &str = r#"
materialize(seen, 5, 32, keys(1, 2)).
f1 hist@N(O, S) :- probe@N(T0, T1), past@N("seen", T0, T1, O, S).
"#;

fn forensic_config() -> NodeConfig {
    NodeConfig {
        stagger_timers: false,
        ..NodeConfig::forensic()
    }
}

/// Forensic node with the in-memory durable log, optionally faulted.
fn durable_config(plan: Option<FaultPlan>) -> NodeConfig {
    durable_on(DurableBackend::Memory, plan)
}

/// Forensic node with its durable log on `backend`, optionally faulted.
fn durable_on(backend: DurableBackend, plan: Option<FaultPlan>) -> NodeConfig {
    NodeConfig {
        durability: Some(DurabilityMode {
            backend,
            fsync: false,
            plan,
        }),
        ..forensic_config()
    }
}

/// Three pings inside [0s, 40s], then GC sweeps past the 5 s row
/// lifetime (each sweep also seals epochs into the durable log).
fn incident<H: Population>(sim: &mut H, origin: &Addr) {
    for (t, x) in [(10u64, 7i64), (20, 11), (30, 42)] {
        sim.run_until(Time::from_secs(t));
        sim.inject(
            origin,
            Tuple::new("ping", [Value::Addr(origin.clone()), Value::Int(x)]),
        );
    }
    for t in [100u64, 200, 300] {
        sim.run_until(Time::from_secs(t));
        sim.node_mut(origin).trace_gc(Time::from_secs(t));
    }
    sim.run_until(Time::from_secs(301));
}

/// Ask `asker` the forensic question; canonical sorted answers.
fn ask<H: Population>(sim: &mut H, asker: &Addr) -> Vec<String> {
    sim.node_mut(asker).watch("hist");
    sim.inject(
        asker,
        Tuple::new(
            "probe",
            [Value::Addr(asker.clone()), Value::Int(0), Value::Int(40)],
        ),
    );
    sim.run_for(TimeDelta::from_secs(1));
    let mut out: Vec<String> = sim
        .node_mut(asker)
        .take_watched("hist")
        .into_iter()
        .map(|(_, t)| {
            let args: Vec<String> = t.values().iter().skip(1).map(|v| v.to_string()).collect();
            args.join(", ")
        })
        .collect();
    out.sort();
    out
}

/// The archived `seen` rows in scan order, as canonical strings.
fn archived_rows<H: Population>(sim: &mut H, addr: &Addr) -> Vec<String> {
    let now = sim.now();
    sim.node_mut(addr)
        .history_scan("seen", Time::ZERO, now, now)
        .expect("archiving is on")
        .iter()
        .map(|r| format!("{} [{:?}..{:?}]", r.tuple, r.inserted_at, r.dropped_at))
        .collect()
}

/// One faulted life of a node built from `config`: incident, restart
/// (recovering whatever the fault left durable), then the archive scan,
/// the forensic answer and the durable counters.
fn faulted_run<H: Population>(
    sim: &mut H,
    config: NodeConfig,
) -> (Vec<String>, Vec<String>, DurableStats) {
    let origin = sim.add_node_with("a", config);
    sim.install(&origin, APP).expect("app installs");
    incident(sim, &origin);
    sim.restart(&origin).expect("restart reinstalls");
    let rows = archived_rows(sim, &origin);
    sim.install(&origin, DEPLOY_FORENSICS)
        .expect("query installs");
    let ans = ask(sim, &origin);
    let stats = sim
        .node_mut(&origin)
        .catalog_mut()
        .durable_stats()
        .expect("durability is on");
    (rows, ans, stats)
}

/// The no-crash reference: same incident, no restart.
fn baseline(seed: u64) -> (Vec<String>, Vec<String>) {
    let mut sim = SequentialOracle::new(SimConfig::default(), forensic_config(), seed);
    let origin = sim.add_node_with("a", durable_config(None));
    sim.install(&origin, APP).expect("app installs");
    incident(&mut sim, &origin);
    let rows = archived_rows(&mut sim, &origin);
    sim.install(&origin, DEPLOY_FORENSICS)
        .expect("query installs");
    let ans = ask(&mut sim, &origin);
    (rows, ans)
}

#[test]
fn restart_without_durability_loses_all_history() {
    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), 3);
    let origin = sim.add_node_with("a", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    incident(&mut sim, &origin);
    assert!(!archived_rows(&mut sim, &origin).is_empty());
    sim.restart(&origin).expect("restart reinstalls");
    assert!(
        archived_rows(&mut sim, &origin).is_empty(),
        "no durable store: the archive must come back empty"
    );
    // The reborn node still computes: a fresh ping lands.
    sim.node_mut(&origin).watch("seen");
    sim.inject(
        &origin,
        Tuple::new("ping", [Value::Addr(origin.clone()), Value::Int(99)]),
    );
    assert_eq!(sim.node_mut(&origin).take_watched("seen").len(), 1);
}

#[test]
fn unfaulted_restart_recovers_full_history_bit_identically() {
    let seed = 7;
    let (want_rows, want_ans) = baseline(seed);
    assert_eq!(want_ans.len(), 3, "three pings reconstruct: {want_ans:?}");

    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), seed);
    let (rows, ans, _) = faulted_run(&mut sim, durable_config(None));
    assert_eq!(rows, want_rows, "recovery replays the full log");
    assert_eq!(ans, want_ans, "past() over recovered history matches");

    // The second incarnation reports its recovery through sysStat.
    let origin = Addr::new("a");
    let stats = sim
        .node_mut(&origin)
        .catalog_mut()
        .durable_stats()
        .expect("durability is on");
    assert_eq!(stats.boots, 2, "fresh boot + restart");
    assert!(stats.recovered_segments >= 1);
    let now = sim.now();
    sim.node_mut(&origin).refresh_introspection(now);
    let sys = sim.node_mut(&origin).table_scan("sysStat", now);
    assert!(
        sys.iter().any(|t| t.to_string().contains("durable.boots")),
        "durable.* rows surface in sysStat: {sys:?}"
    );
}

/// The headline: crash at ANY seeded fault point → recovery yields a
/// clean prefix of the sealed history, identically on every engine.
#[test]
fn crash_at_any_fault_point_recovers_a_clean_prefix() {
    let seed = 7;
    let (want_rows, want_ans) = baseline(seed);

    // The incident seals five frames, so positions below 5 put every
    // seeded fault inside the run (beyond it a plan never fires).
    for fault_seed in 0..12u64 {
        let plan = FaultPlan::seeded(fault_seed, 5);
        let crashy = matches!(
            plan.faults[0],
            Fault::CrashBeforeAppend { .. }
                | Fault::TornAppend { .. }
                | Fault::CrashAfterBarrier { .. }
        );

        let mut sim = SequentialOracle::new(SimConfig::default(), forensic_config(), seed);
        let (rows, ans, stats) = faulted_run(&mut sim, durable_config(Some(plan.clone())));

        if crashy {
            // Everything before the crash point survives in order;
            // nothing after it leaks through.
            assert_eq!(
                rows,
                want_rows[..rows.len()],
                "clean prefix (fault_seed={fault_seed}, {plan:?})"
            );
        } else {
            // Silent corruption: the flipped frame is quarantined, the
            // rest survive — still strictly a subset, still no panic.
            assert!(
                rows.iter().all(|r| want_rows.contains(r)),
                "subset (fault_seed={fault_seed})"
            );
        }
        // The forensic answer over recovered history is exactly the
        // baseline answer restricted to the recovered rows.
        assert!(
            ans.iter().all(|a| want_ans.contains(a)),
            "answers come only from real history (fault_seed={fault_seed})"
        );
        assert_eq!(
            ans.len(),
            rows.len(),
            "every recovered row answers (fault_seed={fault_seed})"
        );

        // Bit-identity with the oracle at every shard count.
        for shards in [1usize, 2, 4] {
            let mut par =
                ParallelHarness::new(SimConfig::default(), forensic_config(), seed, shards);
            let (prows, pans, pstats) = faulted_run(&mut par, durable_config(Some(plan.clone())));
            assert_eq!(prows, rows, "rows diverged at {shards} shards");
            assert_eq!(pans, ans, "answers diverged at {shards} shards");
            assert_eq!(pstats, stats, "durable stats diverged at {shards} shards");
        }

        // The same plan over a directory: the fault shapes the record
        // before it reaches either medium, so the file log recovers the
        // same history with the same counters.
        let dir =
            std::env::temp_dir().join(format!("p2-recovery-{}-{fault_seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sim = SequentialOracle::new(SimConfig::default(), forensic_config(), seed);
        let on_disk = durable_on(DurableBackend::Dir(dir.clone()), Some(plan.clone()));
        let (drows, dans, dstats) = faulted_run(&mut sim, on_disk);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            drows, rows,
            "rows diverged on disk (fault_seed={fault_seed})"
        );
        assert_eq!(
            dans, ans,
            "answers diverged on disk (fault_seed={fault_seed})"
        );
        assert_eq!(
            dstats, stats,
            "durable stats diverged on disk (fault_seed={fault_seed})"
        );
    }
}

#[test]
fn bit_flip_is_quarantined_and_counted() {
    let seed = 7;
    let plan = FaultPlan::new(vec![Fault::FlipBit {
        append: 0,
        byte: 17,
        bit: 3,
    }]);
    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), seed);
    let (rows, _, _) = faulted_run(&mut sim, durable_config(Some(plan)));
    let (want_rows, _) = baseline(seed);
    assert!(rows.len() < want_rows.len(), "the flipped frame is gone");
    let origin = Addr::new("a");
    let stats = sim
        .node_mut(&origin)
        .catalog_mut()
        .durable_stats()
        .expect("durability is on");
    assert!(stats.quarantined >= 1, "corruption is counted: {stats:?}");
}

#[test]
fn collector_refetches_after_origin_restart_and_clears_p2s902() {
    let seed = 12;
    let (_, want_ans) = baseline(seed);

    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), seed);
    let origin = sim.add_node_with("a", durable_config(None));
    let coll = sim.add_node_with("coll", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    incident(&mut sim, &origin);
    sim.install(&coll, DEPLOY_FORENSICS)
        .expect("query installs");
    sim.node_mut(&coll).ship_add_peer(origin.clone());

    // Origin is down: the pull times out into a typed failure.
    sim.crash(&origin);
    let got = ask(&mut sim, &coll);
    sim.run_for(TimeDelta::from_secs(30));
    assert!(got.is_empty(), "no history while the origin is down");
    assert!(
        sim.node(&coll)
            .ship_failures()
            .any(|f| matches!(f, ShipFailure::PeerUnreachable { .. })),
        "typed P2S902 while down"
    );

    // Restart: archived history comes back from the durable log, and
    // the collector's next ask re-fetches it successfully.
    sim.restart(&origin).expect("restart reinstalls");
    let got = ask(&mut sim, &coll);
    assert_eq!(got, want_ans, "re-fetch serves recovered history");
    assert!(sim.node(&coll).ship_covered(&origin, "seen"));
    assert!(
        !sim.node(&coll)
            .ship_failures()
            .any(|f| matches!(f, ShipFailure::PeerUnreachable { .. })),
        "P2S902 cleared once the peer answers again"
    );
}

/// An origin without a durable log restarts with its shipment
/// generation counter back at zero. The collector holds a higher
/// generation from before; the shipment it solicits afterwards must
/// still resolve the fetch that asked for it — not be dropped as stale
/// and time out into a false P2S902.
fn solicited_shipment_survives_generation_regression<H: Population>(sim: &mut H) {
    let origin = sim.add_node_with("a", forensic_config());
    let coll = sim.add_node_with("coll", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    incident(sim, &origin);
    sim.install(&coll, DEPLOY_FORENSICS)
        .expect("query installs");
    sim.node_mut(&coll).ship_add_peer(origin.clone());
    for _ in 0..3 {
        assert_eq!(ask(sim, &coll).len(), 3, "one generation per ask");
    }

    // No durability: history and the generation counter are both gone.
    sim.restart(&origin).expect("restart reinstalls");
    sim.inject(
        &origin,
        Tuple::new("ping", [Value::Addr(origin.clone()), Value::Int(99)]),
    );
    sim.run_for(TimeDelta::from_secs(10));
    sim.node_mut(&coll).watch("hist");
    sim.inject(
        &coll,
        Tuple::new(
            "probe",
            [Value::Addr(coll.clone()), Value::Int(0), Value::Int(400)],
        ),
    );
    sim.run_for(TimeDelta::from_secs(30));
    let got = sim.node_mut(&coll).take_watched("hist");
    assert_eq!(got.len(), 1, "only the post-restart ping is left: {got:?}");
    let stats = sim.node(&coll).ship_stats();
    assert_eq!(stats.requests_sent, 4, "no resend was needed: {stats:?}");
    assert_eq!((stats.retries, stats.timeouts, stats.strays), (0, 0, 0));
    assert_eq!(stats.fetches_completed, 4);
    assert_eq!(
        sim.node(&coll).ship_failures().count(),
        0,
        "no false P2S902"
    );
}

#[test]
fn generation_regression_does_not_strand_a_fetch_on_any_engine() {
    let seed = 14;
    solicited_shipment_survives_generation_regression(&mut SequentialOracle::new(
        SimConfig::default(),
        forensic_config(),
        seed,
    ));
    for shards in [1usize, 2, 4] {
        solicited_shipment_survives_generation_regression(&mut ParallelHarness::new(
            SimConfig::default(),
            forensic_config(),
            seed,
            shards,
        ));
    }
}

#[test]
fn subscribe_mode_survives_restart_via_generation_bump() {
    let seed = 5;
    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), seed);
    let origin = sim.add_node_with("a", durable_config(None));
    let coll = sim.add_node_with("coll", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    sim.node_mut(&origin).ship_subscribe(coll.clone());
    incident(&mut sim, &origin);
    let applied_before = sim.node(&coll).ship_stats().announces_applied;
    assert!(applied_before >= 1, "announces flowed before the crash");

    // Crash + restart. The subscription is soft state, so it is
    // re-established; the boot-counter generation bump guarantees the
    // new announces outrank every pre-crash one at the collector.
    sim.crash(&origin);
    sim.run_for(TimeDelta::from_secs(5));
    sim.restart(&origin).expect("restart reinstalls");
    sim.node_mut(&origin).ship_subscribe(coll.clone());
    sim.run_until(Time::from_secs(400));
    let t = sim.now();
    sim.node_mut(&origin).trace_gc(t);
    sim.run_for(TimeDelta::from_secs(1));
    assert!(
        sim.node(&coll).ship_stats().announces_applied > applied_before,
        "post-restart announces are applied, not dropped as stale"
    );

    sim.install(&coll, DEPLOY_FORENSICS)
        .expect("query installs");
    let got = ask(&mut sim, &coll);
    let (_, want_ans) = baseline(seed);
    assert_eq!(got, want_ans, "streamed recovered history answers");
}

#[test]
fn delta_announces_ship_only_fresh_segments() {
    // Disable compaction so the sealed list is append-only: after the
    // first full announce, later sweeps must ship deltas.
    let mut archive = p2ql::core::ArchiveMode::default();
    archive.config.compact_min_bytes = 0;
    let cfg = NodeConfig {
        archive: Some(archive),
        ..forensic_config()
    };
    let mut sim = SimHarness::new(SimConfig::default(), cfg.clone(), 9);
    let origin = sim.add_node_with("a", cfg);
    let coll = sim.add_node_with("coll", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    sim.node_mut(&origin).ship_subscribe(coll.clone());

    // First batch: sealed by the sweep at 100 s, announced in full.
    incident(&mut sim, &origin);
    let full_only = sim.node(&origin).ship_stats().delta_segments;

    // Second batch: one new ping, one new sealed epoch — a delta.
    sim.run_until(Time::from_secs(320));
    sim.inject(
        &origin,
        Tuple::new("ping", [Value::Addr(origin.clone()), Value::Int(77)]),
    );
    sim.run_until(Time::from_secs(400));
    let t = sim.now();
    sim.node_mut(&origin).trace_gc(t);
    sim.run_for(TimeDelta::from_secs(1));

    let stats = sim.node(&origin).ship_stats();
    assert!(
        stats.delta_segments > full_only,
        "fresh sealed epochs ride a delta announce: {stats:?}"
    );

    // And the collector's answer still covers all four pings.
    sim.install(&coll, DEPLOY_FORENSICS)
        .expect("query installs");
    sim.node_mut(&coll).watch("hist");
    sim.inject(
        &coll,
        Tuple::new(
            "probe",
            [Value::Addr(coll.clone()), Value::Int(0), Value::Int(330)],
        ),
    );
    sim.run_for(TimeDelta::from_secs(1));
    let got = sim.node_mut(&coll).take_watched("hist");
    assert_eq!(got.len(), 4, "all pings reconstruct via deltas: {got:?}");
}
