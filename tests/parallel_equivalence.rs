//! Sharded == sequential: the population engine must be bit-identical
//! to the scan-everything sequential oracle at every shard count
//! (DESIGN.md §2.10). These tests drive the same scenario through
//! `SequentialOracle` and `ParallelHarness{1,2,4,8}` via the
//! `Population` trait and compare everything deterministic: tuple
//! stores, tracer records, per-node envelope counts, and the golden
//! Chord trace.

use p2ql::chord::testbed::collect_lookup_results;
use p2ql::chord::{build_ring, issue_lookup, ring_is_ordered, ChordConfig};
use p2ql::core::{NodeConfig, ParallelHarness, Population, SequentialOracle};
use p2ql::net::SimConfig;
use p2ql::types::{Addr, RingId, Time, TimeDelta, Tuple, Value};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Everything deterministic a population exposes, as one string: per
/// node, the envelope counters, dataflow counters, and the sorted rows
/// of the scenario table plus both tracer tables.
fn fingerprint<H: Population>(sim: &mut H, tables: &[&str]) -> String {
    let now = sim.now();
    let addrs: Vec<Addr> = sim.addrs().to_vec();
    let stats = sim.net_stats();
    let mut out = String::new();
    for a in &addrs {
        let delivered = stats.delivered_to.get(a).copied().unwrap_or(0);
        writeln!(
            out,
            "node {a} sent={} delivered={delivered}",
            stats.sent_by(a)
        )
        .unwrap();
        let m = sim.node_mut(a).metrics().clone();
        writeln!(
            out,
            "  counters dispatched={} firings={} deletes={} overflow={} malformed={}",
            m.tuples_dispatched, m.strand_firings, m.deletes, m.overflow_drops, m.malformed_drops
        )
        .unwrap();
        for table in tables {
            let mut rows: Vec<String> = sim
                .node_mut(a)
                .table_scan(table, now)
                .iter()
                .map(|t| t.to_string())
                .collect();
            rows.sort();
            for r in rows {
                writeln!(out, "  {table} {r}").unwrap();
            }
        }
    }
    writeln!(out, "dropped={}", stats.dropped).unwrap();
    out
}

/// A fault/injection step for the token-ring scenario.
#[derive(Debug, Clone, Copy)]
enum Op {
    Inject(usize),
    Crash(usize),
    Revive(usize),
}

/// A token-passing ring with tracing on: every node ticks periodically,
/// hands a hop-limited token to its successor, and records arrivals.
/// Cheap enough for 64 nodes, rich enough to exercise timers, sends,
/// deletes-by-expiry, and the tracer.
fn run_token_ring<H: Population>(sim: &mut H, n: usize, ops: &[(u64, Op)]) -> String {
    let addrs: Vec<Addr> = (0..n).map(|i| sim.add_node(&format!("m{i}"))).collect();
    sim.install_all(
        "materialize(succ, infinity, 8, keys(1)).
         materialize(seen, infinity, infinity, keys(1, 2, 3)).
         tick token@M(E, 3) :- periodic@N(E, 7), succ@N(M).
         fwd token@M(E, C2) :- token@N(E, C), C > 0, succ@N(M), C2 := C - 1.
         rec seen@N(E, C) :- token@N(E, C).",
    )
    .expect("token program installs");
    for (i, addr) in addrs.iter().enumerate() {
        let next = (i + 1) % n;
        sim.install(addr, &format!("succ@\"m{i}\"(\"m{next}\").\n"))
            .expect("succ fact installs");
    }
    for (k, &(delay, op)) in ops.iter().enumerate() {
        sim.run_for(TimeDelta::from_secs(delay));
        match op {
            Op::Inject(i) => sim.inject(
                &addrs[i % n].clone(),
                Tuple::new(
                    "token",
                    [
                        Value::Addr(addrs[i % n].clone()),
                        Value::Int(10_000 + k as i64),
                        Value::Int(2),
                    ],
                ),
            ),
            Op::Crash(i) => sim.crash(&addrs[i % n].clone()),
            Op::Revive(i) => sim.revive(&addrs[i % n].clone()),
        }
    }
    sim.run_for(TimeDelta::from_secs(45));
    fingerprint(sim, &["seen", "ruleExec", "tupleTable"])
}

fn traced_config() -> NodeConfig {
    NodeConfig {
        tracing: true,
        ..Default::default()
    }
}

fn check_equivalence(net: SimConfig, seed: u64, n: usize, ops: &[(u64, Op)]) {
    let want = run_token_ring(
        &mut SequentialOracle::new(net.clone(), traced_config(), seed),
        n,
        ops,
    );
    for shards in [1usize, 2, 4, 8] {
        let mut sim = ParallelHarness::new(net.clone(), traced_config(), seed, shards);
        let got = run_token_ring(&mut sim, n, ops);
        assert!(
            got == want,
            "{n} nodes diverged from sequential at {shards} shards (seed {seed})"
        );
    }
}

/// Fixed ceiling case: the ISSUE's full population span, with faults.
#[test]
fn sixty_four_nodes_match_at_every_shard_count() {
    let ops = [
        (3, Op::Inject(5)),
        (9, Op::Crash(11)),
        (8, Op::Inject(11)), // injected while down: must stay pending
        (7, Op::Revive(11)),
        (5, Op::Inject(40)),
    ];
    check_equivalence(SimConfig::default(), 20_260_806, 64, &ops);
}

/// The golden Chord lookup trace (tests/golden/chord_lookup_trace.txt)
/// must replay byte-for-byte on the oracle and at every shard count —
/// same tracer tuple IDs, same counters, same rows.
#[test]
fn golden_chord_trace_is_identical_when_sharded() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/chord_lookup_trace.txt");
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing: run the end_to_end golden test with GOLDEN_REGEN=1");
    let mut oracle = SequentialOracle::new(SimConfig::default(), NodeConfig::default(), 4242);
    let mut dumps = vec![("oracle".to_string(), golden_chord_dump(&mut oracle))];
    for shards in [1usize, 2, 4] {
        let mut sim = ParallelHarness::with_seed(4242, shards);
        dumps.push((format!("shards={shards}"), golden_chord_dump(&mut sim)));
    }
    for (who, dump) in dumps {
        if dump != want {
            for (i, (got, exp)) in dump.lines().zip(want.lines()).enumerate() {
                assert_eq!(
                    got,
                    exp,
                    "trace ({who}) diverges from golden at line {}",
                    i + 1
                );
            }
            panic!(
                "trace ({who}) length diverges: {} vs {} lines",
                dump.lines().count(),
                want.lines().count()
            );
        }
    }
}

/// A deployment compiles each (source, catalog) pair once. A 64-node
/// ring installs the Chord program on 64 identical fresh catalogs and a
/// fact program of its own on each node: 128 installs, 65 compiles —
/// one for Chord, one per node's facts.
#[test]
fn a_ring_compiles_the_chord_program_once() {
    for shards in [1usize, 2] {
        let mut sim = ParallelHarness::with_seed(5, shards);
        build_ring(&mut sim, 64, &ChordConfig::default());
        assert_eq!(sim.compiled_programs(), 1 + 64, "{shards} shards");
    }
}

/// Programs that exhaust `max_dispatch_per_pump` are inside the
/// bit-identical contract: a node the cut pump leaves with a backlog is
/// pumped again in the same instant, however the population is stepped.
///
/// * `tests/bad_programs`' ping-pong storm bounces one ping across the
///   network forever while every node re-ignites a self-addressed copy,
///   which spins inside one pump until the budget drops the queue.
/// * A 40-way fan-out feeding itself is cut with strand pipelines in
///   flight, which strands tracer rows the pump never flushed; the
///   archive's `inserted_at` shows when they finally landed.
#[test]
fn budget_exhaustion_is_engine_invariant() {
    fn overflowed<H: Population>(sim: &mut H, addrs: &[Addr]) -> bool {
        addrs
            .iter()
            .any(|a| sim.node(a).metrics().overflow_drops > 0)
    }
    fn ping_pong<H: Population>(sim: &mut H) -> String {
        let addrs: Vec<Addr> = (0..3).map(|i| sim.add_node(&format!("s{i}"))).collect();
        sim.install_all(include_str!("bad_programs/storm_ping_pong.olg"))
            .expect("storm installs");
        sim.install_all("k ping@N(N) :- periodic@N(E, 3).")
            .expect("igniter installs");
        sim.inject(
            &addrs[0],
            Tuple::new(
                "ping",
                [Value::Addr(addrs[0].clone()), Value::Addr(addrs[1].clone())],
            ),
        );
        sim.run_for(TimeDelta::from_secs(20));
        assert!(overflowed(sim, &addrs), "the storm must exhaust the budget");
        fingerprint(sim, &["ruleExec", "tupleTable"])
    }
    fn fan_out<H: Population>(sim: &mut H) -> String {
        let addrs: Vec<Addr> = (0..3).map(|i| sim.add_node(&format!("s{i}"))).collect();
        sim.install_all(
            "materialize(peer, infinity, 64, keys(1, 2)).
             materialize(nbr, infinity, 4, keys(1, 2)).
             fan out@N(P, X) :- go@N(X), peer@N(P).
             back go@N(X) :- out@N(P, X).
             k go@N(E) :- periodic@N(E, 3).
             b beat@M(E) :- periodic@N(E, 0.05), nbr@N(M).",
        )
        .expect("fan-out installs");
        for (i, a) in addrs.iter().enumerate() {
            let mut facts = format!("nbr@\"s{i}\"(\"s{}\").\n", (i + 1) % 3);
            for p in 0..40 {
                writeln!(facts, "peer@\"s{i}\"({p}).").unwrap();
            }
            sim.install(a, &facts).expect("facts install");
        }
        sim.run_for(TimeDelta::from_secs(20));
        assert!(
            overflowed(sim, &addrs),
            "the fan-out must exhaust the budget"
        );
        let now = sim.now();
        let mut out = fingerprint(sim, &[]);
        for a in &addrs {
            let history = sim
                .node_mut(a)
                .history_scan("ruleExec", Time::ZERO, now, now)
                .expect("ruleExec is archived");
            for r in history {
                writeln!(out, "{a} {:?} {}", r.inserted_at, r.tuple).unwrap();
            }
        }
        out
    }
    let traced = NodeConfig {
        max_dispatch_per_pump: 300,
        ..traced_config()
    };
    let forensic = NodeConfig {
        max_dispatch_per_pump: 300,
        ..NodeConfig::forensic()
    };
    let net = SimConfig::default;
    let want_storm = ping_pong(&mut SequentialOracle::new(net(), traced.clone(), 31));
    let want_fan = fan_out(&mut SequentialOracle::new(net(), forensic.clone(), 31));
    for shards in [1usize, 2, 4] {
        let got = ping_pong(&mut ParallelHarness::new(net(), traced.clone(), 31, shards));
        assert!(got == want_storm, "storm diverged at {shards} shards");
        let got = fan_out(&mut ParallelHarness::new(
            net(),
            forensic.clone(),
            31,
            shards,
        ));
        assert!(got == want_fan, "fan-out diverged at {shards} shards");
    }
}

/// The exact dump the sequential golden test builds, over any harness.
fn golden_chord_dump<H: Population>(sim: &mut H) -> String {
    let topo = build_ring(sim, 4, &ChordConfig::default());
    sim.run_for(TimeDelta::from_secs(120));
    assert!(ring_is_ordered(sim, &topo), "4-node ring must converge");
    for a in topo.addrs.clone() {
        sim.node_mut(&a).set_tracing(true);
    }
    let requester = topo.addrs[1].clone();
    let origin = topo.addrs[2].clone();
    sim.node_mut(&requester).watch("lookupResults");
    let key = RingId(0x5EED_CAFE_F00D_D00D);
    let req = issue_lookup(sim, &origin, key, &requester, 77);
    sim.run_for(TimeDelta::from_secs(5));
    let answers = collect_lookup_results(sim.node_mut(&requester).watched("lookupResults"));
    assert!(answers.contains_key(&req), "lookup must be answered");

    let now = sim.now();
    let mut dump = String::new();
    writeln!(
        dump,
        "# golden: 4-node chord, seed 4242, traced lookup at t=120s"
    )
    .unwrap();
    for a in topo.addrs.clone() {
        writeln!(dump, "node {a}").unwrap();
        let m = sim.node_mut(&a).metrics().clone();
        writeln!(
            dump,
            "  counters dispatched={} firings={} deletes={} overflow={} malformed={}",
            m.tuples_dispatched, m.strand_firings, m.deletes, m.overflow_drops, m.malformed_drops
        )
        .unwrap();
        for (id, _, st) in sim.node_mut(&a).strand_stats() {
            writeln!(
                dump,
                "  strand {id} fired={} outputs={} errors={}",
                st.fired, st.outputs, st.eval_errors
            )
            .unwrap();
        }
        for table in ["ruleExec", "tupleTable"] {
            let mut rows: Vec<String> = sim
                .node_mut(&a)
                .table_scan(table, now)
                .iter()
                .map(|t| t.to_string())
                .collect();
            rows.sort();
            for r in rows {
                writeln!(dump, "  {table} {r}").unwrap();
            }
        }
    }
    dump
}

fn op_strategy() -> impl Strategy<Value = (u64, Op)> {
    (
        1u64..12,
        prop_oneof![
            (0usize..64).prop_map(Op::Inject),
            (0usize..64).prop_map(Op::Crash),
            (0usize..64).prop_map(Op::Revive),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// For arbitrary seeds, population sizes in the ISSUE's 3–64 span,
    /// link jitter/loss, and random crash/revive/inject schedules, the
    /// sharded engine's tuple stores, tracer records, and per-node
    /// envelope counts are identical to the sequential oracle at every
    /// shard count.
    #[test]
    fn sharded_population_matches_sequential(
        seed in 1u64..100_000,
        n in 3usize..65,
        jitter_ms in 0u64..15,
        lossy in 0u32..2,
        ops in proptest::collection::vec(op_strategy(), 0..6),
    ) {
        let net = SimConfig {
            jitter: TimeDelta::from_millis(jitter_ms),
            loss_rate: if lossy == 1 { 0.1 } else { 0.0 },
            ..Default::default()
        };
        check_equivalence(net, seed, n, &ops);
    }
}
