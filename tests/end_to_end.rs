//! End-to-end integration: the full stack — Chord, tracing, and every
//! §3 monitoring family — running together on one simulated population.

use p2ql::chord::testbed::{collect_lookup_results, issue_lookup};
use p2ql::chord::{build_ring, lookup_oracle, ring_is_ordered, ring_is_well_formed, ChordConfig};
use p2ql::core::{NodeConfig, ParallelHarness, Population, SequentialOracle, SimHarness};
use p2ql::monitor::{consistency, ordering, oscillation, ring, snapshot};
use p2ql::net::SimConfig;
use p2ql::types::{Addr, DetRng, RingId, TimeDelta, Value};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The kitchen sink: all monitors coexist on a traced ring without
/// interfering with the protocol or each other, stay silent while the
/// system is healthy, and (several of them) fire when a node flaps.
#[test]
fn all_monitors_coexist_and_fire_on_faults() {
    let mut sim = SimHarness::new(
        Default::default(),
        NodeConfig {
            tracing: true,
            ..Default::default()
        },
        90,
    );
    let topo = build_ring(&mut sim, 8, &ChordConfig::default());
    sim.run_for(TimeDelta::from_secs(240));
    assert!(ring_is_ordered(&mut sim, &topo), "base ring must converge");

    // Install everything, on-line.
    for a in topo.addrs.clone() {
        sim.install(&a, &ring::active_probe_program(9)).unwrap();
        sim.install(&a, &ring::passive_check_program()).unwrap();
        sim.install(&a, &ordering::traversal_program()).unwrap();
        sim.install(&a, &oscillation::full_program()).unwrap();
        sim.install(&a, &snapshot::backpointer_program()).unwrap();
        sim.install(&a, &snapshot::snapshot_program()).unwrap();
        sim.node_mut(&a).watch(ring::ALARM);
        sim.node_mut(&a).watch(oscillation::OSCILL);
    }
    let prober = topo.addrs[2].clone();
    sim.install(
        &prober,
        &consistency::probe_program(&consistency::ProbeConfig {
            probe_secs: 8.0,
            tally_secs: 10,
            wait_secs: 10,
            ..Default::default()
        }),
    )
    .unwrap();
    sim.node_mut(&prober).watch(consistency::CONSISTENCY);
    let initiator = topo.addrs[0].clone();
    sim.install(&initiator, &snapshot::initiator_program(&initiator, 45.0))
        .unwrap();

    // Healthy phase: protocol keeps working, monitors stay quiet.
    sim.run_for(TimeDelta::from_secs(120));
    assert!(
        ring_is_ordered(&mut sim, &topo),
        "monitors must not perturb the ring"
    );
    for a in topo.addrs.clone() {
        assert!(
            sim.node_mut(&a)
                .take_watched(oscillation::OSCILL)
                .is_empty(),
            "false oscillation at {a}"
        );
    }
    let healthy_metrics =
        consistency::metrics(sim.node_mut(&prober).watched(consistency::CONSISTENCY));
    assert!(!healthy_metrics.is_empty(), "probe must produce metrics");
    assert!(
        healthy_metrics.iter().all(|(_, m)| (*m - 1.0).abs() < 1e-9),
        "healthy ring must be consistent: {healthy_metrics:?}"
    );

    // Snapshot 1 must have completed on every node.
    for a in topo.addrs.clone() {
        assert_eq!(
            snapshot::phase_of(&mut sim, &a, 1).as_deref(),
            Some("Done"),
            "snapshot incomplete at {a}"
        );
    }

    // Fault phase: flap a node; oscillation and ring alarms must appear
    // somewhere in the population.
    let victim = topo
        .live_sorted(&sim)
        .into_iter()
        .map(|(_, a)| a)
        .find(|a| a != topo.landmark() && *a != prober && *a != initiator)
        .unwrap();
    for _ in 0..6 {
        sim.crash(&victim);
        sim.run_for(TimeDelta::from_secs(16));
        sim.revive(&victim);
        sim.run_for(TimeDelta::from_secs(8));
    }
    sim.run_for(TimeDelta::from_secs(60));

    let oscills: usize = topo
        .addrs
        .clone()
        .iter()
        .map(|a| sim.node_mut(a).watched(oscillation::OSCILL).len())
        .sum();
    assert!(
        oscills > 0,
        "flapping node must trigger oscillation detectors"
    );

    // And the system recovers afterwards.
    sim.run_for(TimeDelta::from_secs(120));
    assert!(
        ring_is_well_formed(&mut sim, &topo),
        "ring must settle after faults"
    );
}

/// Monitoring queries are watchpoints an operator can also *remove*; the
/// base system must be unaffected by a full install/uninstall cycle.
#[test]
fn piecemeal_install_and_uninstall() {
    let mut sim = SimHarness::with_seed(91);
    let topo = build_ring(&mut sim, 5, &ChordConfig::default());
    sim.run_for(TimeDelta::from_secs(180));
    assert!(ring_is_ordered(&mut sim, &topo));

    let node = topo.addrs[1].clone();
    let strands_before = sim.node_mut(&node).strand_count();
    let pid1 = sim.install(&node, &ring::active_probe_program(5)).unwrap();
    let pid2 = sim
        .install(&node, &ordering::opportunistic_program())
        .unwrap();
    assert!(sim.node_mut(&node).strand_count() > strands_before);

    sim.run_for(TimeDelta::from_secs(30));
    sim.node_mut(&node).uninstall(pid1);
    sim.node_mut(&node).uninstall(pid2);
    assert_eq!(sim.node_mut(&node).strand_count(), strands_before);

    // The ring keeps running; removed monitors leave no timers behind.
    sim.node_mut(&node).watch(ring::ALARM);
    sim.run_for(TimeDelta::from_secs(60));
    assert!(sim.node_mut(&node).watched(ring::ALARM).is_empty());
    assert!(ring_is_ordered(&mut sim, &topo));
}

/// Golden-file equivalence for the execution trace (§2.1.2).
///
/// A 4-node Chord ring warms up untraced, flips tracing on at runtime,
/// and serves one lookup. The resulting Fig 5-style dispatch counters,
/// per-strand execution counts, and the *full* `ruleExec`/`tupleTable`
/// contents on every node must be bit-identical to the committed golden
/// file — the engine may batch deltas internally, but the observable
/// per-tuple trace (including assigned tuple IDs) must not change.
///
/// Regenerate with `GOLDEN_REGEN=1 cargo test golden_chord_lookup`.
#[test]
fn golden_chord_lookup_trace_is_stable() {
    let mut sim = SimHarness::with_seed(4242);
    let topo = build_ring(&mut sim, 4, &ChordConfig::default());
    sim.run_for(TimeDelta::from_secs(120));
    assert!(
        ring_is_ordered(&mut sim, &topo),
        "4-node ring must converge"
    );

    // Trace only the lookup phase (the §4 logging experiment's toggle).
    for a in topo.addrs.clone() {
        sim.node_mut(&a).set_tracing(true);
    }
    let requester = topo.addrs[1].clone();
    let origin = topo.addrs[2].clone();
    sim.node_mut(&requester).watch("lookupResults");
    let key = RingId(0x5EED_CAFE_F00D_D00D);
    let req = issue_lookup(&mut sim, &origin, key, &requester, 77);
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

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/chord_lookup_trace.txt");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &dump).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing: regenerate with GOLDEN_REGEN=1");
    if dump != want {
        for (i, (got, exp)) in dump.lines().zip(want.lines()).enumerate() {
            assert_eq!(got, exp, "trace diverges from golden at line {}", i + 1);
        }
        panic!(
            "trace length diverges from golden: {} vs {} lines",
            dump.lines().count(),
            want.lines().count()
        );
    }
}

/// The tracer's resource bounds (§3.4) hold under sustained load.
#[test]
fn trace_tables_stay_bounded() {
    let mut sim = SimHarness::new(
        Default::default(),
        NodeConfig {
            tracing: true,
            ..Default::default()
        },
        92,
    );
    let topo = build_ring(&mut sim, 6, &ChordConfig::default());
    sim.run_for(TimeDelta::from_secs(600));
    let now = sim.now();
    for a in topo.addrs.clone() {
        let execs = sim.node_mut(&a).table_scan("ruleExec", now).len();
        let tuples = sim.node_mut(&a).table_scan("tupleTable", now).len();
        assert!(execs <= 10_000, "{a}: ruleExec unbounded ({execs})");
        assert!(tuples <= 20_000, "{a}: tupleTable unbounded ({tuples})");
        // And not trivially empty either — the system is being traced.
        assert!(execs > 0, "{a}: tracing produced nothing");
    }
}

/// Rule `l3` forwards a lookup once per next-hop node, not once per
/// finger position that holds it (DESIGN.md §1, "P2-Chord: rules beyond
/// the published listing"). On a converged 10-node ring, one lookup per
/// node for a random key: every requester gets exactly one answer, the
/// right one, and no node dispatches the same `(K, E)` lookup twice — on
/// the sequential oracle and at 2 shards.
#[test]
fn a_lookup_travels_once_per_hop() {
    fn check<H: Population>(sim: &mut H, who: &str) {
        let topo = build_ring(sim, 10, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(240));
        assert!(ring_is_ordered(sim, &topo), "{who}: ring must converge");
        for a in &topo.addrs {
            sim.node_mut(a).watch("lookup");
            sim.node_mut(a).watch("lookupResults");
        }
        let mut rng = DetRng::new(40);
        let mut key_of: HashMap<RingId, RingId> = HashMap::new(); // E -> K
        let mut requests = Vec::new();
        for (i, a) in topo.addrs.iter().enumerate() {
            let key = rng.ring_id();
            let e = issue_lookup(sim, a, key, a, 0x40_0000 + i as u64);
            key_of.insert(e, key);
            requests.push((a.clone(), key, e));
        }
        sim.run_for(TimeDelta::from_secs(5));

        let mut visits = 0;
        for (a, key, e) in &requests {
            let mut seen: HashMap<(&RingId, &RingId), usize> = HashMap::new();
            for (_, t) in sim.node(a).watched("lookup") {
                if let (Some(Value::Id(k)), Some(Value::Id(e))) = (t.get(1), t.get(3)) {
                    if key_of.get(e) == Some(k) {
                        *seen.entry((k, e)).or_default() += 1;
                    }
                }
            }
            for ((k, e), n) in &seen {
                assert_eq!(
                    *n, 1,
                    "{who}: {a} dispatched lookup (K={k}, E={e}) {n} times"
                );
            }
            visits += seen.len();

            let answers: Vec<Addr> = sim
                .node(a)
                .watched("lookupResults")
                .iter()
                .filter(|(_, t)| t.get(4) == Some(&Value::Id(*e)))
                .filter_map(|(_, t)| t.get(3).and_then(Value::to_addr))
                .collect();
            let owner = lookup_oracle(sim, &topo, *key).map(|(_, owner)| owner);
            assert_eq!(answers.len(), 1, "{who}: {a} got {answers:?} for E={e}");
            assert_eq!(
                answers.first(),
                owner.as_ref(),
                "{who}: {a} got a wrong owner"
            );
        }
        assert!(
            visits > requests.len(),
            "{who}: no lookup left its origin, so nothing was forwarded"
        );
    }

    check(
        &mut SequentialOracle::new(SimConfig::default(), NodeConfig::default(), 4040),
        "oracle",
    );
    check(&mut ParallelHarness::with_seed(4040, 2), "2 shards");
}
