//! `sysStat`, row for row: the engine's counters as the table a
//! monitoring query reads (§2.1, DESIGN.md "sysStat keys").
//!
//! One deployment lights up every key family at once — two shards
//! (`shard.*`), forensic nodes (`archive.<relation>.*`) on the in-memory
//! durable log (`durable.*`), an origin streaming to a subscribed
//! collector (`archive.ship.*`, `archive.ship.in.*`) and a join that
//! probes an index (`idx.<table>.*`) — and every node's rows, in scan
//! order, must equal the committed golden file. Only `busyMicros` is
//! masked: it is wall-clock.
//!
//! Regenerate with `GOLDEN_REGEN=1 cargo test --test sysstat`.

use p2ql::core::{DurabilityMode, DurableBackend, NodeConfig, ParallelHarness};
use p2ql::net::SimConfig;
use p2ql::types::{Addr, Time, Tuple, Value};
use std::fmt::Write;

const APP: &str = r#"
materialize(seen, 5, 32, keys(1, 2)).
materialize(pred, infinity, 64, keys(1, 2)).
r1 seen@N(X) :- ping@N(X).
r2 out@N(X, V) :- ping@N(X), pred@N(X, V).
"#;

fn config() -> NodeConfig {
    NodeConfig {
        stagger_timers: false,
        durability: Some(DurabilityMode {
            backend: DurableBackend::Memory,
            fsync: false,
            plan: None,
        }),
        ..NodeConfig::forensic()
    }
}

/// Every node's `sysStat` rows after the deployment has run, in scan
/// order, `busyMicros` masked.
fn sysstat_dump() -> String {
    let mut sim = ParallelHarness::new(SimConfig::default(), config(), 7, 2);
    let origins: Vec<Addr> = ["a", "b"]
        .iter()
        .map(|n| sim.add_node_with(n, config()))
        .collect();
    let coll = sim.add_node_with("coll", config());
    for o in &origins {
        sim.install(o, APP).expect("app installs");
        sim.node_mut(o).ship_subscribe(coll.clone());
        for (x, v) in [(7i64, 70i64), (11, 110)] {
            sim.inject(
                o,
                Tuple::new(
                    "pred",
                    [Value::Addr(o.clone()), Value::Int(x), Value::Int(v)],
                ),
            );
        }
    }
    for (t, x) in [(10u64, 7i64), (20, 11), (30, 42)] {
        sim.run_until(Time::from_secs(t));
        for o in &origins {
            sim.inject(
                o,
                Tuple::new("ping", [Value::Addr(o.clone()), Value::Int(x)]),
            );
        }
    }
    for t in [100u64, 200, 300] {
        sim.run_until(Time::from_secs(t));
        for o in &origins {
            sim.node_mut(o).trace_gc(Time::from_secs(t));
        }
    }
    sim.run_until(Time::from_secs(301));

    let now = sim.now();
    let mut dump = String::from("# golden: sysStat of 2 origins + 1 collector, 2 shards, seed 7\n");
    for a in origins.iter().chain([&coll]) {
        let node = sim.node_mut(a);
        node.refresh_introspection(now);
        node.refresh_introspection(now);
        writeln!(dump, "node {a}").unwrap();
        for row in node.table_scan("sysStat", now) {
            let (key, value) = (&row.values()[1], &row.values()[2]);
            if *key == Value::str("busyMicros") {
                writeln!(dump, "  {key} *").unwrap();
            } else {
                writeln!(dump, "  {key} {value}").unwrap();
            }
        }
    }
    dump
}

#[test]
fn sysstat_rows_match_the_golden_file() {
    let dump = sysstat_dump();
    // Every key family is present at least once.
    for family in [
        "msgsSent",
        "malformedDrops",
        "liveTuples",
        "busyMicros",
        "shard.barrier_waits",
        "archive.seen.spilledRows",
        "durable.appends",
        "archive.ship.announceChunksReceived",
        "archive.ship.out.deltaSegments",
        "archive.ship.in.a.seen.segments",
        "idx.pred.indexProbes",
    ] {
        assert!(
            dump.contains(&format!("  {family} ")),
            "no {family} row:\n{dump}"
        );
    }

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sysstat_rows.txt");
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&path, &dump).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing: regenerate with GOLDEN_REGEN=1");
    for (i, (got, exp)) in dump.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, exp, "sysStat diverges from golden at line {}", i + 1);
    }
    assert_eq!(
        dump.lines().count(),
        want.lines().count(),
        "sysStat length diverges from golden"
    );
}
