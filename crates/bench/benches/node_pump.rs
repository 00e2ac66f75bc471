//! Dispatch throughput through the batched pump.
//!
//! Runs of materialized tuples with **no subscribing strand** unless
//! stated (trace rows, event-log appends, reflection refreshes all look
//! like this), which take the wholesale `insert_batch` path in runs of
//! up to 64.
//!
//! * `refresh`: 4096 tuples cycling over 64 primary keys — soft-state
//!   refresh, the dominant table traffic in the paper's programs
//!   (periodic pings, tupleTable refcounts, reflection rows). The store
//!   core is a hash-hit re-stamp, so per-tuple engine overhead is the
//!   cost that batching amortizes.
//! * `silent_insert`: 4096 distinct-key inserts — store-growth bound,
//!   the worst case for batching (the insert itself dominates).
//! * `subscribed_insert`: an event rule fires per tuple, where batching
//!   legally cannot skip the per-tuple interleave — the price of the
//!   §2.1.2 trace-equivalence guarantee.
//! * `archive_churn`: the soft-state hot path with archiving off versus
//!   enrolled (DESIGN.md §2.11) — 4096 tuples over 64 keys where every
//!   8th visit to a key carries a new payload, so 12.5 % of the traffic
//!   drops a version that must spill. The off/on delta is the archive
//!   write-through overhead recorded in EXPERIMENTS.md (acceptance
//!   bar: ≤5 %).
//! * `archive_saturated`: the stress ceiling — every tuple replaces, so
//!   every tuple spills. The off/on delta here is the *marginal* cost
//!   of archiving one dropped version (clone two `Arc`s, buffer, epoch
//!   bucket), not a rate any paper workload sustains.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use p2_core::{ArchiveEnroll, ArchiveMode, Node, NodeConfig};
use p2_types::{Addr, Time, Tuple, Value};

const RUN: usize = 4096;

fn silent_node() -> Node {
    let mut n = Node::new(
        Addr::new("n1"),
        NodeConfig {
            stagger_timers: false,
            ..Default::default()
        },
    );
    n.install(
        "materialize(sample, infinity, infinity, keys(1, 2)).",
        Time::ZERO,
    )
    .unwrap();
    n
}

fn subscribed_node() -> Node {
    let mut n = Node::new(
        Addr::new("n1"),
        NodeConfig {
            stagger_timers: false,
            ..Default::default()
        },
    );
    n.install(
        "materialize(sample, infinity, infinity, keys(1, 2)).
         d1 hit@N(X) :- sample@N(X).",
        Time::ZERO,
    )
    .unwrap();
    n
}

fn archive_node(archived: bool) -> Node {
    let mut n = Node::new(
        Addr::new("n1"),
        NodeConfig {
            stagger_timers: false,
            archive: archived.then(|| ArchiveMode {
                enroll: ArchiveEnroll::Named(vec!["sample".into()]),
                ..ArchiveMode::default()
            }),
            ..Default::default()
        },
    );
    n.install(
        "materialize(sample, infinity, infinity, keys(1, 2)).",
        Time::ZERO,
    )
    .unwrap();
    n
}

fn bench_node_pump(c: &mut Criterion) {
    let tuples: Vec<Tuple> = (0..RUN as i64)
        .map(|i| Tuple::new("sample", [Value::addr("n1"), Value::Int(i)]))
        .collect();
    let refreshes: Vec<Tuple> = (0..RUN as i64)
        .map(|i| Tuple::new("sample", [Value::addr("n1"), Value::Int(i % 64)]))
        .collect();

    for (name, run) in [("refresh", &refreshes), ("silent_insert", &tuples)] {
        c.bench_function(&format!("node_pump_{name}"), |b| {
            b.iter_batched(
                || {
                    let mut node = silent_node();
                    for t in run {
                        node.inject(t.clone());
                    }
                    node
                },
                |mut node| {
                    node.pump(Time::ZERO);
                    black_box(node.metrics().tuples_dispatched);
                    node // dropped outside the timing window
                },
                BatchSize::SmallInput,
            )
        });
    }
    // Soft-state churn: 64 keys, payload advances every 8th visit to a
    // key, so each pump refreshes 7/8 of the traffic and replaces (and,
    // when enrolled, spills) the other 1/8 — the deployed shape of
    // `bestSucc`/ping-style tables. The saturated variant advances the
    // payload on every visit: 4032 replacements, 4032 spills.
    let churn: Vec<Tuple> = (0..RUN as i64)
        .map(|i| {
            Tuple::new(
                "sample",
                [Value::addr("n1"), Value::Int(i % 64), Value::Int(i / 512)],
            )
        })
        .collect();
    let saturated: Vec<Tuple> = (0..RUN as i64)
        .map(|i| {
            Tuple::new(
                "sample",
                [Value::addr("n1"), Value::Int(i % 64), Value::Int(i)],
            )
        })
        .collect();
    for (workload, tuples) in [("churn", &churn), ("saturated", &saturated)] {
        for archived in [false, true] {
            let name = format!(
                "node_pump_archive_{workload}_{}",
                if archived { "on" } else { "off" }
            );
            c.bench_function(&name, |b| {
                b.iter_batched(
                    || {
                        let mut node = archive_node(archived);
                        for t in tuples {
                            node.inject(t.clone());
                        }
                        node
                    },
                    |mut node| {
                        node.pump(Time::ZERO);
                        // Drain spilled versions into epoch buckets —
                        // the deployed write-through path runs this
                        // with GC.
                        node.trace_gc(Time::ZERO);
                        black_box(node.metrics().tuples_dispatched);
                        node
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    c.bench_function("node_pump_subscribed_insert", |b| {
        b.iter_batched(
            || {
                let mut node = subscribed_node();
                for t in &tuples {
                    node.inject(t.clone());
                }
                node
            },
            |mut node| {
                node.pump(Time::ZERO);
                black_box(node.metrics().strand_firings);
                node
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_node_pump);
criterion_main!(benches);
