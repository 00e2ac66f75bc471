//! Introspection: node state reflected as queryable tables (§2.1).
//!
//! *"Most of the state of a running P2 node (tables, rules, dataflow
//! graph, etc.) is reflected back to the system as tables, themselves
//! queryable in OverLog."* Three reflection tables are maintained:
//!
//! * `sysTable(loc, name, rows, maxRows, lifetimeSecs)` — the catalog;
//! * `sysRule(loc, strandId, source, fired, outputs, evalErrors)` — the
//!   installed rule strands and their execution counters;
//! * `sysStat(loc, key, value)` — scalar runtime statistics, including
//!   per-table store probe counters under `idx.<table>.<counter>` keys
//!   (index vs linear probes, rows scanned/returned, expiry-heap pops,
//!   auto-created indexes) for tables with any probe/expiry activity,
//!   and — on archiving nodes — archive-tier counters under
//!   `archive.<relation>.<counter>` keys (segments held, sealed bytes,
//!   rows spilled, history scans served, retention drops, compactions).
//!
//! Refreshing is explicit ([`crate::node::Node::refresh_introspection`])
//! or driven by a periodic rule the operator installs — reflection has a
//! cost, so it is paid only when someone is looking.

use crate::node::Node;
use p2_store::TableSpec;
use p2_types::{Time, Tuple, Value};

/// Reflection table names.
pub const SYS_TABLE: &str = "sysTable";
/// See module docs.
pub const SYS_RULE: &str = "sysRule";
/// See module docs.
pub const SYS_STAT: &str = "sysStat";
/// `sysDiag(loc, program, seq, severity, code, context, message)` —
/// static-analysis warnings and plan-time diagnostics for the installed
/// programs, so a monitoring query can watch for mis-deployed monitors
/// (a typo'd relation name reads as a healthy, silent system otherwise).
pub const SYS_DIAG: &str = "sysDiag";

/// Table declarations for the reflection tables.
pub fn table_specs() -> Vec<TableSpec> {
    vec![
        TableSpec::new(SYS_TABLE, None, None, vec![0, 1]),
        TableSpec::new(SYS_RULE, None, None, vec![0, 1]),
        TableSpec::new(SYS_STAT, None, None, vec![0, 1]),
        TableSpec::new(SYS_DIAG, None, None, vec![0, 1, 2]),
    ]
}

/// Re-materialize the reflection tables from live node state.
pub fn refresh(node: &mut Node, now: Time) {
    let addr = node.addr().clone();
    let loc = Value::Addr(addr);

    let table_rows: Vec<Tuple> = node
        .catalog_mut()
        .table_stats()
        .into_iter()
        .map(|(name, rows, spec)| {
            Tuple::new(
                SYS_TABLE,
                [
                    loc.clone(),
                    Value::str(&name),
                    Value::Int(rows as i64),
                    Value::Int(spec.max_rows.map(|m| m as i64).unwrap_or(-1)),
                    Value::Float(spec.lifetime.map(|l| l.as_secs_f64()).unwrap_or(-1.0)),
                ],
            )
        })
        .collect();

    let rule_rows: Vec<Tuple> = node
        .strand_stats()
        .into_iter()
        .map(|(id, source, stats)| {
            Tuple::new(
                SYS_RULE,
                [
                    loc.clone(),
                    Value::str(&id),
                    Value::str(&source),
                    Value::Int(stats.fired as i64),
                    Value::Int(stats.outputs as i64),
                    Value::Int(stats.eval_errors as i64),
                ],
            )
        })
        .collect();

    let m = node.metrics().clone();
    let mut stat_rows: Vec<Tuple> = [
        ("msgsSent", m.msgs_sent as i64),
        ("msgsReceived", m.msgs_received as i64),
        ("tuplesDispatched", m.tuples_dispatched as i64),
        ("strandFirings", m.strand_firings as i64),
        ("deletes", m.deletes as i64),
        ("overflowDrops", m.overflow_drops as i64),
        ("strandOverflowDrops", m.strand_overflow_drops as i64),
        ("tuplesSent", m.tuples_sent as i64),
        ("malformedDrops", m.malformed_drops as i64),
        ("liveTuples", node.live_tuples() as i64),
        ("busyMicros", m.busy.as_micros() as i64),
    ]
    .into_iter()
    .map(|(k, v)| Tuple::new(SYS_STAT, [loc.clone(), Value::str(k), Value::Int(v)]))
    .collect();

    // Parallel-engine counters, present only when the node runs under
    // the sharded harness (DESIGN.md §2.10).
    if let Some(s) = node.shard_stats().copied() {
        for (k, v) in [
            ("shard.id", s.shard),
            ("shard.events", s.events),
            ("shard.barrier_waits", s.barrier_waits),
            ("shard.mailbox_envelopes", s.mailbox_envelopes),
        ] {
            stat_rows.push(Tuple::new(
                SYS_STAT,
                [loc.clone(), Value::str(k), Value::Int(v as i64)],
            ));
        }
    }

    // Archive-tier counters, one row per (relation, counter), mirroring
    // the `idx.*` convention. Absent entirely when archiving is off —
    // golden traces of live-only nodes must not change — and relations
    // that never spilled a row have no entries to emit.
    let mut archive_rows: Vec<Tuple> = Vec::new();
    if node.catalog_mut().archive_enabled() {
        for (name, s) in node.catalog_mut().archive_stats() {
            for (counter, v) in [
                ("segments", s.segments),
                ("sealedBytes", s.sealed_bytes),
                ("openRows", s.open_rows),
                ("spilledRows", s.spilled_rows),
                ("scans", s.scans),
                ("scanHits", s.scan_hits),
                ("droppedSegments", s.dropped_segments),
                ("compactions", s.compactions),
                ("prunedSegments", s.pruned_segments),
                ("ageDroppedSegments", s.age_dropped_segments),
            ] {
                archive_rows.push(Tuple::new(
                    SYS_STAT,
                    [
                        loc.clone(),
                        Value::str(format!("archive.{name}.{counter}")),
                        Value::Int(v as i64),
                    ],
                ));
            }
        }
    }

    // Durable-tier counters (DESIGN.md §2.14), present only when a
    // durable store is attached — nodes without durability keep their
    // sysStat byte-identical.
    let mut durable_rows: Vec<Tuple> = Vec::new();
    if let Some(d) = node.catalog_mut().durable_stats() {
        for (k, v) in [
            ("durable.boots", d.boots),
            ("durable.appends", d.appends),
            ("durable.fsyncs", d.fsyncs),
            ("durable.recoveredSegments", d.recovered_segments),
            ("durable.truncatedTailBytes", d.truncated_tail_bytes),
            ("durable.quarantined", d.quarantined),
            ("durable.ioErrors", d.io_errors),
        ] {
            durable_rows.push(Tuple::new(
                SYS_STAT,
                [loc.clone(), Value::str(k), Value::Int(v as i64)],
            ));
        }
    }

    // Segment-shipping counters, present only on nodes where shipping
    // was ever touched (peer enrolled, collector subscribed, or ship
    // traffic received) — everyone else's sysStat is unchanged.
    let mut ship_rows: Vec<Tuple> = Vec::new();
    if node.ship_active() {
        let s = node.ship_stats();
        for (k, v) in [
            ("archive.ship.requestsSent", s.requests_sent),
            ("archive.ship.requestsServed", s.requests_served),
            ("archive.ship.fetchesCompleted", s.fetches_completed),
            ("archive.ship.announceChunksSent", s.announce_chunks_sent),
            (
                "archive.ship.announceChunksReceived",
                s.announce_chunks_received,
            ),
            ("archive.ship.announcesApplied", s.announces_applied),
            ("archive.ship.nacksSent", s.nacks_sent),
            ("archive.ship.nacksReceived", s.nacks_received),
            ("archive.ship.timeouts", s.timeouts),
            ("archive.ship.retries", s.retries),
            ("archive.ship.triggersStaged", s.triggers_staged),
            ("archive.ship.triggersReleased", s.triggers_released),
            ("archive.ship.bytesSent", s.bytes_sent),
            ("archive.ship.bytesReceived", s.bytes_received),
            ("archive.ship.strays", s.strays),
            ("archive.ship.out.deltaSegments", s.delta_segments),
        ] {
            ship_rows.push(Tuple::new(
                SYS_STAT,
                [loc.clone(), Value::str(k), Value::Int(v as i64)],
            ));
        }
        // Imported coverage, one (origin, relation) pair per counter —
        // the collector-side mirror of the origin's archive.* rows.
        for (origin, relation, segs, bytes, age_dropped) in node.catalog_mut().imported_stats() {
            for (counter, v) in [
                ("segments", segs),
                ("bytes", bytes),
                ("ageDroppedSegments", age_dropped),
            ] {
                ship_rows.push(Tuple::new(
                    SYS_STAT,
                    [
                        loc.clone(),
                        Value::str(format!("archive.ship.in.{origin}.{relation}.{counter}")),
                        Value::Int(v as i64),
                    ],
                ));
            }
        }
    }

    // Store probe/expiry counters, one row per (table, counter). Tables
    // with no activity yet are skipped so sysStat stays readable on nodes
    // with large catalogs.
    let mut idx_rows: Vec<Tuple> = Vec::new();
    for (name, s) in node.catalog_mut().index_stats() {
        if s.index_probes + s.linear_probes + s.heap_pops + s.auto_indexes == 0 {
            continue;
        }
        for (counter, v) in [
            ("indexProbes", s.index_probes),
            ("linearProbes", s.linear_probes),
            ("rowsScanned", s.rows_scanned),
            ("rowsReturned", s.rows_returned),
            ("heapPops", s.heap_pops),
            ("autoIndexes", s.auto_indexes),
        ] {
            idx_rows.push(Tuple::new(
                SYS_STAT,
                [
                    loc.clone(),
                    Value::str(format!("idx.{name}.{counter}")),
                    Value::Int(v as i64),
                ],
            ));
        }
    }

    // Diagnostics: analysis findings first, then plan-time warnings,
    // sequence-numbered per program so keys stay stable across refreshes.
    let mut diag_rows: Vec<Tuple> = Vec::new();
    let mut seq: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
    for (pid, d) in &node.analysis_diagnostics {
        let n = seq.entry(pid.0).or_insert(0);
        diag_rows.push(Tuple::new(
            SYS_DIAG,
            [
                loc.clone(),
                Value::Int(pid.0 as i64),
                Value::Int(*n),
                Value::str(d.severity.to_string()),
                Value::str(d.code),
                Value::str(d.context.as_deref().unwrap_or("")),
                Value::str(&d.message),
            ],
        ));
        *n += 1;
    }
    for (pid, d) in &node.plan_diagnostics {
        let n = seq.entry(pid.0).or_insert(0);
        diag_rows.push(Tuple::new(
            SYS_DIAG,
            [
                loc.clone(),
                Value::Int(pid.0 as i64),
                Value::Int(*n),
                Value::str("warning"),
                Value::str(d.code),
                Value::str(&d.strand_id),
                Value::str(&d.message),
            ],
        ));
        *n += 1;
    }
    // Remote-history failures: runtime findings, not program findings,
    // so they ride under the reserved program id -1. "No history
    // there" (P2S901) and "peer unreachable" (P2S902) stay queryably
    // distinct instead of collapsing into an empty scan.
    for (ship_seq, f) in node.ship_failures().enumerate() {
        diag_rows.push(Tuple::new(
            SYS_DIAG,
            [
                loc.clone(),
                Value::Int(-1),
                Value::Int(ship_seq as i64),
                Value::str("warning"),
                Value::str(f.code()),
                Value::str(f.context()),
                Value::str(f.message()),
            ],
        ));
    }

    let cat = node.catalog_mut();
    // sysDiag is re-materialized exactly: an uninstalled program's
    // findings must not linger (the other sys tables keep their rows
    // keyed by entities that never disappear).
    if let Some(t) = cat.table_mut(SYS_DIAG) {
        t.clear();
    }
    for row in table_rows
        .into_iter()
        .chain(rule_rows)
        .chain(stat_rows)
        .chain(archive_rows)
        .chain(durable_rows)
        .chain(ship_rows)
        .chain(idx_rows)
        .chain(diag_rows)
    {
        let _ = cat.insert(row, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use p2_types::Addr;

    #[test]
    fn reflection_tables_populate() {
        let mut n = Node::new(Addr::new("n1"), NodeConfig::default());
        n.install(
            "materialize(link, infinity, 50, keys(1, 2)).
             r1 out@N(X) :- ev@N(X).",
            Time::ZERO,
        )
        .unwrap();
        n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(1)]));
        n.pump(Time::ZERO);
        n.refresh_introspection(Time::ZERO);

        let tables = n.table_scan(SYS_TABLE, Time::ZERO);
        assert!(tables.iter().any(|t| t.get(1) == Some(&Value::str("link"))));
        // Reflection tables describe themselves too.
        assert!(tables
            .iter()
            .any(|t| t.get(1) == Some(&Value::str(SYS_TABLE))));

        let rules = n.table_scan(SYS_RULE, Time::ZERO);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].get(3), Some(&Value::Int(1)), "fired once");

        let stats = n.table_scan(SYS_STAT, Time::ZERO);
        assert!(stats
            .iter()
            .any(|t| t.get(1) == Some(&Value::str("strandFirings"))
                && t.get(2) == Some(&Value::Int(1))));
    }

    #[test]
    fn index_counters_surface_in_sys_stat() {
        let mut n = Node::new(Addr::new("n1"), NodeConfig::default());
        n.install(
            "materialize(pred, infinity, 64, keys(1, 2)).
             r1 out@N(P) :- ev@N(P), pred@N(P, V).",
            Time::ZERO,
        )
        .unwrap();
        for i in 0..8 {
            n.inject(Tuple::new(
                "pred",
                [Value::addr("n1"), Value::Int(i), Value::Int(i * 10)],
            ));
        }
        n.pump(Time::ZERO);
        n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(3)]));
        n.pump(Time::ZERO);
        n.refresh_introspection(Time::ZERO);

        let stats = n.table_scan(SYS_STAT, Time::ZERO);
        let stat = |key: &str| {
            stats
                .iter()
                .find(|t| t.get(1) == Some(&Value::str(key)))
                .and_then(|t| match t.get(2) {
                    Some(Value::Int(v)) => Some(*v),
                    _ => None,
                })
        };
        // The join probed pred through its install-time index, touching
        // only the rows it returned — never the other 7.
        assert!(stat("idx.pred.indexProbes").unwrap() >= 1);
        assert_eq!(
            stat("idx.pred.rowsScanned"),
            stat("idx.pred.rowsReturned"),
            "indexed probes must not scan non-matching rows"
        );
        // Idle tables emit no counter rows.
        assert!(stat("idx.sysRule.indexProbes").is_none());
    }

    #[test]
    fn archive_counters_surface_in_sys_stat_only_when_archiving() {
        // Live-only node: no archive.* keys at all (golden traces of
        // pre-archive runs must stay byte-identical).
        let mut plain = Node::new(Addr::new("n1"), NodeConfig::default());
        plain.refresh_introspection(Time::ZERO);
        assert!(!plain
            .table_scan(SYS_STAT, Time::ZERO)
            .iter()
            .any(|t| { matches!(t.get(1), Some(Value::Str(s)) if s.starts_with("archive.")) }));

        // Forensic node: expire a row, refresh, and the relation's
        // archive counters appear.
        let mut n = Node::new(Addr::new("n1"), NodeConfig::forensic());
        n.install("materialize(succ, 2, 8, keys(1, 2)).", Time::ZERO)
            .unwrap();
        n.inject(Tuple::new("succ", [Value::addr("n1"), Value::Int(9)]));
        n.pump(Time::ZERO);
        let later = Time::from_secs(10);
        n.catalog_mut().scan("succ", later); // expiry prologue spills
        n.refresh_introspection(later);
        let stats = n.table_scan(SYS_STAT, later);
        let spilled = stats
            .iter()
            .find(|t| t.get(1) == Some(&Value::str("archive.succ.spilledRows")))
            .and_then(|t| t.get(2).cloned());
        assert_eq!(spilled, Some(Value::Int(1)), "{stats:?}");
    }

    #[test]
    fn analysis_findings_surface_in_sys_diag_and_clear_on_uninstall() {
        let mut n = Node::new(Addr::new("n1"), NodeConfig::default());
        // 'evv' is consumed but nothing produces it: P2W301 at install.
        let pid = n.install("r1 out@N(X) :- evv@N(X).", Time::ZERO).unwrap();
        assert!(n
            .analysis_diagnostics()
            .any(|d| d.code == "P2W301" && d.message.contains("evv")));
        n.refresh_introspection(Time::ZERO);
        let rows = n.table_scan(SYS_DIAG, Time::ZERO);
        assert!(
            rows.iter().any(|t| t.get(4) == Some(&Value::str("P2W301"))
                && t.get(3) == Some(&Value::str("warning"))),
            "{rows:?}"
        );
        n.uninstall(pid);
        assert_eq!(n.analysis_diagnostics().count(), 0);
        n.refresh_introspection(Time::ZERO);
        assert!(n.table_scan(SYS_DIAG, Time::ZERO).is_empty());
    }

    #[test]
    fn plan_diagnostics_share_the_sys_diag_surface() {
        let mut n = Node::new(Addr::new("n1"), NodeConfig::default());
        n.install("d1 out@N(X) :- ev@N(X), 1 == 2.", Time::ZERO)
            .unwrap();
        n.refresh_introspection(Time::ZERO);
        let rows = n.table_scan(SYS_DIAG, Time::ZERO);
        assert!(
            rows.iter().any(|t| t.get(4) == Some(&Value::str("P2W501"))),
            "{rows:?}"
        );
    }

    #[test]
    fn reflection_is_queryable_from_overlog() {
        // The point of the model: a monitoring rule can read sysRule.
        let mut n = Node::new(Addr::new("n1"), NodeConfig::default());
        n.install("r1 out@N(X / 0) :- ev@N(X).", Time::ZERO)
            .unwrap();
        n.install(
            "watch errorRules@N(Id, Errs) :- probe@N(), sysRule@N(Id, Src, F, O, Errs), Errs > 0.",
            Time::ZERO,
        )
        .unwrap();
        n.watch("errorRules");
        // Make r1 fail once (division by zero in its head expression),
        // refresh reflection, then probe.
        n.inject(Tuple::new("ev", [Value::addr("n1"), Value::Int(1)]));
        n.pump(Time::ZERO);
        n.refresh_introspection(Time::ZERO);
        n.inject(Tuple::new("probe", [Value::addr("n1")]));
        n.pump(Time::ZERO);
        let hits = n.watched("errorRules");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1.get(1), Some(&Value::str("r1")));
    }
}
