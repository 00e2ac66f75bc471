//! Introspection: node state reflected as queryable tables (§2.1).
//!
//! *"Most of the state of a running P2 node (tables, rules, dataflow
//! graph, etc.) is reflected back to the system as tables, themselves
//! queryable in OverLog."* Three reflection tables are maintained:
//!
//! * `sysTable(loc, name, rows, maxRows, lifetimeSecs)` — the catalog;
//! * `sysRule(loc, strandId, source, fired, outputs, evalErrors)` — the
//!   installed rule strands and their execution counters;
//! * `sysStat(loc, key, value)` — the engine's counters: each counter
//!   struct declares its keys once (`p2_types::counters!`) and refresh
//!   writes them under a family prefix (`shard.`, `archive.<relation>.`,
//!   `durable.`, `archive.ship.`, `idx.<table>.`, …); DESIGN.md's
//!   "sysStat keys" lists every family and when it is present.
//!
//! Refreshing is explicit: only a caller of
//! [`crate::node::Node::refresh_introspection`] (a test, an example, the
//! benchmark's snapshots) re-materializes the tables. No rule can
//! trigger it, so a monitoring query reads them as of the last refresh;
//! reflection has a cost, so it is paid only when someone asks.

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

    // sysStat: each counter source's `counters()` under its key prefix
    // (DESIGN.md, "sysStat keys", says which families appear when).
    let mut stat_rows: Vec<Tuple> = Vec::new();
    let mut add = |prefix: &str, counters: Vec<(&'static str, u64)>| {
        stat_rows.extend(counters.into_iter().map(|(key, v)| {
            Tuple::new(
                SYS_STAT,
                [
                    loc.clone(),
                    Value::str(format!("{prefix}{key}")),
                    Value::Int(v as i64),
                ],
            )
        }))
    };
    let m = node.metrics();
    add("", m.counters());
    add(
        "",
        vec![
            ("liveTuples", node.live_tuples() as u64),
            ("busyMicros", m.busy.as_micros() as u64),
        ],
    );
    if let Some(s) = node.shard_stats() {
        add("shard.", s.counters());
    }
    let ship = node.ship_active().then(|| node.ship_stats());
    let cat = node.catalog_mut();
    if cat.archive_enabled() {
        for (name, s) in cat.archive_stats() {
            add(&format!("archive.{name}."), s.counters());
        }
    }
    if let Some(d) = cat.durable_stats() {
        add("durable.", d.counters());
    }
    if let Some(s) = ship {
        add("archive.ship.", s.counters());
        for (origin, relation, s) in cat.imported_stats() {
            add(
                &format!("archive.ship.in.{origin}.{relation}."),
                s.counters(),
            );
        }
    }
    for (name, s) in cat.index_stats() {
        if s.index_probes + s.linear_probes + s.heap_pops + s.auto_indexes > 0 {
            add(&format!("idx.{name}."), s.counters());
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
    // sysRule and sysDiag are re-materialized exactly: an uninstalled
    // rule's or program's rows must not linger (sysTable and sysStat
    // rows are keyed by entities that never disappear).
    for name in [SYS_RULE, SYS_DIAG] {
        if let Some(t) = cat.table_mut(name) {
            t.clear();
        }
    }
    for row in table_rows
        .into_iter()
        .chain(rule_rows)
        .chain(stat_rows)
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
    fn an_uninstalled_rule_leaves_sys_rule() {
        let mut n = Node::new(Addr::new("n1"), NodeConfig::default());
        let pid = n.install("r1 out@N(X) :- ev@N(X).", Time::ZERO).unwrap();
        n.install(
            "w1 rules@N(Id) :- probe@N(), sysRule@N(Id, Src, F, O, E).",
            Time::ZERO,
        )
        .unwrap();
        n.watch("rules");
        n.refresh_introspection(Time::ZERO);
        n.uninstall(pid);
        n.refresh_introspection(Time::ZERO);
        let ids: Vec<_> = n
            .table_scan(SYS_RULE, Time::ZERO)
            .iter()
            .map(|t| t.values()[1].clone())
            .collect();
        assert_eq!(ids, [Value::str("w1")]);
        // A monitor reading sysRule sees only the rule still installed.
        n.inject(Tuple::new("probe", [Value::addr("n1")]));
        n.pump(Time::ZERO);
        let seen: Vec<_> = n
            .watched("rules")
            .iter()
            .map(|(_, t)| t.values()[1].clone())
            .collect();
        assert_eq!(seen, [Value::str("w1")]);
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
