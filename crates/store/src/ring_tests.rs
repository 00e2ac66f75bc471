//! A trace table kept as records is the same table as one kept as
//! tuples.
//!
//! The general storage every other relation uses is the oracle: the
//! proptest below drives a [`Table::records`] table and a [`Table::new`]
//! one with the tracer's two declarations — `ruleExec` keyed on
//! `(loc, rule, cause, effect, isEvent)` with a 120-s lifetime, and
//! `tupleTable` keyed on `(loc, id)` with none — under a small row bound,
//! so that schedules of a few hundred steps reach it. Values come from
//! small pools, so writes refresh and replace rows as well as insert
//! them. Steps insert (as a tuple or as a record), delete by key and by
//! predicate, expire, scan, probe by field past the auto-index
//! threshold, and drain the spill buffer. Some schedules also write a
//! tuple that does not fit a record or run the clock backwards, which
//! moves the rows to general storage mid-run. After every step both
//! tables must report the same insert outcome, the same rows in the same
//! order, the same spilled rows (in order, except as a set within one
//! `delete_where`, which each storage walks in its own order), the same
//! lifetime counters and the same probe counters — all but `heapPops`,
//! which counts the general storage's stale expiry entries too — and
//! the ring's own invariants must hold. Rows are compared in their
//! typed form ([`typed`]): one rule label has an address's text, so a
//! record that decoded a label as an address, or the reverse, differs.

use crate::table::{InsertOutcome, RowRef, Table, TableSpec};
use p2_types::{Addr, Time, TimeDelta, TraceKind, TraceRow, Tuple, Value};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Rows as text that tells every value's variant apart: `==` on values
/// and a tuple's own `Debug` both take a string and an address of the
/// same text for one another, each value's `Debug` does not.
pub(crate) fn typed<'a>(rows: impl IntoIterator<Item = &'a Tuple>) -> Vec<String> {
    rows.into_iter()
        .map(|t| format!("{}{:?}", t.name(), t.values()))
        .collect()
}

/// An insert outcome in typed form ([`typed`]).
fn outcome(o: InsertOutcome) -> String {
    match o {
        InsertOutcome::Replaced { old } => format!("Replaced {:?}", typed([&old])),
        other => format!("{other:?}"),
    }
}

fn spec(kind: TraceKind, bound: Option<usize>) -> TableSpec {
    match kind {
        TraceKind::RuleExec => TableSpec::new(
            kind.relation(),
            Some(TimeDelta::from_secs(120)),
            bound,
            vec![0, 1, 2, 3, 6],
        ),
        TraceKind::TupleTable => TableSpec::new(kind.relation(), None, bound, vec![0, 1]),
    }
}

fn addr(n: u8) -> Addr {
    Addr::new(format!("n{}", n % 3))
}

/// A row from small pools: `a` picks the key, `b` the rest.
fn row(kind: TraceKind, a: u8, b: u8) -> TraceRow {
    match kind {
        TraceKind::RuleExec => TraceRow::RuleExec {
            loc: addr(a % 2),
            // "n1" is also an address's text.
            rule: Arc::from(["r1", "n1"][(a / 2 % 2) as usize]),
            cause: (a / 4 % 3) as u64,
            effect: (a / 12 % 2) as u64,
            t_in: Time::from_secs((b % 3) as u64),
            t_out: Time::from_secs((b / 3 % 2) as u64),
            is_event: a.is_multiple_of(5),
        },
        TraceKind::TupleTable => TraceRow::TupleTable {
            loc: addr(a % 2),
            id: (a / 2 % 6) as u64,
            src: addr(b),
            src_id: (b / 3 % 3) as u64,
            dst: addr(b / 9),
        },
    }
}

/// A probe value for field `field`: the field's own kind, or another
/// that `Value` equality still matches (an `Int` for an ID or a time, a
/// `Str` for an address), or one nothing stored can equal.
fn probe(kind: TraceKind, field: usize, a: u8, b: u8) -> Value {
    let v = row(kind, a, b).get(field).unwrap_or(Value::Int(0));
    match (b % 4, v) {
        (1, Value::Id(i)) => Value::Int(i.0 as i64),
        (1, Value::Time(t)) => Value::Int(t.0 as i64),
        (1, Value::Addr(x)) => Value::str(x.as_str()),
        (2, _) => Value::Float(0.5),
        (_, v) => v,
    }
}

type Spilled = Vec<(Time, Time, Vec<String>)>;

fn spilled(t: &mut Table) -> Spilled {
    let rows = t.take_spilled().into_iter();
    rows.map(|r| (r.dropped_at, r.inserted_at, typed([&r.tuple])))
        .collect()
}

fn sorted(mut rows: Spilled) -> Spilled {
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

    #[test]
    fn prop_record_table_matches_general_table(
        rule_exec in any::<bool>(),
        bound in 0u8..3,
        indexed in any::<bool>(),
        strays in 0u8..4,
        ops in proptest::collection::vec((0u8..20, any::<u8>(), any::<u8>(), 0u8..7), 1..220),
    ) {
        let kind = if rule_exec { TraceKind::RuleExec } else { TraceKind::TupleTable };
        let spec = spec(kind, [Some(3), Some(8), None][bound as usize]);
        let (mut t, mut m) = (Table::records(spec.clone(), kind), Table::new(spec));
        for x in [&mut t, &mut m] {
            x.set_archive_enrolled(true);
            x.set_auto_index_threshold(Some(3));
            if indexed {
                x.ensure_index(2);
            }
        }
        let mut secs = 0u64;
        for (op, a, b, field) in ops {
            let field = field as usize;
            let mut as_set = false;
            match op {
                0..=3 => {
                    let now = Time::from_secs(secs);
                    prop_assert_eq!(outcome(t.insert(row(kind, a, b).to_tuple(), now)), outcome(m.insert(row(kind, a, b).to_tuple(), now)));
                }
                4..=6 => {
                    let now = Time::from_secs(secs);
                    prop_assert_eq!(outcome(t.insert_row(row(kind, a, b), now)), outcome(m.insert(row(kind, a, b).to_tuple(), now)));
                }
                7 => {
                    let now = Time::from_secs(secs);
                    let key = row(kind, a, b).to_tuple();
                    prop_assert_eq!(typed(&t.delete_by_key(&key, now)), typed(&m.delete_by_key(&key, now)));
                }
                8 => {
                    let now = Time::from_secs(secs);
                    let v = probe(kind, field, a, b);
                    let gone = t.delete_where(now, |r: RowRef<'_>| r.field_is(field, &v));
                    prop_assert_eq!(gone, m.delete_where(now, |r: RowRef<'_>| r.field_is(field, &v)));
                    as_set = true;
                }
                9 | 10 => secs += (a % 70) as u64,
                11 => {
                    let now = Time::from_secs(secs);
                    prop_assert_eq!(t.expire(now), m.expire(now));
                }
                12 | 13 => {
                    let now = Time::from_secs(secs);
                    let v = probe(kind, field, a, b);
                    prop_assert_eq!(typed(&t.scan_eq(field, &v, now)), typed(&m.scan_eq(field, &v, now)));
                }
                14 if strays > 0 && a % 4 == 0 => {
                    // A tuple no record fits: the table's rows move to
                    // general storage, and it behaves the same after.
                    let now = Time::from_secs(secs);
                    let mut vals = row(kind, a, b).to_tuple().values().to_vec();
                    vals[1] = Value::Int(a as i64);
                    let stray = Tuple::new(kind.relation(), vals);
                    prop_assert_eq!(outcome(t.insert(stray.clone(), now)), outcome(m.insert(stray, now)));
                }
                14 if strays > 1 && a % 4 == 1 => secs = secs.saturating_sub((b % 40) as u64),
                15..=19 => {
                    // Churn on two hot keys moves them to the back again
                    // and again, so holes pile up behind the rows left
                    // alone, until the ring compacts.
                    let now = Time::from_secs(secs);
                    prop_assert_eq!(outcome(t.insert_row(row(kind, a % 2, b), now)), outcome(m.insert(row(kind, a % 2, b).to_tuple(), now)));
                }
                _ => {}
            }
            let now = Time::from_secs(secs);
            prop_assert_eq!(typed(&t.scan(now)), typed(&m.scan(now)));
            let (ts, ms) = (spilled(&mut t), spilled(&mut m));
            if as_set {
                prop_assert_eq!(sorted(ts), sorted(ms));
            } else {
                prop_assert_eq!(ts, ms);
            }
            prop_assert_eq!(t.counters(), m.counters());
            let (tp, mp) = (t.probe_stats(), m.probe_stats());
            prop_assert_eq!(
                (tp.index_probes, tp.linear_probes, tp.rows_scanned, tp.rows_returned, tp.auto_indexes),
                (mp.index_probes, mp.linear_probes, mp.rows_scanned, mp.rows_returned, mp.auto_indexes)
            );
            prop_assert_eq!(t.indexed_fields(), m.indexed_fields());
            prop_assert_eq!(t.raw_len(), m.raw_len());
            t.assert_sound();
        }
    }
}

/// The capacity rule, seen from outside: a table at a 10,000-row bound
/// whose oldest row stays while the rows behind it are deleted from the
/// middle (as the tracer's sweep deletes `tupleTable` rows a live
/// `ruleExec` row still pins), refilled, and in time expired keeps a
/// slot array no larger than the next power of two above 1.25 × its
/// peak live rows + 32: holes at most a quarter of the live rows, plus
/// 32. (Holes up to the live rows, the old rule, reach 32,768 slots.)
#[test]
fn slot_array_stays_sized_to_its_rows() {
    let bound = 10_000;
    let mut t = Table::records(spec(TraceKind::RuleExec, Some(bound)), TraceKind::RuleExec);
    let row = |cause: u64, now: Time| TraceRow::RuleExec {
        loc: Addr::new("n0"),
        rule: Arc::from("r1"),
        cause,
        effect: cause,
        t_in: now,
        t_out: now,
        is_event: true,
    };
    // The pinned row, cause 0, expires at 120 s.
    t.insert_row(row(0, Time::ZERO), Time::ZERO);
    let (mut cause, mut peak) = (0u64, 0usize);
    for cycle in 0..40u64 {
        let now = Time::from_secs(cycle * 4);
        // Keep the youngest rows and the pinned one: room for the refill.
        let keep_from = (cause + 1).saturating_sub(bound as u64 - 2_501);
        t.delete_where(
            now,
            |r| matches!(r.get(2), Some(Value::Id(c)) if c.0 != 0 && c.0 < keep_from),
        );
        for _ in 0..2_500 {
            cause += 1;
            t.insert_row(row(cause, now), now);
        }
        let live = t.raw_len();
        peak = peak.max(live);
        let (cap, _) = t.ring_shape().expect("still a ring");
        let limit = (peak + peak / 4 + 32).next_power_of_two();
        assert!(
            cap <= limit,
            "capacity {cap} over {limit} (live {live}, peak {peak}) at {now:?}"
        );
        if cycle % 5 == 0 {
            t.assert_sound();
        }
    }
    assert_eq!(peak, bound, "the schedule reaches the bound");
    let (_, _, evictions, expirations, _) = t.counters();
    assert_eq!(
        (evictions, expirations),
        (0, 1),
        "the pinned row expires; none is evicted"
    );
}

/// The dictionary holds only what the live rows name: 10,000 distinct
/// labels and addresses churn through a 100-row ring — some rows built
/// by [`TraceRow::from_tuple`] with a location that is not the ring's
/// node, some labels with an address's text — and through the churn the
/// ring's invariants hold (each dictionary entry counted by exactly the
/// live fields that name it, so no more texts than they name), every
/// outcome and row is general storage's in typed form, and at the end
/// the dictionary holds one entry per text the live rows name.
#[test]
fn texts_churn_through_a_small_ring() {
    for kind in [TraceKind::RuleExec, TraceKind::TupleTable] {
        let spec = spec(kind, Some(100));
        let (mut t, mut m) = (Table::records(spec.clone(), kind), Table::new(spec));
        for i in 0..10_000u64 {
            let now = Time::from_secs(i / 100);
            let text = |j: u64| format!("x{}", (i + j) % 10_000);
            let row = match kind {
                TraceKind::RuleExec => TraceRow::RuleExec {
                    loc: Addr::new(if i % 3 == 0 {
                        "n0".to_string()
                    } else {
                        text(1)
                    }),
                    // Every seventh label is an address text in use.
                    rule: Arc::from(if i % 7 == 0 { text(1) } else { format!("r{i}") }),
                    cause: i % 150,
                    effect: i,
                    t_in: now,
                    t_out: now,
                    is_event: i % 2 == 0,
                },
                TraceKind::TupleTable => TraceRow::TupleTable {
                    loc: Addr::new(if i % 3 == 0 {
                        "n0".to_string()
                    } else {
                        text(0)
                    }),
                    id: i % 150,
                    src: Addr::new(text(2)),
                    src_id: i,
                    dst: Addr::new(text(3)),
                },
            };
            let tuple = row.to_tuple();
            let (got, want) = if i % 2 == 0 {
                let row = TraceRow::from_tuple(&tuple).expect("a trace row's shape");
                (t.insert_row(row, now), m.insert(tuple, now))
            } else {
                (t.insert(tuple.clone(), now), m.insert(tuple, now))
            };
            assert_eq!(outcome(got), outcome(want), "write {i}");
            // A count that leaks stays wrong, so every seventh check
            // sees it.
            if i % 7 == 0 {
                t.assert_sound();
            }
            if i % 97 == 0 {
                assert_eq!(
                    typed(&t.scan(now)),
                    typed(&m.scan(now)),
                    "rows after write {i}"
                );
            }
        }
        let now = Time::from_secs(100);
        let rows = t.scan(now);
        assert_eq!(typed(&rows), typed(&m.scan(now)));
        let named: HashSet<String> = rows
            .iter()
            .flat_map(|r| r.values().iter())
            .filter_map(|v| match v {
                Value::Addr(a) => Some(a.to_string()),
                Value::Str(s) => Some(s.to_string()),
                _ => None,
            })
            .collect();
        let (_, texts) = t.ring_shape().expect("still a ring");
        assert_eq!(
            texts,
            named.len(),
            "{kind:?}: one entry per text the live rows name"
        );
    }
}
