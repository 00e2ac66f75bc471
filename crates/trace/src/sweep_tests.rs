//! The new sweep is the old sweep.
//!
//! [`Model`] is the tracer as it stood before the Fx memo and the
//! in-place sweep — four `std` maps and a set, a `gc` that snapshots
//! `ruleExec` through `Catalog::scan` — kept whole as the reference the
//! proptest below runs the real [`Tracer`] against, each over its own
//! catalog — the real one's trace tables keep records, the model's
//! tuples — on random schedules of taps, sends, receives, drains, clock
//! advances and sweeps. Some steps also write `tupleTable` rows straight
//! into both catalogs, carrying IDs the memo dropped or the tracer never
//! assigned, which a sweep must treat as today's does. Rows are compared
//! in typed form ([`typed`]); strand `n` shares its label's text with
//! the node's address, so a label read back as an address differs.

use crate::record::RecordSet;
use crate::tracer::UNREFERENCED_GRACE;
use crate::{TraceConfig, Tracer, RULE_EXEC, TUPLE_TABLE};
use p2_dataflow::{TapEvent, TapKind, TapSink};
use p2_store::{Catalog, SpilledRow};
use p2_types::{Addr, RingId, Time, TimeDelta, TraceRow, Tuple, TupleId, Value};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

struct Model {
    local: Addr,
    records: HashMap<Arc<str>, RecordSet>,
    memo: HashMap<Tuple, TupleId>,
    content: HashMap<TupleId, Tuple>,
    birth: HashMap<TupleId, Time>,
    next_id: u64,
    pending: Vec<Tuple>,
    described: HashSet<TupleId>,
}

impl Model {
    fn new(local: Addr) -> Model {
        Model {
            local,
            records: HashMap::new(),
            memo: HashMap::new(),
            content: HashMap::new(),
            birth: HashMap::new(),
            next_id: 1,
            pending: Vec::new(),
            described: HashSet::new(),
        }
    }

    fn id_of(&mut self, t: &Tuple, now: Time) -> TupleId {
        if let Some(id) = self.memo.get(t) {
            return *id;
        }
        let id = TupleId(self.next_id);
        self.next_id += 1;
        self.memo.insert(t.clone(), id);
        self.content.insert(id, t.clone());
        self.birth.insert(id, now);
        id
    }

    fn tuple_row(&self, id: TupleId, src: &Addr, src_id: TupleId, dst: &Addr) -> Tuple {
        Tuple::new(
            TUPLE_TABLE,
            [
                Value::Addr(self.local.clone()),
                Value::Id(RingId(id.0)),
                Value::Addr(src.clone()),
                Value::Id(RingId(src_id.0)),
                Value::Addr(dst.clone()),
            ],
        )
    }

    fn on_send(&mut self, t: &Tuple, dest: &Addr, now: Time) -> TupleId {
        let id = self.id_of(t, now);
        self.pending.push(self.tuple_row(id, &self.local, id, dest));
        self.described.insert(id);
        id
    }

    fn on_receive(&mut self, t: &Tuple, src: &Addr, src_id: TupleId, now: Time) -> TupleId {
        let id = self.id_of(t, now);
        self.pending
            .push(self.tuple_row(id, src, src_id, &self.local));
        self.described.insert(id);
        id
    }

    fn describe_local(&mut self, id: TupleId) {
        if self.described.insert(id) {
            self.pending
                .push(self.tuple_row(id, &self.local, id, &self.local));
        }
    }

    fn gc(&mut self, catalog: &mut Catalog, now: Time) {
        let mut referenced: HashSet<u64> = HashSet::new();
        for row in catalog.scan(RULE_EXEC, now) {
            for idx in [2usize, 3] {
                if let Some(Value::Id(rid)) = row.get(idx) {
                    referenced.insert(rid.0);
                }
            }
        }
        if let Some(table) = catalog.table_mut(TUPLE_TABLE) {
            let birth = &self.birth;
            table.delete_where(now, |row| match row.get(1) {
                Some(Value::Id(rid)) => {
                    let young = birth
                        .get(&TupleId(rid.0))
                        .is_some_and(|b| *b + UNREFERENCED_GRACE > now);
                    !referenced.contains(&rid.0) && !young
                }
                _ => true,
            });
        }
        let birth = &self.birth;
        let keep = |id: &TupleId| {
            referenced.contains(&id.0)
                || birth.get(id).is_some_and(|b| *b + UNREFERENCED_GRACE > now)
        };
        self.content.retain(|id, _| keep(id));
        self.memo.retain(|_, id| keep(id));
        self.described.retain(keep);
        let content = &self.content;
        self.birth.retain(|id, _| content.contains_key(id));
    }

    fn approx_bytes(&self) -> usize {
        self.content
            .values()
            .map(|t| t.approx_bytes() + 24)
            .sum::<usize>()
            // Queued rows are records now, whatever their model form.
            + self.pending.len() * std::mem::size_of::<TraceRow>()
    }

    fn tap(&mut self, event: TapEvent) {
        let records = self
            .records
            .entry(event.strand_id.clone())
            .or_insert_with(|| RecordSet::new(event.stage_count, 4));
        if records.stage_count() != event.stage_count {
            *records = RecordSet::new(event.stage_count, 4);
        }
        match event.kind {
            TapKind::Input { tuple } => {
                let id = self.id_of(&tuple, event.at);
                self.describe_local(id);
                records_of(&mut self.records, &event.strand_id).observe_input(id, event.at);
            }
            TapKind::Precondition { stage, tuple } => {
                let id = self.id_of(&tuple, event.at);
                self.describe_local(id);
                records_of(&mut self.records, &event.strand_id)
                    .observe_precondition(stage, id, event.at);
            }
            TapKind::StageComplete { stage } => records.observe_stage_complete(stage),
            TapKind::Output { tuple } => {
                let effect = self.id_of(&tuple, event.at);
                self.describe_local(effect);
                let Some(record) = self
                    .records
                    .get(&event.strand_id)
                    .and_then(|rs| rs.record_for_output())
                else {
                    return;
                };
                let mut causes = Vec::new();
                if let Some((cause, t_in)) = record.input {
                    causes.push((cause, t_in, true));
                }
                for pre in record.preconditions.iter().flatten() {
                    causes.push((pre.0, pre.1, false));
                }
                for (cause, t_in, is_event) in causes {
                    self.pending.push(Tuple::new(
                        RULE_EXEC,
                        [
                            Value::Addr(self.local.clone()),
                            Value::str(&*event.rule_label),
                            Value::Id(RingId(cause.0)),
                            Value::Id(RingId(effect.0)),
                            Value::Time(t_in),
                            Value::Time(event.at),
                            Value::Bool(is_event),
                        ],
                    ));
                }
            }
        }
    }
}

fn records_of<'a>(
    records: &'a mut HashMap<Arc<str>, RecordSet>,
    strand: &Arc<str>,
) -> &'a mut RecordSet {
    records.get_mut(strand).expect("just inserted")
}

/// A catalog with the trace tables — kept as records, or as tuples the
/// way the reference tracer's were — `tupleTable` enrolled so the rows
/// it drops (what the archive seals) are observable.
fn trace_catalog(tracer: &Tracer, records: bool) -> Catalog {
    let mut cat = Catalog::new();
    for (spec, kind) in tracer.table_specs() {
        if records {
            cat.register_records(spec, kind).unwrap();
        } else {
            cat.register(spec).unwrap();
        }
    }
    cat.table_mut(TUPLE_TABLE)
        .unwrap()
        .set_archive_enrolled(true);
    cat
}

/// The rows `tupleTable` dropped since the last call, as a multiset: a
/// sweep deletes in the table's own order (write order for records, map
/// order for tuples), so only the set it drops is the sweep's answer.
fn spilled(cat: &mut Catalog) -> Vec<(Time, Time, Vec<String>)> {
    let mut rows: Vec<_> = cat
        .table_mut(TUPLE_TABLE)
        .unwrap()
        .take_spilled()
        .into_iter()
        .map(|r: SpilledRow| (r.dropped_at, r.inserted_at, typed([&r.tuple])))
        .collect();
    rows.sort();
    rows
}

/// Rows as text that tells every value's variant apart: `==` on values
/// and a tuple's own `Debug` both take a string and an address of the
/// same text for one another, each value's `Debug` does not.
fn typed<'a>(rows: impl IntoIterator<Item = &'a Tuple>) -> Vec<String> {
    rows.into_iter()
        .map(|t| format!("{}{:?}", t.name(), t.values()))
        .collect()
}

/// A small pool, so schedules revisit tuples: memo hits, re-description
/// after a sweep, references that outlive and underlive their rows.
fn pool_tuple(n: u64) -> Tuple {
    Tuple::new(
        ["ev", "prec", "head"][(n % 3) as usize],
        [Value::addr("n"), Value::Int((n / 3 % 5) as i64)],
    )
}

proptest! {
    #[test]
    fn prop_sweep_matches_reference_model(
        ops in proptest::collection::vec((0u8..13, 0u64..1000, 0u64..1000), 1..160),
    ) {
        let local = Addr::new("n");
        let peer = Addr::new("z");
        let mut real = Tracer::new(local.clone(), TraceConfig::default());
        let mut model = Model::new(local.clone());
        let mut real_cat = trace_catalog(&real, true);
        let mut model_cat = trace_catalog(&real, false);
        let mut now = Time::ZERO;
        let mut seen: Vec<Tuple> = Vec::new();
        // Every schedule ends drained and swept, so each is compared.
        let finish = [(9u8, 0u64, 0u64), (12, 0, 0)];
        for (op, a, b) in ops.into_iter().chain(finish) {
            let tuple = pool_tuple(a);
            // Strand r1 has one join stage, n two.
            let stages = 1 + (b % 2) as usize;
            let strand: Arc<str> = Arc::from(["r1", "n"][stages - 1]);
            let tap = |kind: TapKind| TapEvent {
                strand_id: strand.clone(),
                rule_label: strand.clone(),
                stage_count: stages,
                kind,
                at: now,
            };
            let stage = (b / 2 % 2) as usize;
            match op {
                0 | 1 => {
                    seen.push(tuple.clone());
                    real.tap(tap(TapKind::Input { tuple: tuple.clone() }));
                    model.tap(tap(TapKind::Input { tuple }));
                }
                2 | 3 => {
                    seen.push(tuple.clone());
                    real.tap(tap(TapKind::Precondition { stage, tuple: tuple.clone() }));
                    model.tap(tap(TapKind::Precondition { stage, tuple }));
                }
                4 => {
                    real.tap(tap(TapKind::StageComplete { stage }));
                    model.tap(tap(TapKind::StageComplete { stage }));
                }
                5 | 6 => {
                    seen.push(tuple.clone());
                    real.tap(tap(TapKind::Output { tuple: tuple.clone() }));
                    model.tap(tap(TapKind::Output { tuple }));
                }
                7 => {
                    seen.push(tuple.clone());
                    prop_assert_eq!(
                        real.on_send(&tuple, &peer, now),
                        model.on_send(&tuple, &peer, now)
                    );
                }
                8 => {
                    seen.push(tuple.clone());
                    prop_assert_eq!(
                        real.on_receive(&tuple, &peer, TupleId(b), now),
                        model.on_receive(&tuple, &peer, TupleId(b), now)
                    );
                }
                9 => {
                    let rows = real.drain_rows();
                    let tuples: Vec<Tuple> = rows.iter().map(TraceRow::to_tuple).collect();
                    prop_assert_eq!(typed(&tuples), typed(&std::mem::take(&mut model.pending)));
                    for (row, tuple) in rows.into_iter().zip(tuples) {
                        real_cat.insert_row(row, now).unwrap();
                        model_cat.insert(tuple, now).unwrap();
                    }
                }
                // 30-s steps, as the harness sweeps: rows and IDs meet
                // their 120-s lifetime and grace on the instant, and
                // pass it.
                10 => now += TimeDelta::from_secs(b % 5 * 30),
                // A row the tracer did not write: its ID may be live in
                // the memo, dropped from it, 0, or not assigned yet.
                11 => {
                    let row = TraceRow::TupleTable {
                        loc: local.clone(),
                        id: b % (model.next_id + 3),
                        src: peer.clone(),
                        src_id: a,
                        dst: local.clone(),
                    };
                    model_cat.insert(row.to_tuple(), now).unwrap();
                    real_cat.insert_row(row, now).unwrap();
                }
                _ => {
                    real.gc(&mut real_cat, now);
                    model.gc(&mut model_cat, now);
                    for name in [RULE_EXEC, TUPLE_TABLE] {
                        prop_assert_eq!(typed(&real_cat.scan(name, now)), typed(&model_cat.scan(name, now)));
                    }
                    prop_assert_eq!(spilled(&mut real_cat), spilled(&mut model_cat));
                    for id in (0..=model.next_id).map(TupleId) {
                        prop_assert_eq!(typed(real.content_of(id)), typed(model.content.get(&id)));
                    }
                    for t in &seen {
                        prop_assert_eq!(real.lookup_id(t), model.memo.get(t).copied());
                    }
                    prop_assert_eq!(real.approx_bytes(), model.approx_bytes());
                }
            }
        }
    }
}
