//! The tracer: tap consumer, tuple memoization, trace-table row source.

use crate::record::RecordSet;
use crate::{RULE_EXEC, TUPLE_TABLE};
use p2_dataflow::{TapEvent, TapKind, TapSink};
use p2_store::hash::{FxHashMap, FxHashSet};
use p2_store::{Catalog, TableSpec};
use p2_types::{Addr, Time, TimeDelta, TraceKind, TraceRow, Tuple, TupleId, Value};
use std::sync::Arc;

/// Lifetime of `ruleExec` rows.
pub const RULE_EXEC_LIFETIME: TimeDelta = TimeDelta::from_secs(120);
/// Row bound of the `ruleExec` table.
pub const RULE_EXEC_MAX_ROWS: usize = 10_000;
/// Row bound of the `tupleTable`.
pub const TUPLE_TABLE_MAX_ROWS: usize = 20_000;
/// Lifetime of `eventLog` rows.
pub const EVENT_LOG_LIFETIME: TimeDelta = TimeDelta::from_secs(120);
/// Row bound of the `eventLog` table.
pub const EVENT_LOG_MAX_ROWS: usize = 10_000;
/// How long an *unreferenced* memoized tuple survives GC. §2.1.3
/// flushes a tuple record when the last referring `ruleExec` row times
/// out; a tuple with no referring row yet must live at least as long as
/// one could still appear, so this is the `ruleExec` lifetime.
pub const UNREFERENCED_GRACE: TimeDelta = RULE_EXEC_LIFETIME;

/// Tracer configuration. The table bounds above are fixed (DESIGN.md
/// §2.3); these two are what callers vary.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Concurrent execution records kept per rule strand ("fixed number
    /// of execution records", §3.4).
    pub records_per_strand: usize,
    /// Also log tuple arrivals and deletions into the `eventLog` table
    /// (§2.1: *"the logging of system events such as arrival of a tuple
    /// or removal of a tuple from a table"*). Off by default: the §4
    /// logging-cost experiment measures execution tracing alone.
    pub log_events: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            records_per_strand: 4,
            log_events: false,
        }
    }
}

/// The per-node execution tracer.
///
/// The node runtime registers it as the tap sink of every strand (when
/// tracing is enabled), notifies it of network sends/receives, and
/// periodically drains [`Tracer::drain_rows`] into the catalog so the
/// trace is queryable from OverLog like any other state.
pub struct Tracer {
    local: Addr,
    config: TraceConfig,
    records: FxHashMap<Arc<str>, RecordSet>,
    /// Content → node-unique ID memoization (§2.1.3: "This ID is used to
    /// memoize the tuple"): the ID, the time it was assigned (which
    /// drives the unreferenced-grace GC), and whether a `tupleTable` row
    /// describes it yet. One probe answers all three. Forensic lookups
    /// by ID walk it ([`Tracer::content_of`], [`Tracer::contents`]).
    memo: FxHashMap<Tuple, Memo>,
    next_id: u64,
    /// Rows awaiting insertion into the catalog, as records.
    pending: Vec<TraceRow>,
}

impl Tracer {
    /// Create a tracer for the node at `local`.
    pub fn new(local: Addr, config: TraceConfig) -> Tracer {
        Tracer {
            local,
            config,
            records: FxHashMap::default(),
            memo: FxHashMap::default(),
            next_id: 1,
            pending: Vec::new(),
        }
    }

    /// The table declarations the tracer needs in the catalog, with the
    /// record kind each table keeps
    /// ([`Catalog::register_records`]). The node runtime registers these
    /// when tracing is enabled.
    pub fn table_specs(&self) -> Vec<(TableSpec, TraceKind)> {
        vec![
            // ruleExec(loc, rule, cause, effect, tIn, tOut, isEvent)
            (
                TableSpec::new(
                    RULE_EXEC,
                    Some(RULE_EXEC_LIFETIME),
                    Some(RULE_EXEC_MAX_ROWS),
                    vec![0, 1, 2, 3, 6],
                ),
                TraceKind::RuleExec,
            ),
            // tupleTable(loc, id, srcAddr, srcId, dstAddr)
            (
                TableSpec::new(TUPLE_TABLE, None, Some(TUPLE_TABLE_MAX_ROWS), vec![0, 1]),
                TraceKind::TupleTable,
            ),
        ]
    }

    /// The one memo probe: `t`'s entry, its ID assigned on first sight,
    /// at `now`.
    fn intern(&mut self, t: Tuple, now: Time) -> &mut Memo {
        self.memo.entry(t).or_insert_with(|| {
            let id = TupleId(self.next_id);
            self.next_id += 1;
            Memo {
                id,
                birth: now,
                described: false,
            }
        })
    }

    /// `t`'s ID, marked as described by a `tupleTable` row, and whether
    /// it already was.
    fn describe(&mut self, t: Tuple, now: Time) -> (TupleId, bool) {
        let entry = self.intern(t, now);
        (entry.id, std::mem::replace(&mut entry.described, true))
    }

    /// The node-local ID of a tuple, assigning one on first sight at
    /// time `now`.
    pub fn id_of(&mut self, t: &Tuple, now: Time) -> TupleId {
        self.intern(t.clone(), now).id
    }

    /// The content of a memoized tuple (forensic traversals resolve
    /// `ruleExec` IDs back to tuples through this). A walk over the
    /// memo: a caller resolving many IDs indexes [`Tracer::contents`]
    /// once instead.
    pub fn content_of(&self, id: TupleId) -> Option<&Tuple> {
        self.contents().find(|(i, _)| *i == id).map(|(_, t)| t)
    }

    /// Every memoized tuple with its ID, in no particular order.
    pub fn contents(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.memo.iter().map(|(t, m)| (m.id, t))
    }

    /// The ID of an already-memoized tuple, without assigning one.
    pub fn lookup_id(&self, t: &Tuple) -> Option<TupleId> {
        self.memo.get(t).map(|m| m.id)
    }

    /// Queue the `tupleTable` row `(id, src, src_id, dst)`.
    fn push_tuple_row(&mut self, id: TupleId, src: Addr, src_id: TupleId, dst: Addr) {
        self.pending.push(TraceRow::TupleTable {
            loc: self.local.clone(),
            id: id.0,
            src,
            src_id: src_id.0,
            dst,
        });
    }

    /// Record that `t` was sent to `dest`: sender-side `tupleTable` row
    /// `(id, self, id, dest)` — the paper's `tupleTable@n(o1, n, o1, z)`.
    ///
    /// Returns the sender-local ID, which the network envelope carries so
    /// the receiver can correlate (§2.1.3).
    pub fn on_send(&mut self, t: &Tuple, dest: &Addr, now: Time) -> TupleId {
        let (id, _) = self.describe(t.clone(), now);
        self.push_tuple_row(id, self.local.clone(), id, dest.clone());
        id
    }

    /// Record that `t` arrived from `src` where it had ID `src_id`:
    /// receiver-side row `(d1, src, src_id, self)` — the paper's
    /// `tupleTable@z(d1, n, o1, z)`. Returns the fresh local ID.
    pub fn on_receive(&mut self, t: &Tuple, src: &Addr, src_id: TupleId, now: Time) -> TupleId {
        let (id, _) = self.describe(t.clone(), now);
        self.push_tuple_row(id, src.clone(), src_id, self.local.clone());
        id
    }

    /// The ID of a tapped tuple, describing it in the `tupleTable` (src
    /// = dst = self) the first time. Local rows let forensic walks (§3.2)
    /// uniformly join `tupleTable` to decide whether a hop crossed the
    /// network.
    fn describe_local(&mut self, t: Tuple, now: Time) -> TupleId {
        let (id, described) = self.describe(t, now);
        if !described {
            self.push_tuple_row(id, self.local.clone(), id, self.local.clone());
        }
        id
    }

    /// Keep only the execution records of strands `installed` accepts;
    /// the node calls this on uninstall. Without it a re-installed
    /// program whose strand ids and stage counts match would resume the
    /// half-filled records its previous incarnation left, and
    /// install/uninstall churn would leak one record set per strand.
    pub fn retain_strands(&mut self, mut installed: impl FnMut(&str) -> bool) {
        self.records.retain(|id, _| installed(id));
    }

    /// How many strands hold execution records.
    pub fn tracked_strands(&self) -> usize {
        self.records.len()
    }

    /// Take the accumulated `ruleExec`/`tupleTable` rows, as records.
    /// The node runtime inserts them into the catalog (insertions into
    /// these tables fire delta rules like any other, which is what makes
    /// higher-order tracing queries possible — but executions of strands
    /// *triggered by* trace tables are themselves untraced, preventing
    /// the obvious regress; the runtime enforces that).
    pub fn drain_rows(&mut self) -> Vec<TraceRow> {
        std::mem::take(&mut self.pending)
    }

    /// Number of rows waiting to be drained.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Reference-count sweep (§2.1.3): drop `tupleTable` rows (and the
    /// memoization entries behind them) whose IDs are no longer
    /// referenced by any live `ruleExec` row. Runs periodically from the
    /// node runtime.
    pub fn gc(&mut self, catalog: &mut Catalog, now: Time) {
        // Mark: the IDs live `ruleExec` rows name, read in place.
        let mut referenced: FxHashSet<u64> = FxHashSet::default();
        if let Some(table) = catalog.table_mut(RULE_EXEC) {
            table.for_each_live(now, |row| {
                for idx in [2usize, 3] {
                    if let Some(Value::Id(rid)) = row.get(idx) {
                        referenced.insert(rid.0);
                    }
                }
            });
        }
        // Sweep the table and, in step with it, the memo — but keep young
        // unreferenced entries: a referring ruleExec row (or a forensic
        // walk) may still arrive for them. A row whose ID is not young
        // in the memo (dropped, or never assigned here) goes unless
        // referenced.
        let young = |m: &Memo| m.birth + UNREFERENCED_GRACE > now;
        let young_ids: FxHashSet<u64> = self
            .memo
            .values()
            .filter(|m| young(m))
            .map(|m| m.id.0)
            .collect();
        if let Some(table) = catalog.table_mut(TUPLE_TABLE) {
            table.delete_where(now, |row| match row.get(1) {
                Some(Value::Id(rid)) => !referenced.contains(&rid.0) && !young_ids.contains(&rid.0),
                _ => true,
            });
        }
        self.memo
            .retain(|_, m| referenced.contains(&m.id.0) || young(m));
    }

    /// Approximate memory footprint of tracer-internal state in bytes
    /// (counted into the node's memory metric; the paper's §4 logging
    /// cost includes this).
    pub fn approx_bytes(&self) -> usize {
        self.memo
            .keys()
            .map(|t| t.approx_bytes() + 24)
            .sum::<usize>()
            + self.pending.len() * std::mem::size_of::<TraceRow>()
    }
}

impl TapSink for Tracer {
    fn tap(&mut self, event: TapEvent) {
        let TapEvent {
            strand_id,
            rule_label,
            stage_count,
            kind,
            at,
        } = event;
        // The tuple's ID first, then the strand's records, probed once.
        let tapped = match kind {
            TapKind::Input { tuple } => Tapped::Input(self.describe_local(tuple, at)),
            TapKind::Precondition { stage, tuple } => {
                Tapped::Precondition(stage, self.describe_local(tuple, at))
            }
            TapKind::StageComplete { stage } => Tapped::StageComplete(stage),
            TapKind::Output { tuple } => Tapped::Output(self.describe_local(tuple, at)),
        };
        let per_strand = self.config.records_per_strand;
        let records = self
            .records
            .entry(strand_id)
            .or_insert_with(|| RecordSet::new(stage_count, per_strand));
        if records.stage_count() != stage_count {
            // Same strand id, different plan shape: the program was
            // re-installed after a planner change (e.g. join reordering at
            // a different optimization level). Stale records would index
            // preconditions out of bounds — start fresh.
            *records = RecordSet::new(stage_count, per_strand);
        }
        match tapped {
            Tapped::Input(id) => records.observe_input(id, at),
            Tapped::Precondition(stage, id) => records.observe_precondition(stage, id, at),
            Tapped::StageComplete(stage) => records.observe_stage_complete(stage),
            Tapped::Output(effect) => {
                let Some(record) = records.record_for_output() else {
                    return;
                };
                let event = record.input.map(|(cause, t_in)| (cause, t_in, true));
                let preconditions = record.preconditions.iter().flatten();
                for (cause, t_in, is_event) in event
                    .into_iter()
                    .chain(preconditions.map(|pre| (pre.0, pre.1, false)))
                {
                    self.pending.push(TraceRow::RuleExec {
                        loc: self.local.clone(),
                        rule: rule_label.clone(),
                        cause: cause.0,
                        effect: effect.0,
                        t_in,
                        t_out: at,
                        is_event,
                    });
                }
            }
        }
    }
}

/// A memoized tuple's ID, when it was assigned, and whether a
/// `tupleTable` row describes it yet.
struct Memo {
    id: TupleId,
    birth: Time,
    described: bool,
}

/// A [`TapKind`] whose tuple has been exchanged for its ID.
enum Tapped {
    Input(TupleId),
    Precondition(usize, TupleId),
    StageComplete(usize),
    Output(TupleId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_types::RingId;

    fn drain(tr: &mut Tracer) -> Vec<Tuple> {
        tr.drain_rows().iter().map(TraceRow::to_tuple).collect()
    }

    fn tap(tracer: &mut Tracer, strand: &str, stages: usize, at: u64, kind: TapKind) {
        tracer.tap(TapEvent {
            strand_id: Arc::from(strand),
            rule_label: Arc::from(strand),
            stage_count: stages,
            kind,
            at: Time(at),
        });
    }

    fn tup(name: &str, x: i64) -> Tuple {
        Tuple::new(name, [Value::addr("n"), Value::Int(x)])
    }

    #[test]
    fn paper_worked_example_two_rows() {
        // §2.1.1: rule r1 with event event@n(y), precondition prec@n(z),
        // output head@z(y) yields exactly two ruleExec rows sharing the
        // effect, one is_event=true and one false.
        let mut tr = Tracer::new(Addr::new("n"), TraceConfig::default());
        let ev = tup("event", 1);
        let prec = tup("prec", 2);
        let head = tup("head", 1);
        tap(&mut tr, "r1", 1, 10, TapKind::Input { tuple: ev.clone() });
        tap(
            &mut tr,
            "r1",
            1,
            11,
            TapKind::Precondition {
                stage: 0,
                tuple: prec.clone(),
            },
        );
        tap(
            &mut tr,
            "r1",
            1,
            12,
            TapKind::Output {
                tuple: head.clone(),
            },
        );
        let rows = drain(&mut tr);
        let execs: Vec<&Tuple> = rows.iter().filter(|r| r.name() == RULE_EXEC).collect();
        assert_eq!(execs.len(), 2);
        let ev_row = execs
            .iter()
            .find(|r| r.get(6) == Some(&Value::Bool(true)))
            .unwrap();
        let pre_row = execs
            .iter()
            .find(|r| r.get(6) == Some(&Value::Bool(false)))
            .unwrap();
        // Same effect ID, different causes; times are (ts, te) and (ti, te).
        assert_eq!(ev_row.get(3), pre_row.get(3));
        assert_ne!(ev_row.get(2), pre_row.get(2));
        assert_eq!(ev_row.get(4), Some(&Value::Time(Time(10))));
        assert_eq!(ev_row.get(5), Some(&Value::Time(Time(12))));
        assert_eq!(pre_row.get(4), Some(&Value::Time(Time(11))));
        // Local tupleTable rows were generated for all three tuples.
        let tts: Vec<&Tuple> = rows.iter().filter(|r| r.name() == TUPLE_TABLE).collect();
        assert_eq!(tts.len(), 3);
    }

    #[test]
    fn memoization_is_stable() {
        let mut tr = Tracer::new(Addr::new("n"), TraceConfig::default());
        let a = tup("x", 1);
        let id1 = tr.id_of(&a, Time::ZERO);
        let id2 = tr.id_of(&tup("x", 1), Time::ZERO);
        assert_eq!(id1, id2);
        assert_ne!(tr.id_of(&tup("x", 2), Time::ZERO), id1);
        assert_eq!(tr.content_of(id1), Some(&a));
    }

    #[test]
    fn send_receive_rows_match_paper_shapes() {
        // Sender n: (o1, n, o1, z); receiver z: (d1, n, o1, z).
        let mut sender = Tracer::new(Addr::new("n"), TraceConfig::default());
        let t = tup("msg", 9);
        let o1 = sender.on_send(&t, &Addr::new("z"), Time::ZERO);
        let row = drain(&mut sender).pop().unwrap();
        assert_eq!(row.name(), TUPLE_TABLE);
        assert_eq!(row.get(0), Some(&Value::addr("n")));
        assert_eq!(row.get(1), Some(&Value::Id(RingId(o1.0))));
        assert_eq!(row.get(2), Some(&Value::addr("n")));
        assert_eq!(row.get(4), Some(&Value::addr("z")));

        let mut receiver = Tracer::new(Addr::new("z"), TraceConfig::default());
        let d1 = receiver.on_receive(&t, &Addr::new("n"), o1, Time::ZERO);
        let row = drain(&mut receiver).pop().unwrap();
        assert_eq!(row.get(0), Some(&Value::addr("z")));
        assert_eq!(row.get(1), Some(&Value::Id(RingId(d1.0))));
        assert_eq!(row.get(2), Some(&Value::addr("n")));
        assert_eq!(row.get(3), Some(&Value::Id(RingId(o1.0))));
        assert_eq!(row.get(4), Some(&Value::addr("z")));
    }

    #[test]
    fn gc_drops_unreferenced_tuple_rows() {
        let mut tr = Tracer::new(Addr::new("n"), TraceConfig::default());
        let mut cat = Catalog::new();
        for (spec, kind) in tr.table_specs() {
            cat.register_records(spec, kind).unwrap();
        }
        // A full execution: rows flow into the catalog.
        tap(
            &mut tr,
            "r1",
            1,
            0,
            TapKind::Input {
                tuple: tup("event", 1),
            },
        );
        tap(
            &mut tr,
            "r1",
            1,
            1,
            TapKind::Precondition {
                stage: 0,
                tuple: tup("prec", 2),
            },
        );
        tap(
            &mut tr,
            "r1",
            1,
            2,
            TapKind::Output {
                tuple: tup("head", 3),
            },
        );
        // And one orphan tuple described via send but never referenced.
        tr.on_send(&tup("orphan", 9), &Addr::new("z"), Time::ZERO);
        for row in tr.drain_rows() {
            cat.insert_row(row, Time::ZERO).unwrap();
        }
        assert_eq!(cat.scan(TUPLE_TABLE, Time::ZERO).len(), 4);
        // Young unreferenced entries survive the grace window (a
        // referring row or a forensic walk may still arrive)...
        tr.gc(&mut cat, Time::ZERO);
        assert_eq!(cat.scan(TUPLE_TABLE, Time::ZERO).len(), 4);
        // ...but past the grace (and with the ruleExec rows still live),
        // only the referenced ones remain.
        let mid = Time::from_secs(121);
        // Keep the ruleExec rows alive by refreshing them.
        for row in cat.scan(RULE_EXEC, Time::ZERO) {
            cat.insert(row, mid).unwrap();
        }
        tr.gc(&mut cat, mid);
        assert_eq!(
            cat.scan(TUPLE_TABLE, mid).len(),
            3,
            "orphan must be dropped"
        );
        // After the ruleExec rows expire too, everything is collected.
        let later = Time::from_secs(10_000);
        tr.gc(&mut cat, later);
        assert_eq!(cat.scan(TUPLE_TABLE, later).len(), 0);
        assert_eq!(tr.approx_bytes(), 0);
    }

    #[test]
    fn gc_keeps_a_row_only_for_a_young_or_referenced_id() {
        // Rows no tap wrote: an ID the memo dropped, a young one, one
        // never assigned, and 0. Only the young one outlives the sweep.
        let mut tr = Tracer::new(Addr::new("n"), TraceConfig::default());
        let mut cat = Catalog::new();
        for (spec, kind) in tr.table_specs() {
            cat.register_records(spec, kind).unwrap();
        }
        let dropped = tr.id_of(&tup("old", 1), Time::ZERO);
        let now = Time::from_secs(200);
        tr.gc(&mut cat, now);
        assert_eq!(tr.lookup_id(&tup("old", 1)), None);
        assert_eq!(tr.content_of(dropped), None);
        let young = tr.id_of(&tup("young", 2), now);
        for id in [dropped.0, young.0, young.0 + 10, 0] {
            let n = Addr::new("n");
            let row = TraceRow::TupleTable {
                loc: n.clone(),
                id,
                src: n.clone(),
                src_id: id,
                dst: n,
            };
            cat.insert_row(row, now).unwrap();
        }
        tr.gc(&mut cat, now);
        let ids: Vec<Option<Value>> = cat
            .scan(TUPLE_TABLE, now)
            .iter()
            .map(|r| r.get(1).cloned())
            .collect();
        assert_eq!(ids, vec![Some(Value::Id(RingId(young.0)))]);
        assert_eq!(tr.content_of(young), Some(&tup("young", 2)));
    }

    #[test]
    fn output_without_record_is_dropped() {
        // §3.4 "only store executions that produce a valid output" — and
        // symmetrically, an output with no observed input records nothing.
        let mut tr = Tracer::new(Addr::new("n"), TraceConfig::default());
        tap(
            &mut tr,
            "r1",
            1,
            0,
            TapKind::Output {
                tuple: tup("head", 1),
            },
        );
        let execs: Vec<Tuple> = drain(&mut tr)
            .into_iter()
            .filter(|r| r.name() == RULE_EXEC)
            .collect();
        assert!(execs.is_empty());
    }

    #[test]
    fn pipelined_two_events_attribute_correctly() {
        // The Figure 3 interleaving at tracer level, end to end.
        let mut tr = Tracer::new(Addr::new("n"), TraceConfig::default());
        let e1 = tup("ev", 1);
        let e2 = tup("ev", 2);
        tap(&mut tr, "r2", 2, 0, TapKind::Input { tuple: e1.clone() });
        tap(
            &mut tr,
            "r2",
            2,
            1,
            TapKind::Precondition {
                stage: 0,
                tuple: tup("p1", 1),
            },
        );
        tap(&mut tr, "r2", 2, 2, TapKind::StageComplete { stage: 0 });
        tap(&mut tr, "r2", 2, 3, TapKind::Input { tuple: e2.clone() });
        tap(
            &mut tr,
            "r2",
            2,
            4,
            TapKind::Precondition {
                stage: 1,
                tuple: tup("p2", 1),
            },
        );
        tap(&mut tr, "r2", 2, 5, TapKind::Output { tuple: tup("h", 1) });
        tap(&mut tr, "r2", 2, 6, TapKind::StageComplete { stage: 1 });
        tap(
            &mut tr,
            "r2",
            2,
            7,
            TapKind::Precondition {
                stage: 0,
                tuple: tup("p1", 2),
            },
        );
        tap(&mut tr, "r2", 2, 8, TapKind::StageComplete { stage: 0 });
        tap(
            &mut tr,
            "r2",
            2,
            9,
            TapKind::Precondition {
                stage: 1,
                tuple: tup("p2", 2),
            },
        );
        tap(&mut tr, "r2", 2, 10, TapKind::Output { tuple: tup("h", 2) });
        let rows: Vec<Tuple> = drain(&mut tr)
            .into_iter()
            .filter(|r| r.name() == RULE_EXEC)
            .collect();
        // 3 rows per output (event + 2 preconditions).
        assert_eq!(rows.len(), 6);
        // The first output's event-cause is e1, the second's is e2.
        // IDs are tracer-local; compare via time fields instead.
        let first_event_row = &rows[0];
        assert_eq!(first_event_row.get(4), Some(&Value::Time(Time(0)))); // e1 seen at 0
        let second_event_row = rows
            .iter()
            .filter(|r| r.get(6) == Some(&Value::Bool(true)))
            .nth(1)
            .unwrap();
        assert_eq!(second_event_row.get(4), Some(&Value::Time(Time(3)))); // e2 seen at 3
    }
}
