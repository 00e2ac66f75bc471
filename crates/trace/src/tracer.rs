//! The tracer: tap consumer, tuple memoization, trace-table row source.

use crate::record::RecordSet;
use crate::{RULE_EXEC, TUPLE_TABLE};
use p2_dataflow::{TapEvent, TapKind, TapSink};
use p2_store::hash::{FxHashMap, FxHashSet};
use p2_store::Catalog;
use p2_types::{Addr, RingId, Time, TimeDelta, Tuple, TupleId, Value};
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
    /// memoize the tuple"), and whether a `tupleTable` row describes the
    /// ID yet: one probe answers both.
    memo: FxHashMap<Tuple, (TupleId, bool)>,
    /// Reverse map, serving content lookups during forensic traversals,
    /// with the time each ID was first memoized (drives the
    /// unreferenced-grace GC).
    content: FxHashMap<TupleId, (Tuple, Time)>,
    next_id: u64,
    /// Rows awaiting insertion into the catalog.
    pending: Vec<Tuple>,
    /// The two relation names, interned once: every row shares them.
    rule_exec: Arc<str>,
    tuple_table: Arc<str>,
}

impl Tracer {
    /// Create a tracer for the node at `local`.
    pub fn new(local: Addr, config: TraceConfig) -> Tracer {
        Tracer {
            local,
            config,
            records: FxHashMap::default(),
            memo: FxHashMap::default(),
            content: FxHashMap::default(),
            next_id: 1,
            pending: Vec::new(),
            rule_exec: Arc::from(RULE_EXEC),
            tuple_table: Arc::from(TUPLE_TABLE),
        }
    }

    /// The table declarations the tracer needs in the catalog. The node
    /// runtime registers these when tracing is enabled.
    pub fn table_specs(&self) -> Vec<p2_store::TableSpec> {
        vec![
            // ruleExec(loc, rule, cause, effect, tIn, tOut, isEvent)
            p2_store::TableSpec::new(
                RULE_EXEC,
                Some(RULE_EXEC_LIFETIME),
                Some(RULE_EXEC_MAX_ROWS),
                vec![0, 1, 2, 3, 6],
            ),
            // tupleTable(loc, id, srcAddr, srcId, dstAddr)
            p2_store::TableSpec::new(TUPLE_TABLE, None, Some(TUPLE_TABLE_MAX_ROWS), vec![0, 1]),
        ]
    }

    /// The one memo probe: `t`'s ID (assigned on first sight, at `now`)
    /// and the described flag to read or set.
    fn intern(&mut self, t: Tuple, now: Time) -> &mut (TupleId, bool) {
        self.memo.entry(t).or_insert_with_key(|t| {
            let id = TupleId(self.next_id);
            self.next_id += 1;
            self.content.insert(id, (t.clone(), now));
            (id, false)
        })
    }

    /// `t`'s ID, marked as described by a `tupleTable` row, and whether
    /// it already was.
    fn describe(&mut self, t: Tuple, now: Time) -> (TupleId, bool) {
        let entry = self.intern(t, now);
        (entry.0, std::mem::replace(&mut entry.1, true))
    }

    /// The node-local ID of a tuple, assigning one on first sight at
    /// time `now`.
    pub fn id_of(&mut self, t: &Tuple, now: Time) -> TupleId {
        self.intern(t.clone(), now).0
    }

    /// The content of a memoized tuple (forensic traversals resolve
    /// `ruleExec` IDs back to tuples through this).
    pub fn content_of(&self, id: TupleId) -> Option<&Tuple> {
        self.content.get(&id).map(|(t, _)| t)
    }

    /// The ID of an already-memoized tuple, without assigning one.
    pub fn lookup_id(&self, t: &Tuple) -> Option<TupleId> {
        self.memo.get(t).map(|(id, _)| *id)
    }

    /// Queue the `tupleTable` row `(id, src, src_id, dst)`.
    fn push_tuple_row(&mut self, id: TupleId, src: Addr, src_id: TupleId, dst: Addr) {
        self.pending.push(Tuple::with_name(
            self.tuple_table.clone(),
            [
                Value::Addr(self.local.clone()),
                Value::Id(RingId(id.0)),
                Value::Addr(src),
                Value::Id(RingId(src_id.0)),
                Value::Addr(dst),
            ],
        ));
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

    /// Take the accumulated `ruleExec`/`tupleTable` rows. The node
    /// runtime inserts them into the catalog (insertions into these
    /// tables fire delta rules like any other, which is what makes
    /// higher-order tracing queries possible — but executions of strands
    /// *triggered by* trace tables are themselves untraced, preventing
    /// the obvious regress; the runtime enforces that).
    pub fn drain_rows(&mut self) -> Vec<Tuple> {
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
        // Sweep the table and, in step with it, the memoization maps —
        // but keep young unreferenced entries: a referring ruleExec row
        // (or a forensic walk) may still arrive for them.
        let young = |birth: Time| birth + UNREFERENCED_GRACE > now;
        let content = &mut self.content;
        if let Some(table) = catalog.table_mut(TUPLE_TABLE) {
            table.delete_where(now, |row| match row.get(1) {
                Some(Value::Id(rid)) => {
                    !referenced.contains(&rid.0)
                        && !content
                            .get(&TupleId(rid.0))
                            .is_some_and(|(_, birth)| young(*birth))
                }
                _ => true,
            });
        }
        content.retain(|id, (_, birth)| referenced.contains(&id.0) || young(*birth));
        self.memo.retain(|_, (id, _)| content.contains_key(id));
    }

    /// Approximate memory footprint of tracer-internal state in bytes
    /// (counted into the node's memory metric; the paper's §4 logging
    /// cost includes this).
    pub fn approx_bytes(&self) -> usize {
        self.content
            .values()
            .map(|(t, _)| t.approx_bytes() + 24)
            .sum::<usize>()
            + self.pending.iter().map(|t| t.approx_bytes()).sum::<usize>()
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
                    self.pending.push(Tuple::with_name(
                        self.rule_exec.clone(),
                        [
                            Value::Addr(self.local.clone()),
                            Value::Str(rule_label.clone()),
                            Value::Id(RingId(cause.0)),
                            Value::Id(RingId(effect.0)),
                            Value::Time(t_in),
                            Value::Time(at),
                            Value::Bool(is_event),
                        ],
                    ));
                }
            }
        }
    }
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
        let rows = tr.drain_rows();
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
        let row = sender.drain_rows().pop().unwrap();
        assert_eq!(row.name(), TUPLE_TABLE);
        assert_eq!(row.get(0), Some(&Value::addr("n")));
        assert_eq!(row.get(1), Some(&Value::Id(RingId(o1.0))));
        assert_eq!(row.get(2), Some(&Value::addr("n")));
        assert_eq!(row.get(4), Some(&Value::addr("z")));

        let mut receiver = Tracer::new(Addr::new("z"), TraceConfig::default());
        let d1 = receiver.on_receive(&t, &Addr::new("n"), o1, Time::ZERO);
        let row = receiver.drain_rows().pop().unwrap();
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
        for spec in tr.table_specs() {
            cat.register(spec).unwrap();
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
            cat.insert(row, Time::ZERO).unwrap();
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
        let execs: Vec<Tuple> = tr
            .drain_rows()
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
        let rows: Vec<Tuple> = tr
            .drain_rows()
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
