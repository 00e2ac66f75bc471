//! Trace rows as records.
//!
//! The tracer (§2.1) writes two relations, `ruleExec` and `tupleTable`,
//! at a rate far above any application table's. A [`TraceRow`] is one
//! row of either, held as a fixed-size record — the rule label shared,
//! tuple IDs and times as `u64`, addresses as shared [`Addr`]s — rather
//! than as a [`Tuple`] of boxed [`Value`]s. It is how the tracer hands
//! rows to the store, which keeps them in records of its own and builds
//! the tuple only when something reads the row ([`TraceRow::to_tuple`]
//! is that tuple); [`TraceRow::from_tuple`] is the way back for rows
//! that arrive as tuples.

use crate::{Addr, RingId, Time, Tuple, Value};
use std::sync::{Arc, OnceLock};

/// Table name for rule-execution rows.
pub const RULE_EXEC: &str = "ruleExec";
/// Table name for tuple memoization rows.
pub const TUPLE_TABLE: &str = "tupleTable";

/// Which trace relation a record belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// `ruleExec(loc, rule, cause, effect, tIn, tOut, isEvent)`.
    RuleExec,
    /// `tupleTable(loc, id, srcAddr, srcId, dstAddr)`.
    TupleTable,
}

/// The type a trace relation declares for one field position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceField {
    /// A node address ([`Value::Addr`]).
    Addr,
    /// A label ([`Value::Str`]).
    Str,
    /// A tuple ID ([`Value::Id`]).
    Id,
    /// A time ([`Value::Time`]).
    Time,
    /// A flag ([`Value::Bool`]).
    Bool,
}

const RULE_EXEC_FIELDS: [TraceField; 7] = [
    TraceField::Addr,
    TraceField::Str,
    TraceField::Id,
    TraceField::Id,
    TraceField::Time,
    TraceField::Time,
    TraceField::Bool,
];
const TUPLE_TABLE_FIELDS: [TraceField; 5] = [
    TraceField::Addr,
    TraceField::Id,
    TraceField::Addr,
    TraceField::Id,
    TraceField::Addr,
];

impl TraceKind {
    /// The relation's name.
    pub fn relation(self) -> &'static str {
        match self {
            TraceKind::RuleExec => RULE_EXEC,
            TraceKind::TupleTable => TUPLE_TABLE,
        }
    }

    /// The kind whose relation is `name`, if any.
    pub fn of(name: &str) -> Option<TraceKind> {
        match name {
            RULE_EXEC => Some(TraceKind::RuleExec),
            TUPLE_TABLE => Some(TraceKind::TupleTable),
            _ => None,
        }
    }

    /// Number of fields in a row of this relation.
    pub fn arity(self) -> usize {
        self.fields().len()
    }

    /// The declared type of each field, in field order.
    pub fn fields(self) -> &'static [TraceField] {
        match self {
            TraceKind::RuleExec => &RULE_EXEC_FIELDS,
            TraceKind::TupleTable => &TUPLE_TABLE_FIELDS,
        }
    }

    /// A tuple of this relation with `values`. The relation name is
    /// interned once per process: every tuple built from a record of
    /// this kind shares it.
    pub fn tuple(self, values: impl IntoIterator<Item = Value>) -> Tuple {
        static RULE: OnceLock<Arc<str>> = OnceLock::new();
        static TUPLE: OnceLock<Arc<str>> = OnceLock::new();
        let cell = match self {
            TraceKind::RuleExec => &RULE,
            TraceKind::TupleTable => &TUPLE,
        };
        Tuple::with_name(
            cell.get_or_init(|| Arc::from(self.relation())).clone(),
            values,
        )
    }
}

/// One `ruleExec` or `tupleTable` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceRow {
    /// `ruleExec(loc, rule, cause, effect, tIn, tOut, isEvent)`: one
    /// (cause, effect) pair of a rule execution (§2.1.1).
    RuleExec {
        /// The node the row lives on.
        loc: Addr,
        /// The rule's label.
        rule: Arc<str>,
        /// The cause tuple's node-local ID.
        cause: u64,
        /// The effect tuple's node-local ID.
        effect: u64,
        /// When the cause was observed.
        t_in: Time,
        /// When the effect was produced.
        t_out: Time,
        /// Whether the cause is the triggering event (not a precondition).
        is_event: bool,
    },
    /// `tupleTable(loc, id, srcAddr, srcId, dstAddr)`: a tuple ID and,
    /// for tuples that crossed the network, the sender's ID (§2.1.3).
    TupleTable {
        /// The node the row lives on.
        loc: Addr,
        /// The tuple's node-local ID.
        id: u64,
        /// Where the tuple came from.
        src: Addr,
        /// Its ID at `src`.
        src_id: u64,
        /// Where it went.
        dst: Addr,
    },
}

/// One field of a [`TraceRow`], read in place: text for addresses and
/// labels, a number for IDs and times, a flag. Two rows' fields at the
/// same position are equal exactly when their [`Value`]s are, so cells
/// key and compare rows without building values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cell<'a> {
    /// An address or a label.
    Text(&'a str),
    /// An ID or a time.
    Num(u64),
    /// A flag.
    Flag(bool),
}

impl Cell<'_> {
    /// The cell a field of `kind` at position `field` would hold if it
    /// were equal to `v` — `None` when no value stored there can equal
    /// `v`. Follows [`Value`]'s equality: a non-negative `Int` equals
    /// the same ID or time, and a `Str` equals an `Addr` with its text.
    pub fn probe(kind: TraceKind, field: usize, v: &Value) -> Option<Cell<'_>> {
        let ty = *kind.fields().get(field)?;
        match (ty, v) {
            (TraceField::Addr | TraceField::Str, Value::Addr(a)) => Some(Cell::Text(a.as_str())),
            (TraceField::Addr | TraceField::Str, Value::Str(s)) => Some(Cell::Text(s)),
            (TraceField::Id, Value::Id(i)) => Some(Cell::Num(i.0)),
            (TraceField::Time, Value::Time(t)) => Some(Cell::Num(t.0)),
            (TraceField::Id | TraceField::Time, Value::Int(n)) if *n >= 0 => {
                Some(Cell::Num(*n as u64))
            }
            (TraceField::Bool, Value::Bool(b)) => Some(Cell::Flag(*b)),
            _ => None,
        }
    }
}

impl TraceRow {
    /// Which relation the row belongs to.
    pub fn kind(&self) -> TraceKind {
        match self {
            TraceRow::RuleExec { .. } => TraceKind::RuleExec,
            TraceRow::TupleTable { .. } => TraceKind::TupleTable,
        }
    }

    /// The relation's name.
    pub fn relation(&self) -> &'static str {
        self.kind().relation()
    }

    /// Field `i`, read in place.
    pub fn cell(&self, i: usize) -> Option<Cell<'_>> {
        Some(match (self, i) {
            (TraceRow::RuleExec { loc, .. }, 0) => Cell::Text(loc.as_str()),
            (TraceRow::RuleExec { rule, .. }, 1) => Cell::Text(rule),
            (TraceRow::RuleExec { cause, .. }, 2) => Cell::Num(*cause),
            (TraceRow::RuleExec { effect, .. }, 3) => Cell::Num(*effect),
            (TraceRow::RuleExec { t_in, .. }, 4) => Cell::Num(t_in.0),
            (TraceRow::RuleExec { t_out, .. }, 5) => Cell::Num(t_out.0),
            (TraceRow::RuleExec { is_event, .. }, 6) => Cell::Flag(*is_event),
            (TraceRow::TupleTable { loc, .. }, 0) => Cell::Text(loc.as_str()),
            (TraceRow::TupleTable { id, .. }, 1) => Cell::Num(*id),
            (TraceRow::TupleTable { src, .. }, 2) => Cell::Text(src.as_str()),
            (TraceRow::TupleTable { src_id, .. }, 3) => Cell::Num(*src_id),
            (TraceRow::TupleTable { dst, .. }, 4) => Cell::Text(dst.as_str()),
            _ => return None,
        })
    }

    /// Field `i` as the value its tuple would hold.
    pub fn get(&self, i: usize) -> Option<Value> {
        Some(match (self, i) {
            (TraceRow::RuleExec { loc, .. }, 0) => Value::Addr(loc.clone()),
            (TraceRow::RuleExec { rule, .. }, 1) => Value::Str(rule.clone()),
            (TraceRow::RuleExec { cause, .. }, 2) => Value::Id(RingId(*cause)),
            (TraceRow::RuleExec { effect, .. }, 3) => Value::Id(RingId(*effect)),
            (TraceRow::RuleExec { t_in, .. }, 4) => Value::Time(*t_in),
            (TraceRow::RuleExec { t_out, .. }, 5) => Value::Time(*t_out),
            (TraceRow::RuleExec { is_event, .. }, 6) => Value::Bool(*is_event),
            (TraceRow::TupleTable { loc, .. }, 0) => Value::Addr(loc.clone()),
            (TraceRow::TupleTable { id, .. }, 1) => Value::Id(RingId(*id)),
            (TraceRow::TupleTable { src, .. }, 2) => Value::Addr(src.clone()),
            (TraceRow::TupleTable { src_id, .. }, 3) => Value::Id(RingId(*src_id)),
            (TraceRow::TupleTable { dst, .. }, 4) => Value::Addr(dst.clone()),
            _ => return None,
        })
    }

    /// The row as the tuple the relation holds.
    pub fn to_tuple(&self) -> Tuple {
        let kind = self.kind();
        kind.tuple((0..kind.arity()).filter_map(|i| self.get(i)))
    }

    /// The record a tuple of a trace relation makes, when it has that
    /// relation's exact shape (name, arity and field types); `None`
    /// for anything else, which stays a tuple.
    pub fn from_tuple(t: &Tuple) -> Option<TraceRow> {
        let kind = TraceKind::of(t.name())?;
        let v = t.values();
        if v.len() != kind.arity() {
            return None;
        }
        let addr = |i: usize| match &v[i] {
            Value::Addr(a) => Some(a.clone()),
            _ => None,
        };
        let id = |i: usize| match &v[i] {
            Value::Id(r) => Some(r.0),
            _ => None,
        };
        let time = |i: usize| match &v[i] {
            Value::Time(t) => Some(*t),
            _ => None,
        };
        Some(match kind {
            TraceKind::RuleExec => TraceRow::RuleExec {
                loc: addr(0)?,
                rule: match &v[1] {
                    Value::Str(s) => s.clone(),
                    _ => return None,
                },
                cause: id(2)?,
                effect: id(3)?,
                t_in: time(4)?,
                t_out: time(5)?,
                is_event: match &v[6] {
                    Value::Bool(b) => *b,
                    _ => return None,
                },
            },
            TraceKind::TupleTable => TraceRow::TupleTable {
                loc: addr(0)?,
                id: id(1)?,
                src: addr(2)?,
                src_id: id(3)?,
                dst: addr(4)?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether field `i` of `row` equals `v`, by cells alone.
    fn field_is(row: &TraceRow, i: usize, v: &Value) -> bool {
        let probe = Cell::probe(row.kind(), i, v);
        probe.is_some() && probe == row.cell(i)
    }

    fn rule_exec() -> TraceRow {
        TraceRow::RuleExec {
            loc: Addr::new("n1"),
            rule: Arc::from("r1"),
            cause: 2,
            effect: 3,
            t_in: Time(10),
            t_out: Time(12),
            is_event: true,
        }
    }

    #[test]
    fn tuple_round_trip_and_shape() {
        let tt = TraceRow::TupleTable {
            loc: Addr::new("n1"),
            id: 7,
            src: Addr::new("n0"),
            src_id: 4,
            dst: Addr::new("n1"),
        };
        for row in [rule_exec(), tt] {
            let t = row.to_tuple();
            assert_eq!(t.name(), row.relation());
            assert_eq!(t.arity(), row.kind().arity());
            assert_eq!(TraceRow::from_tuple(&t), Some(row.clone()));
            for (i, v) in t.values().iter().enumerate() {
                assert_eq!(row.get(i).as_ref(), Some(v));
                assert!(field_is(&row, i, v));
            }
        }
        assert_eq!(
            rule_exec().to_tuple().to_string(),
            "ruleExec(n1, r1, 0x0000000000000002, 0x0000000000000003, 0.000010s, 0.000012s, true)"
        );
    }

    #[test]
    fn off_shape_tuples_stay_tuples() {
        let t = rule_exec().to_tuple();
        let mut vals = t.values().to_vec();
        vals[2] = Value::Int(2);
        assert_eq!(
            TraceRow::from_tuple(&Tuple::new(RULE_EXEC, vals.clone())),
            None
        );
        assert_eq!(
            TraceRow::from_tuple(&Tuple::new("other", t.values().to_vec())),
            None
        );
        vals.pop();
        assert_eq!(TraceRow::from_tuple(&Tuple::new(RULE_EXEC, vals)), None);
    }

    #[test]
    fn cells_follow_value_equality() {
        let row = rule_exec();
        // An int equals the same id or time; a string equals an address.
        assert!(field_is(&row, 2, &Value::Int(2)));
        assert!(field_is(&row, 4, &Value::Int(10)));
        assert!(field_is(&row, 0, &Value::str("n1")));
        assert!(field_is(&row, 1, &Value::addr("r1")));
        assert!(!field_is(&row, 2, &Value::Int(-2)));
        assert!(!field_is(&row, 2, &Value::Time(Time(2))));
        assert!(!field_is(&row, 6, &Value::Int(1)));
        assert!(!field_is(&row, 9, &Value::Int(1)));
        for (a, b) in [
            (Value::Int(2), Value::Id(RingId(2))),
            (Value::str("n1"), Value::addr("n1")),
        ] {
            assert_eq!(a, b, "the equalities cells follow are Value's own");
        }
    }
}
