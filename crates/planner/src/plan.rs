//! The plan intermediate representation.
//!
//! A [`CompiledProgram`] is everything the node runtime needs to
//! instantiate a program: table declarations, ground facts, timers, and
//! rule strands. Strands are pure data — the dataflow engine walks their
//! [`Op`]s; nothing here executes.

use crate::expr::PExpr;
use p2_overlog::AggFunc;
use p2_types::Value;

/// A fully compiled program, ready to install on a node.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    /// Tables to register (0-based key fields).
    pub tables: Vec<TableDecl>,
    /// Ground facts to inject at install time.
    pub facts: Vec<p2_types::Tuple>,
    /// Rule strands, in source order (one rule may yield several).
    pub strands: Vec<Strand>,
    /// Secondary indexes the strands' join probes want: `(table, field)`
    /// pairs, deduplicated and sorted. The runtime registers each with
    /// the catalog at install time so every `scan_eq` on these fields is
    /// an index probe from the first firing (tables the program doesn't
    /// declare — e.g. a monitoring query over the base application's
    /// tables — are still covered: registration happens against the
    /// installing node's catalog, which already holds them).
    pub index_requests: Vec<(String, usize)>,
    /// Shared-prefix strand families found by the optimizer (empty at
    /// `OptLevel::Off`). Members are indexes into `strands`; the runtime
    /// instantiates each group as one dataflow strand whose prefix runs
    /// once per trigger and whose member tails fan out per result.
    pub prefix_groups: Vec<PrefixGroup>,
    /// Plan-time warnings (dead rules, never-boolean selections). The
    /// program still installs; these exist so an operator hears about a
    /// rule that silently drops every tuple *before* paying for it at
    /// runtime.
    pub diagnostics: Vec<Diagnostic>,
}

/// A family of strands sharing one dataflow prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixGroup {
    /// Indexes into [`CompiledProgram::strands`], ascending. The first
    /// member is the representative whose prefix ops instantiate the
    /// shared stages.
    pub members: Vec<usize>,
    /// How many leading ops (up to and including the last join) are
    /// shared. Every member's remaining ops are stateless.
    pub shared_ops: usize,
}

/// A plan-time warning attached to one strand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`P2W501` dead rule, `P2W502` non-boolean
    /// selection) — the same namespace as the front end's
    /// `p2_overlog::diag` codes, so the two channels merge cleanly.
    pub code: &'static str,
    /// The strand the warning is about.
    pub strand_id: String,
    /// Human-readable message.
    pub message: String,
}

/// Runtime form of a `materialize` declaration (keys shifted to 0-based).
#[derive(Debug, Clone, PartialEq)]
pub struct TableDecl {
    /// Relation name.
    pub name: String,
    /// Lifetime in seconds; `None` = infinity.
    pub lifetime_secs: Option<f64>,
    /// Max row count; `None` = infinity.
    pub max_rows: Option<usize>,
    /// 0-based key field indexes.
    pub key_fields: Vec<usize>,
}

/// What fires a strand.
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// A transient event tuple with this relation name arrives.
    Event {
        /// Event relation name.
        name: String,
    },
    /// A tuple was inserted into (or replaced in) this materialized table.
    TableInsert {
        /// Table name.
        name: String,
    },
    /// A private timer fires every `period_secs` (the `periodic@N(E, T)`
    /// built-in; Figure 4 measures exactly these). The runtime
    /// synthesizes the event tuple `(local_addr, nonce, period)`.
    Periodic {
        /// Timer period, seconds.
        period_secs: f64,
    },
}

impl Trigger {
    /// Relation name the runtime dispatches on (`periodic` for timers).
    pub fn dispatch_name(&self) -> &str {
        match self {
            Trigger::Event { name } | Trigger::TableInsert { name } => name,
            Trigger::Periodic { .. } => "periodic",
        }
    }
}

/// How one field of an incoming/probed tuple is treated by a match.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldMatch {
    /// First occurrence of a variable: bind the field value to the slot.
    Bind(usize),
    /// Variable already bound: the field must equal the slot's value.
    EqVar(usize),
    /// The field must equal this constant.
    EqConst(Value),
    /// The field must equal the value of this expression (evaluated
    /// against the current environment).
    EqExpr(PExpr),
    /// Wildcard `_` or a deliberately ignored field.
    Ignore,
}

/// A predicate occurrence compiled to field matches. Matching is strict
/// on arity: a tuple matches only if it has exactly `fields.len()` fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatchSpec {
    /// Per-field treatment, location field first.
    pub fields: Vec<FieldMatch>,
}

impl MatchSpec {
    /// Apply the match to a tuple against an environment. On success the
    /// environment is extended with new bindings and `true` is returned;
    /// on mismatch the environment is left with partial bindings and
    /// `false` is returned (callers clone or re-seed per attempt).
    pub fn apply(
        &self,
        tuple: &p2_types::Tuple,
        env: &mut [Option<Value>],
        ctx: &mut dyn crate::expr::EvalCtx,
    ) -> Result<bool, crate::expr::EvalError> {
        if tuple.arity() != self.fields.len() {
            return Ok(false);
        }
        for (i, fm) in self.fields.iter().enumerate() {
            let Some(v) = tuple.get(i) else {
                return Ok(false);
            };
            match fm {
                FieldMatch::Bind(slot) => env[*slot] = Some(v.clone()),
                FieldMatch::EqVar(slot) => match &env[*slot] {
                    Some(bound) if bound == v => {}
                    _ => return Ok(false),
                },
                FieldMatch::EqConst(c) => {
                    if c != v {
                        return Ok(false);
                    }
                }
                FieldMatch::EqExpr(e) => {
                    let want = crate::expr::eval(e, env, ctx)?;
                    if &want != v {
                        return Ok(false);
                    }
                }
                FieldMatch::Ignore => {}
            }
        }
        Ok(true)
    }

    /// The field to probe on for an indexed scan: the first equality
    /// field **beyond the location** when one exists — field 0 is the
    /// node's own address on every local row, so probing it has zero
    /// selectivity — falling back to the location, then `None` (full
    /// scan) when every field binds or ignores.
    pub fn probe_field(&self) -> Option<usize> {
        let eq = |f: &FieldMatch| matches!(f, FieldMatch::EqVar(_) | FieldMatch::EqConst(_));
        self.fields
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, f)| eq(f))
            .map(|(i, _)| i)
            .or_else(|| self.fields.first().filter(|f| eq(f)).map(|_| 0))
    }
}

/// A strand operator (one per body term, in execution order).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Probe a materialized table; one output binding per matching row.
    /// This is a **stateful stage boundary** for pipelined execution and
    /// a *precondition tap* for the tracer (§2.1.1).
    Join {
        /// Table to probe.
        table: String,
        /// Field matches.
        match_spec: MatchSpec,
    },
    /// Range over the epoch-segmented archive of `table`: one output
    /// binding per archived (or still-live) row whose validity interval
    /// overlaps `[t0, t1]`. Lowered from a `past@N("rel", T0, T1, ...)`
    /// body predicate. Like [`Op::Join`] this is a **stateful stage
    /// boundary**; unlike a join it never consults the probe cache or
    /// the secondary indexes — segment headers prune the scan instead.
    ArchiveScan {
        /// Archived relation to scan.
        table: String,
        /// Inclusive lower bound of the query interval (virtual time).
        t0: PExpr,
        /// Inclusive upper bound of the query interval.
        t1: PExpr,
        /// Field matches applied to each archived tuple.
        match_spec: MatchSpec,
    },
    /// Filter: keep the binding iff the expression is true.
    Select(PExpr),
    /// Bind a slot to the value of an expression.
    Assign {
        /// Target slot.
        slot: usize,
        /// Defining expression.
        expr: PExpr,
    },
}

/// One output field of the head.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldOut {
    /// Copy a slot.
    Slot(usize),
    /// Emit a constant.
    Const(Value),
    /// Evaluate an expression.
    Expr(PExpr),
    /// Placeholder where the aggregate result goes.
    Agg,
}

/// Aggregate plan for aggregate rules.
#[derive(Debug, Clone, PartialEq)]
pub struct AggPlan {
    /// The aggregate function.
    pub func: AggFunc,
    /// Expression aggregated over (None for `count<*>`).
    pub over: Option<PExpr>,
    /// Index of the aggregate in the head fields.
    pub position: usize,
    /// Whether all group-by fields are computable from the trigger
    /// bindings alone — when true, a `count<*>` over an empty match set
    /// emits a zero row (rules `sr8`/`sr9` require this).
    pub group_bound_by_trigger: bool,
}

/// The head of a strand: how to build output tuples from a final binding.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadSpec {
    /// Output relation name.
    pub name: String,
    /// `true` for `delete` rules.
    pub delete: bool,
    /// Output fields, location first.
    pub fields: Vec<FieldOut>,
    /// Aggregate plan, if the rule aggregates.
    pub agg: Option<AggPlan>,
}

/// A compiled rule strand.
#[derive(Debug, Clone, PartialEq)]
pub struct Strand {
    /// The rule's label (generated `rule#N` if the source had none).
    /// This is the ID recorded in `ruleExec` rows and used by the
    /// profiler (§3.2).
    pub rule_label: String,
    /// Unique strand ID (`label~k` when a rule compiles to k>1 strands).
    pub strand_id: String,
    /// What fires the strand.
    pub trigger: Trigger,
    /// Field matches applied to the trigger tuple.
    pub trigger_match: MatchSpec,
    /// Operators after the trigger, in execution order.
    pub ops: Vec<Op>,
    /// Output construction.
    pub head: HeadSpec,
    /// Number of environment slots.
    pub slots: usize,
    /// Source-level variable name per slot (EXPLAIN and introspection;
    /// execution never reads these).
    pub slot_names: Vec<String>,
    /// Original source text of the rule (introspection: `sysRule`).
    pub source: String,
    /// Stratum of the head relation in the aggregation order (DESIGN.md
    /// §2.13): every relation an aggregate ranges over sits in a
    /// strictly lower stratum. 0 for event heads and non-aggregating
    /// programs. An EXPLAIN annotation: execution never reads it.
    pub stratum: usize,
    /// Worst-case tuples emitted per firing, as stable EXPLAIN text:
    /// `"1"`, `"≤64"`, `"≤1024 = finger≤64 · succ≤16"`, or a factor
    /// list with `×N` (declared-infinity table) / `×?` (table of
    /// unknown size) markers when no finite product exists.
    pub est_fanout: String,
}

impl Strand {
    /// Number of stateful stages (joins and archive scans) — the tracer
    /// sizes its record fields from this (§2.1.2).
    pub fn join_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, Op::Join { .. } | Op::ArchiveScan { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::FixedCtx;
    use p2_types::Tuple;

    #[test]
    fn match_spec_bind_and_eq() {
        let ms = MatchSpec {
            fields: vec![
                FieldMatch::Bind(0),
                FieldMatch::EqConst(Value::Int(7)),
                FieldMatch::Bind(1),
            ],
        };
        let mut ctx = FixedCtx::default();
        let mut env = vec![None, None];
        let t = Tuple::new("x", [Value::addr("a"), Value::Int(7), Value::str("hi")]);
        assert!(ms.apply(&t, &mut env, &mut ctx).unwrap());
        assert_eq!(env[0], Some(Value::addr("a")));
        assert_eq!(env[1], Some(Value::str("hi")));

        let t2 = Tuple::new("x", [Value::addr("a"), Value::Int(8), Value::str("hi")]);
        let mut env2 = vec![None, None];
        assert!(!ms.apply(&t2, &mut env2, &mut ctx).unwrap());
    }

    #[test]
    fn match_spec_eqvar_join_semantics() {
        // Second occurrence of a variable must equal the first.
        let ms = MatchSpec {
            fields: vec![FieldMatch::Bind(0), FieldMatch::EqVar(0)],
        };
        let mut ctx = FixedCtx::default();
        let mut env = vec![None];
        let same = Tuple::new("x", [Value::Int(3), Value::Int(3)]);
        assert!(ms.apply(&same, &mut env, &mut ctx).unwrap());
        let mut env = vec![None];
        let diff = Tuple::new("x", [Value::Int(3), Value::Int(4)]);
        assert!(!ms.apply(&diff, &mut env, &mut ctx).unwrap());
    }

    #[test]
    fn strict_arity() {
        let ms = MatchSpec {
            fields: vec![FieldMatch::Bind(0)],
        };
        let mut ctx = FixedCtx::default();
        let mut env = vec![None];
        let long = Tuple::new("x", [Value::Int(1), Value::Int(2)]);
        assert!(!ms.apply(&long, &mut env, &mut ctx).unwrap());
    }

    #[test]
    fn probe_field_prefers_selective_fields() {
        let ms = MatchSpec {
            fields: vec![
                FieldMatch::Bind(0),
                FieldMatch::EqVar(1),
                FieldMatch::EqConst(Value::Int(1)),
            ],
        };
        assert_eq!(ms.probe_field(), Some(1));
        // Location-only equality still probes field 0...
        let loc_only = MatchSpec {
            fields: vec![FieldMatch::EqVar(0), FieldMatch::Bind(1)],
        };
        assert_eq!(loc_only.probe_field(), Some(0));
        // ...but a later equality wins over the location.
        let better = MatchSpec {
            fields: vec![
                FieldMatch::EqVar(0),
                FieldMatch::Bind(1),
                FieldMatch::EqVar(2),
            ],
        };
        assert_eq!(better.probe_field(), Some(2));
        let all_bind = MatchSpec {
            fields: vec![FieldMatch::Bind(0), FieldMatch::Ignore],
        };
        assert_eq!(all_bind.probe_field(), None);
    }

    #[test]
    fn dispatch_name() {
        assert_eq!(Trigger::Event { name: "x".into() }.dispatch_name(), "x");
        assert_eq!(
            Trigger::TableInsert { name: "t".into() }.dispatch_name(),
            "t"
        );
        assert_eq!(
            Trigger::Periodic { period_secs: 1.0 }.dispatch_name(),
            "periodic"
        );
    }
}
