//! Rule → strand compilation: the staged pipeline driver.
//!
//! Compilation runs in stages per rule strand (DESIGN.md §2.6):
//!
//! 1. [`crate::ir::build_strand_ir`] — normalize to the symbolic IR,
//! 2. [`crate::passes::schedule_ops`] — pushdown + join reordering
//!    (skipped at [`OptLevel::Off`]),
//! 3. `lower_strand` — slot allocation in op order, expression
//!    compilation with plan-time builtin interning, head lowering,
//! 4. [`crate::passes::fold_strand`] — constant folding + dead-rule
//!    diagnostics (skipped at `Off`),
//!
//! then, program-wide, [`crate::passes::shared_prefix_groups`] finds
//! strand families and the join probes' index requests are collected.

use crate::expr::{compile_expr, ExprError, PExpr};
use crate::ir::{build_strand_ir, head_group_vars, IrOp, StrandIr};
use crate::passes::{fold_strand, schedule_ops, shared_prefix_groups, OptLevel, PlanOpts};
use crate::plan::*;
use p2_overlog::{
    validate_strict, Arg, Expr, Lifetime, Materialize, Predicate, Program, Rule, SizeLimit,
    Statement, Term, ValidateError,
};
use p2_types::{Addr, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

/// Planning errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The program failed static validation.
    Invalid(ValidateError),
    /// A rule has more than one non-materialized (event) predicate.
    TwoEventPredicates {
        /// Rule label or index.
        rule: String,
        /// The two event predicate names.
        first: String,
        /// Second offender.
        second: String,
    },
    /// `periodic` was used with a non-constant or non-positive period.
    BadPeriodic {
        /// Rule label or index.
        rule: String,
        /// Explanation.
        message: String,
    },
    /// `periodic` / `past` cannot be materialized or be a rule head.
    ReservedRelation {
        /// The reserved name.
        name: String,
    },
    /// A `past(...)` archive-scan predicate is malformed: bad shape,
    /// unbound interval bounds, or it was the only possible trigger.
    BadPast {
        /// Rule label or index.
        rule: String,
        /// Explanation.
        message: String,
    },
    /// An expression failed to compile (unknown builtin, wrong arity).
    Expr {
        /// Rule label or index.
        rule: String,
        /// The expression-level error.
        error: ExprError,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Invalid(e) => write!(f, "{e}"),
            PlanError::TwoEventPredicates {
                rule,
                first,
                second,
            } => write!(
                f,
                "in {rule}: two event predicates '{first}' and '{second}' — \
                 a rule may have at most one non-materialized predicate"
            ),
            PlanError::BadPeriodic { rule, message } => {
                write!(f, "in {rule}: bad periodic: {message}")
            }
            PlanError::BadPast { rule, message } => {
                write!(f, "in {rule}: bad past(): {message}")
            }
            PlanError::ReservedRelation { name } => {
                write!(f, "'{name}' is a reserved built-in relation")
            }
            PlanError::Expr { rule, error } => write!(f, "in {rule}: {error}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Compile a validated program at the default (full) optimization
/// level. See [`compile_program_with`].
pub fn compile_program(
    program: &Program,
    known_tables: &HashSet<String>,
) -> Result<CompiledProgram, PlanError> {
    compile_program_with(program, known_tables, &PlanOpts::default())
}

/// Compile a validated program.
///
/// `known_tables` is the set of relations already materialized on the
/// installing node — monitoring programs installed on-line read the base
/// application's tables, and classification of predicates as *table
/// match* vs *transient event* depends on it (install order matters and
/// is documented in the crate docs).
///
/// `opts` selects the optimization level; [`OptLevel::Off`] compiles
/// each rule body in literal source order with no rewrites and is the
/// semantic oracle the optimized plans are tested against.
pub fn compile_program_with(
    program: &Program,
    known_tables: &HashSet<String>,
    opts: &PlanOpts,
) -> Result<CompiledProgram, PlanError> {
    validate_strict(program).map_err(PlanError::Invalid)?;
    let optimize = opts.level == OptLevel::Full;

    let mut out = CompiledProgram::default();

    // Materialized set: already-known tables plus this program's own.
    let mut materialized: HashSet<String> = known_tables.clone();
    for m in program.materializations() {
        if m.table == "periodic" || m.table == "past" {
            return Err(PlanError::ReservedRelation {
                name: m.table.clone(),
            });
        }
        materialized.insert(m.table.clone());
        out.tables.push(lower_materialize(m));
    }

    let mut rule_idx = 0usize;
    for stmt in &program.statements {
        let rule = match stmt {
            Statement::Rule(r) => r,
            Statement::Materialize(_) => continue,
        };
        rule_idx += 1;
        let label = rule
            .label
            .clone()
            .unwrap_or_else(|| format!("rule#{rule_idx}"));

        if rule.head.name == "periodic" || rule.head.name == "past" {
            return Err(PlanError::ReservedRelation {
                name: rule.head.name.clone(),
            });
        }

        // Facts: ground heads with no body are injected at install.
        if rule.body.is_empty() {
            out.facts.push(fact_tuple(&rule.head));
            continue;
        }

        // Classify body predicates.
        let preds: Vec<(usize, &Predicate)> = rule
            .body
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                Term::Pred(p) => Some((i, p)),
                _ => None,
            })
            .collect();
        // `past` is never an event and never a trigger: it scans frozen
        // history, so there is no delta to fire on.
        let event_preds: Vec<(usize, &Predicate)> = preds
            .iter()
            .copied()
            .filter(|(_, p)| {
                p.name != "past" && (p.name == "periodic" || !materialized.contains(&p.name))
            })
            .collect();

        if event_preds.len() > 1 {
            return Err(PlanError::TwoEventPredicates {
                rule: label,
                first: event_preds[0].1.name.clone(),
                second: event_preds[1].1.name.clone(),
            });
        }

        let trigger_positions: Vec<usize> = if let Some((i, _)) = event_preds.first() {
            vec![*i]
        } else {
            preds
                .iter()
                .filter(|(_, p)| p.name != "past")
                .map(|(i, _)| *i)
                .collect()
        };
        if trigger_positions.is_empty() {
            return Err(PlanError::BadPast {
                rule: label,
                message: "a rule cannot be triggered by past() alone — add an event, \
                          periodic, or table predicate"
                    .into(),
            });
        }

        let multi = trigger_positions.len() > 1;
        for (k, &tpos) in trigger_positions.iter().enumerate() {
            let strand_id = if multi {
                format!("{label}~{k}")
            } else {
                label.clone()
            };
            let mut ir = build_strand_ir(rule, &label, strand_id, tpos, &materialized)?;
            if optimize {
                schedule_ops(&mut ir);
            }
            let mut strand = lower_strand(&ir, rule)?;
            if optimize {
                fold_strand(&mut strand, &mut out.diagnostics);
            }
            out.strands.push(strand);
        }
    }

    if optimize {
        out.prefix_groups = shared_prefix_groups(&out.strands);
    }

    // Collect the (table, field) pairs the strands' join probes will
    // scan on, so the runtime can register secondary indexes up front.
    let mut requests: BTreeSet<(String, usize)> = BTreeSet::new();
    for strand in &out.strands {
        for op in &strand.ops {
            if let Op::Join { table, match_spec } = op {
                if let Some(field) = match_spec.probe_field() {
                    requests.insert((table.clone(), field));
                }
            }
        }
    }
    out.index_requests = requests.into_iter().collect();
    annotate_flow(&mut out, known_tables);
    Ok(out)
}

/// Post-lowering flow annotations (DESIGN.md §2.13): each strand's
/// worst-case fan-out per firing and its head relation's stratum in
/// the aggregation order. This mirrors, over plan-level data, what the
/// analysis crate's deep passes compute over source — the planner
/// cannot depend on `p2-analysis` (which dry-runs the planner), so the
/// small computation is duplicated here. EXPLAIN renders both;
/// execution reads neither.
fn annotate_flow(out: &mut CompiledProgram, known_tables: &HashSet<String>) {
    // Declared row bounds: Some(Some(n)) finite, Some(None) declared
    // infinity, absent = known-at-runtime table of unknown size.
    let decls: BTreeMap<&str, Option<usize>> = out
        .tables
        .iter()
        .map(|t| (t.name.as_str(), t.max_rows))
        .collect();
    let keyed = |table: &str, ms: &MatchSpec| -> bool {
        let all_eq = ms.fields.iter().all(|f| !matches!(f, FieldMatch::Bind(_)));
        if all_eq {
            return true;
        }
        out.tables
            .iter()
            .find(|t| t.name == table)
            .is_some_and(|t| {
                !t.key_fields.is_empty()
                    && t.key_fields.iter().all(|&k| {
                        ms.fields
                            .get(k)
                            .is_some_and(|f| !matches!(f, FieldMatch::Bind(_) | FieldMatch::Ignore))
                    })
            })
    };

    for s in &mut out.strands {
        let mut factors: Vec<String> = Vec::new();
        let mut product: Option<u64> = Some(1);
        for op in &s.ops {
            match op {
                Op::Join { table, match_spec } => {
                    if keyed(table, match_spec) {
                        continue; // keyed probe: ×1
                    }
                    match decls.get(table.as_str()) {
                        Some(Some(n)) => {
                            factors.push(format!("{table}\u{2264}{n}"));
                            product = product.map(|p| p.saturating_mul(*n as u64));
                        }
                        Some(None) => {
                            factors.push(format!("{table}\u{d7}N"));
                            product = None;
                        }
                        None => {
                            factors.push(format!("{table}\u{d7}?"));
                            product = None;
                        }
                    }
                }
                Op::ArchiveScan { table, .. } => {
                    factors.push(format!("past({table})\u{d7}?"));
                    product = None;
                }
                Op::Select(_) | Op::Assign { .. } => {}
            }
        }
        s.est_fanout = if s.head.agg.is_some() {
            // One aggregate tuple per firing, whatever was scanned.
            "1 (agg)".to_string()
        } else if factors.is_empty() {
            "1".to_string()
        } else if let Some(p) = product {
            if factors.len() == 1 {
                format!("\u{2264}{p}")
            } else {
                format!("\u{2264}{p} = {}", factors.join(" \u{b7} "))
            }
        } else {
            factors.join(" \u{b7} ")
        };
    }

    // Strata: body-table → materialized-head edges, aggregate-marked.
    // Fixpoint over `stratum[head] ≥ stratum[body] + agg`; sweeps are
    // capped so an unstratifiable program (rejected by `p2ql check
    // --deep`, P2E603) cannot spin the annotation pass.
    let materialized = |name: &str| decls.contains_key(name) || known_tables.contains(name);
    let mut strata: BTreeMap<&str, usize> = BTreeMap::new();
    let mut edges: Vec<(&str, &str, bool)> = Vec::new();
    for s in &out.strands {
        if s.head.delete || !materialized(&s.head.name) {
            continue;
        }
        let agg = s.head.agg.is_some();
        if let Trigger::TableInsert { name } = &s.trigger {
            edges.push((name.as_str(), s.head.name.as_str(), agg));
        }
        for op in &s.ops {
            if let Op::Join { table, .. } = op {
                if materialized(table) {
                    edges.push((table.as_str(), s.head.name.as_str(), agg));
                }
            }
        }
    }
    let relation_count = {
        let mut set: BTreeSet<&str> = BTreeSet::new();
        for (f, t, _) in &edges {
            set.insert(f);
            set.insert(t);
        }
        set.len()
    };
    for _ in 0..=relation_count {
        let mut changed = false;
        for (from, to, agg) in &edges {
            let want = strata.get(from).copied().unwrap_or(0) + usize::from(*agg);
            let cur = strata.entry(to).or_insert(0);
            if want > *cur {
                *cur = want;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let strata: BTreeMap<String, usize> = strata
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for s in &mut out.strands {
        s.stratum = strata.get(&s.head.name).copied().unwrap_or(0);
    }
}

fn lower_materialize(m: &Materialize) -> TableDecl {
    TableDecl {
        name: m.table.clone(),
        lifetime_secs: match m.lifetime {
            Lifetime::Secs(s) => Some(s),
            Lifetime::Infinity => None,
        },
        max_rows: match m.max_size {
            SizeLimit::Rows(n) => Some(n),
            SizeLimit::Infinity => None,
        },
        // 1-based in source (over the full tuple, location included).
        key_fields: m.keys.iter().map(|k| k - 1).collect(),
    }
}

fn fact_tuple(head: &Predicate) -> Tuple {
    let vals: Vec<Value> = head
        .args
        .iter()
        .enumerate()
        .map(|(i, a)| match a {
            Arg::Const(v) => {
                // Coerce a string in location position to an address so
                // facts like `node@"n1:0"(17).` route correctly.
                if i == 0 {
                    if let Value::Str(s) = v {
                        return Value::Addr(Addr::new(&**s));
                    }
                }
                v.clone()
            }
            _ => unreachable!("validation: facts are ground"),
        })
        .collect();
    Tuple::new(&head.name, vals)
}

/// Per-strand slot allocator.
struct Slots {
    map: HashMap<String, usize>,
    names: Vec<String>,
}

impl Slots {
    fn new() -> Slots {
        Slots {
            map: HashMap::new(),
            names: Vec::new(),
        }
    }

    fn get(&self, v: &str) -> Option<usize> {
        self.map.get(v).copied()
    }

    fn bind(&mut self, v: &str) -> usize {
        let next = self.map.len();
        *self.map.entry(v.to_string()).or_insert_with(|| {
            self.names.push(v.to_string());
            next
        })
    }

    fn compile(&self, rule: &str, e: &Expr) -> Result<PExpr, PlanError> {
        compile_expr(e, &|v| {
            *self.map.get(v).unwrap_or_else(|| {
                panic!(
                    "planner invariant: variable {v} unbound (validator should have caught this)"
                )
            })
        })
        .map_err(|error| PlanError::Expr {
            rule: rule.to_string(),
            error,
        })
    }
}

/// Lower a (possibly rewritten) strand IR to the executable plan form:
/// allocate environment slots in encounter order and compile every
/// expression (phase 3 of the staged planner).
///
/// Slot allocation is deterministic in the op order, which is what lets
/// shared-prefix members agree on the prefix's slot numbering.
fn lower_strand(ir: &StrandIr, rule: &Rule) -> Result<Strand, PlanError> {
    let label = &ir.rule_label;
    let mut slots = Slots::new();

    // ----- trigger -----
    let trigger_match = if matches!(ir.trigger, Trigger::Periodic { .. }) {
        let mut fields = Vec::new();
        for (i, a) in ir.trigger_pred.args.iter().enumerate() {
            fields.push(match a {
                Arg::Var(v) => match slots.get(v) {
                    Some(s) => FieldMatch::EqVar(s),
                    None => FieldMatch::Bind(slots.bind(v)),
                },
                // The period constant: the runtime synthesizes the tuple,
                // so the field needs no check.
                Arg::Const(_) if i == 2 => FieldMatch::Ignore,
                Arg::Const(c) => FieldMatch::EqConst(c.clone()),
                Arg::Wildcard => FieldMatch::Ignore,
                other => {
                    return Err(PlanError::BadPeriodic {
                        rule: label.to_string(),
                        message: format!("unsupported periodic argument {other:?}"),
                    })
                }
            });
        }
        MatchSpec { fields }
    } else {
        pred_match(
            &ir.trigger_pred,
            &mut slots,
            ir.trigger_restrict.as_ref(),
            label,
        )?
    };

    let trigger_bound: HashSet<String> = slots.map.keys().cloned().collect();

    // ----- body ops -----
    let mut ops = Vec::new();
    for op in &ir.ops {
        match op {
            IrOp::Join(p) => {
                let ms = pred_match(p, &mut slots, None, label)?;
                ops.push(Op::Join {
                    table: p.name.clone(),
                    match_spec: ms,
                });
            }
            IrOp::Past(p) => {
                ops.push(lower_past(p, &mut slots, label)?);
            }
            IrOp::Select(e) => {
                ops.push(Op::Select(slots.compile(label, e)?));
            }
            IrOp::Assign { var, expr } => {
                let pe = slots.compile(label, expr)?;
                let slot = slots.bind(var);
                ops.push(Op::Assign { slot, expr: pe });
            }
        }
    }

    // ----- head -----
    let mut fields = Vec::new();
    let mut agg: Option<AggPlan> = None;
    #[expect(
        clippy::expect_used,
        reason = "validate_strict ran before planning: head and aggregate vars are bound"
    )]
    for (pos, a) in rule.head.args.iter().enumerate() {
        fields.push(match a {
            Arg::Var(v) => FieldOut::Slot(slots.get(v).expect("validated: head vars bound")),
            Arg::Const(c) => FieldOut::Const(c.clone()),
            Arg::Expr(e) => FieldOut::Expr(slots.compile(label, e)?),
            Arg::Agg { func, over } => {
                let over_expr = over
                    .as_ref()
                    .map(|v| PExpr::Slot(slots.get(v).expect("validated: agg var bound")));
                agg = Some(AggPlan {
                    func: *func,
                    over: over_expr,
                    position: pos,
                    group_bound_by_trigger: head_group_vars(rule)
                        .iter()
                        .all(|v| trigger_bound.contains(v)),
                });
                FieldOut::Agg
            }
            Arg::Wildcard => unreachable!("validated: no wildcards in heads"),
        });
    }

    Ok(Strand {
        rule_label: label.to_string(),
        strand_id: ir.strand_id.clone(),
        trigger: ir.trigger.clone(),
        trigger_match,
        ops,
        head: HeadSpec {
            name: rule.head.name.clone(),
            delete: rule.delete,
            fields,
            agg,
        },
        slots: slots.map.len(),
        slot_names: slots.names,
        source: p2_overlog::pretty::rule_to_string(rule),
        stratum: 0,
        est_fanout: String::new(),
    })
}

/// Lower a `past@N("rel", T0, T1, fields...)` occurrence to an
/// [`Op::ArchiveScan`].
///
/// Shape: arg 0 is the rule's location variable (must already be
/// bound), arg 1 names the archived relation as a string constant,
/// args 2/3 are the inclusive interval bounds `[T0, T1]` (constants,
/// bound variables, or expressions over bound variables), and args 4..
/// match against the archived tuple's own fields — location first,
/// exactly as the relation's live rows are shaped.
fn lower_past(p: &Predicate, slots: &mut Slots, rule: &str) -> Result<Op, PlanError> {
    let bad = |message: String| PlanError::BadPast {
        rule: rule.to_string(),
        message,
    };
    if p.args.len() < 4 {
        return Err(bad(format!(
            "past takes (location, relation, t0, t1, fields...); got {} args",
            p.args.len()
        )));
    }
    match &p.args[0] {
        Arg::Var(v) if slots.get(v).is_some() => {}
        Arg::Var(v) => {
            return Err(bad(format!(
                "location {v} must already be bound (use the rule's location variable)"
            )))
        }
        other => return Err(bad(format!("location must be a variable, got {other:?}"))),
    }
    let table = match &p.args[1] {
        Arg::Const(Value::Str(s)) => s.to_string(),
        other => {
            return Err(bad(format!(
                "the archived relation must be a string constant, got {other:?}"
            )))
        }
    };
    let bound_expr = |a: &Arg, which: &str| -> Result<PExpr, PlanError> {
        match a {
            Arg::Const(c) => Ok(PExpr::Const(c.clone())),
            Arg::Var(v) => match slots.get(v) {
                Some(s) => Ok(PExpr::Slot(s)),
                None => Err(bad(format!(
                    "interval bound {which}={v} must be bound before past() runs"
                ))),
            },
            Arg::Expr(e) => slots.compile(rule, e),
            other => Err(bad(format!("interval bound {which} cannot be {other:?}"))),
        }
    };
    let t0 = bound_expr(&p.args[2], "t0")?;
    let t1 = bound_expr(&p.args[3], "t1")?;
    let mut fields = Vec::with_capacity(p.args.len() - 4);
    for a in &p.args[4..] {
        fields.push(match a {
            Arg::Var(v) => bind_or_eq(v, slots),
            Arg::Const(c) => FieldMatch::EqConst(c.clone()),
            Arg::Wildcard => FieldMatch::Ignore,
            Arg::Expr(e) => FieldMatch::EqExpr(slots.compile(rule, e)?),
            Arg::Agg { .. } => unreachable!("validated: no aggregates in body"),
        });
    }
    Ok(Op::ArchiveScan {
        table,
        t0,
        t1,
        match_spec: MatchSpec { fields },
    })
}

/// Build a match spec for a predicate occurrence, updating the slot map.
///
/// If `restrict_to` is given, only variables in that set are bound;
/// other variable fields become `Ignore` (used for the delta-group
/// binding of table-triggered aggregates).
fn pred_match(
    p: &Predicate,
    slots: &mut Slots,
    restrict_to: Option<&HashSet<String>>,
    rule: &str,
) -> Result<MatchSpec, PlanError> {
    let mut fields = Vec::with_capacity(p.args.len());
    for a in &p.args {
        fields.push(match a {
            Arg::Var(v) => match restrict_to {
                Some(allow) if !allow.contains(v) => FieldMatch::Ignore,
                _ => bind_or_eq(v, slots),
            },
            Arg::Const(c) => FieldMatch::EqConst(c.clone()),
            Arg::Wildcard => FieldMatch::Ignore,
            Arg::Expr(e) => FieldMatch::EqExpr(slots.compile(rule, e)?),
            Arg::Agg { .. } => unreachable!("validated: no aggregates in body"),
        });
    }
    Ok(MatchSpec { fields })
}

fn bind_or_eq(v: &str, slots: &mut Slots) -> FieldMatch {
    match slots.get(v) {
        Some(s) => FieldMatch::EqVar(s),
        None => FieldMatch::Bind(slots.bind(v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_overlog::parse_program;

    fn compile(src: &str, known: &[&str]) -> CompiledProgram {
        let known: HashSet<String> = known.iter().map(|s| s.to_string()).collect();
        compile_program(&parse_program(src).unwrap(), &known).unwrap()
    }

    fn compile_off(src: &str, known: &[&str]) -> CompiledProgram {
        let known: HashSet<String> = known.iter().map(|s| s.to_string()).collect();
        compile_program_with(&parse_program(src).unwrap(), &known, &PlanOpts::off()).unwrap()
    }

    #[test]
    fn event_trigger_single_strand() {
        let p = compile(
            "materialize(pred, 100, 1, keys(1)).
             rp4 inconsistentPred@NAddr() :- stabilizeRequest@NAddr(SID, SA), pred@NAddr(PID, PA), SA != PA.",
            &[],
        );
        assert_eq!(p.strands.len(), 1);
        let s = &p.strands[0];
        assert_eq!(
            s.trigger,
            Trigger::Event {
                name: "stabilizeRequest".into()
            }
        );
        assert_eq!(s.join_count(), 1);
        assert_eq!(s.rule_label, "rp4");
        // Join on pred, then select (the select needs PA, which only the
        // join binds — pushdown cannot move it).
        assert!(matches!(&s.ops[0], Op::Join { table, .. } if table == "pred"));
        assert!(matches!(&s.ops[1], Op::Select(_)));
    }

    #[test]
    fn all_materialized_gets_strand_per_pred() {
        let p = compile(
            "materialize(a, 100, 10, keys(1)).
             materialize(b, 100, 10, keys(1)).
             r1 out@N(X, Y) :- a@N(X), b@N(Y).",
            &[],
        );
        assert_eq!(p.strands.len(), 2);
        assert_eq!(
            p.strands[0].trigger,
            Trigger::TableInsert { name: "a".into() }
        );
        assert_eq!(
            p.strands[1].trigger,
            Trigger::TableInsert { name: "b".into() }
        );
        assert_eq!(p.strands[0].strand_id, "r1~0");
        assert_eq!(p.strands[1].strand_id, "r1~1");
        // Each strand joins the *other* table.
        assert!(matches!(&p.strands[0].ops[0], Op::Join { table, .. } if table == "b"));
        assert!(matches!(&p.strands[1].ops[0], Op::Join { table, .. } if table == "a"));
    }

    #[test]
    fn known_tables_from_catalog_count_as_materialized() {
        // bestSucc is declared by the base program, not this one.
        let p = compile(
            "r result@NAddr() :- event@NAddr(), bestSucc@NAddr(SID, SAddr).",
            &["bestSucc"],
        );
        assert_eq!(p.strands.len(), 1);
        assert_eq!(
            p.strands[0].trigger,
            Trigger::Event {
                name: "event".into()
            }
        );
        assert!(matches!(&p.strands[0].ops[0], Op::Join { table, .. } if table == "bestSucc"));
    }

    #[test]
    fn two_events_rejected() {
        let known: HashSet<String> = HashSet::new();
        let err = compile_program(
            &parse_program("r h@N() :- e1@N(X), e2@N(Y).").unwrap(),
            &known,
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::TwoEventPredicates { .. }));
    }

    #[test]
    fn periodic_trigger() {
        let p = compile("r1 result@NAddr() :- periodic@NAddr(E, 30).", &[]);
        let s = &p.strands[0];
        assert_eq!(s.trigger, Trigger::Periodic { period_secs: 30.0 });
        assert_eq!(s.trigger_match.fields.len(), 3);
        assert!(matches!(s.trigger_match.fields[2], FieldMatch::Ignore));
    }

    #[test]
    fn periodic_requires_const_positive_period() {
        let known = HashSet::new();
        for bad in [
            "r h@N() :- periodic@N(E, T).",
            "r h@N() :- periodic@N(E, 0).",
        ] {
            let err = compile_program(&parse_program(bad).unwrap(), &known).unwrap_err();
            assert!(matches!(err, PlanError::BadPeriodic { .. }), "{bad}");
        }
        // A wrong arity is caught even earlier, by the validator.
        let err = compile_program(&parse_program("r h@N() :- periodic@N(E).").unwrap(), &known)
            .unwrap_err();
        assert!(matches!(err, PlanError::Invalid(_)));
    }

    #[test]
    fn periodic_not_materializable() {
        let known = HashSet::new();
        let err = compile_program(
            &parse_program("materialize(periodic, 1, 1, keys(1)).").unwrap(),
            &known,
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::ReservedRelation { .. }));
    }

    #[test]
    fn event_aggregate_groups() {
        // sr8: snapState is a table, marker is the event trigger.
        let p = compile(
            "materialize(snapState, 100, 100, keys(1)).
             sr8 haveSnap@NAddr(SrcAddr, I, count<*>) :- snapState@NAddr(I, State), marker@NAddr(SrcAddr, I).",
            &[],
        );
        assert_eq!(p.strands.len(), 1);
        let s = &p.strands[0];
        assert_eq!(
            s.trigger,
            Trigger::Event {
                name: "marker".into()
            }
        );
        let agg = s.head.agg.as_ref().unwrap();
        assert_eq!(agg.position, 3);
        // Group fields NAddr, SrcAddr, I are all bound by the marker
        // trigger — zero-count emission allowed (sr9 depends on it).
        assert!(agg.group_bound_by_trigger);
    }

    #[test]
    fn table_triggered_aggregate_rejoins_trigger() {
        // cs6: count over the whole conRespTable, not the delta.
        let p = compile(
            "materialize(conRespTable, 100, 100, keys(1)).
             cs6 respCluster@NAddr(ProbeID, SAddr, count<*>) :- conRespTable@NAddr(ProbeID, ReqID, SAddr).",
            &[],
        );
        let s = &p.strands[0];
        assert_eq!(
            s.trigger,
            Trigger::TableInsert {
                name: "conRespTable".into()
            }
        );
        // The trigger table appears again as a join.
        assert!(matches!(&s.ops[0], Op::Join { table, .. } if table == "conRespTable"));
        // Trigger match binds only the group vars (NAddr, ProbeID, SAddr);
        // ReqID is ignored.
        let binds = s
            .trigger_match
            .fields
            .iter()
            .filter(|f| matches!(f, FieldMatch::Bind(_)))
            .count();
        assert_eq!(binds, 3);
        assert!(matches!(s.trigger_match.fields[2], FieldMatch::Ignore)); // ReqID
    }

    #[test]
    fn facts_are_collected() {
        let p = compile(r#"node@"n1:0"(42)."#, &[]);
        assert_eq!(p.facts.len(), 1);
        assert_eq!(p.facts[0].name(), "node");
        // Location coerced to an address.
        assert_eq!(p.facts[0].location().unwrap().as_str(), "n1:0");
    }

    #[test]
    fn delete_rule_compiles() {
        let p = compile(
            "materialize(t, 100, 100, keys(1, 2)).
             cs10 delete t@N(P, T2) :- c@N(P), t@N(P, T2).",
            &[],
        );
        let s = &p.strands[0];
        assert!(s.head.delete);
        assert_eq!(s.trigger, Trigger::Event { name: "c".into() });
    }

    #[test]
    fn materialize_keys_are_zero_based() {
        let p = compile("materialize(path, 100, 5, keys(1, 2)).", &[]);
        assert_eq!(p.tables[0].key_fields, vec![0, 1]);
        assert_eq!(p.tables[0].lifetime_secs, Some(100.0));
        assert_eq!(p.tables[0].max_rows, Some(5));
    }

    #[test]
    fn assignment_slots() {
        let p = compile(
            "cs1 conProbe@NAddr(ProbeID, K, T) :- periodic@NAddr(ProbeID, 40), K := f_randID(), T := f_now().",
            &[],
        );
        let s = &p.strands[0];
        // Both assigns are impure — the scheduler pins them in source
        // order even at the full optimization level.
        assert_eq!(s.ops.len(), 2);
        assert!(matches!(&s.ops[0], Op::Assign { .. }));
        assert_eq!(s.slots, 4); // NAddr, ProbeID, K, T
        assert_eq!(s.head.fields.len(), 4);
    }

    #[test]
    fn min_aggregate_over_assigned_var() {
        let p = compile(
            "materialize(node, 100, 1, keys(1)).
             materialize(finger, 100, 100, keys(1, 2)).
             l2 bestLookupDist@NAddr(K, R, E, min<D>) :- node@NAddr(NID), lookup@NAddr(K, R, E), finger@NAddr(FP, FID, FA), D := K - FID - 1, FID in (NID, K).",
            &[],
        );
        let s = &p.strands[0];
        assert_eq!(
            s.trigger,
            Trigger::Event {
                name: "lookup".into()
            }
        );
        let agg = s.head.agg.as_ref().unwrap();
        assert!(agg.over.is_some());
        assert_eq!(agg.position, 4);
        assert!(agg.group_bound_by_trigger); // K, R, E, NAddr all from trigger
        assert_eq!(s.join_count(), 2); // node + finger
    }

    #[test]
    fn index_requests_cover_join_probe_fields() {
        let p = compile(
            "materialize(pred, 100, 10, keys(1)).
             materialize(succ, 100, 10, keys(1, 2)).
             r1 out@N(PID) :- ev@N(SID, SA), pred@N(PID, SA).
             r2 out2@N(SID) :- ev2@N(X), succ@N(SID, X).",
            &[],
        );
        // r1 probes pred on field 2 (SA, bound by the trigger); r2 probes
        // succ on field 2 (X).
        assert_eq!(
            p.index_requests,
            vec![("pred".to_string(), 2), ("succ".to_string(), 2)]
        );
    }

    #[test]
    fn index_requests_deduplicate_across_strands() {
        let p = compile(
            "materialize(a, 100, 10, keys(1)).
             materialize(b, 100, 10, keys(1)).
             r1 out@N(X, Y) :- a@N(X), b@N(Y).",
            &[],
        );
        // Two strands, each re-joining the other table on the location
        // field only → one request per table, on field 0.
        assert_eq!(
            p.index_requests,
            vec![("a".to_string(), 0), ("b".to_string(), 0)]
        );
    }

    #[test]
    fn source_text_retained_for_introspection() {
        let p = compile("r1 out@N(X) :- ev@N(X).", &[]);
        assert!(p.strands[0].source.contains("out@N(X)"));
    }

    // ----- staged-pipeline tests -----

    #[test]
    fn slot_names_follow_allocation_order() {
        let p = compile("r1 out@N(X, Y) :- ev@N(X, Y).", &[]);
        assert_eq!(p.strands[0].slot_names, vec!["N", "X", "Y"]);
        assert_eq!(p.strands[0].slots, 3);
    }

    #[test]
    fn selection_pushdown_moves_filter_before_join() {
        let src = "materialize(t, 100, 10, keys(1)).
                   r1 out@N(X) :- ev@N(X, Y), t@N(Z), Y > 3.";
        // Off: literal source order — join, then select.
        let off = compile_off(src, &[]);
        assert!(matches!(&off.strands[0].ops[0], Op::Join { .. }));
        assert!(matches!(&off.strands[0].ops[1], Op::Select(_)));
        // Full: Y is trigger-bound, so the filter runs before the scan.
        let full = compile(src, &[]);
        assert!(matches!(&full.strands[0].ops[0], Op::Select(_)));
        assert!(matches!(&full.strands[0].ops[1], Op::Join { .. }));
    }

    #[test]
    fn index_aware_join_reordering_prefers_probeable_join() {
        let src = "materialize(a, 100, 10, keys(1)).
                   materialize(b, 100, 10, keys(1, 2)).
                   r1 out@N(P, Q) :- ev@N(X), a@N(P), b@N(Q, X).";
        // Off: source order (a, then b).
        let off = compile_off(src, &[]);
        assert!(matches!(&off.strands[0].ops[0], Op::Join { table, .. } if table == "a"));
        // Full: b probes on the trigger-bound X (equality beyond the
        // location field) — it runs first to shrink the intermediate set.
        let full = compile(src, &[]);
        assert!(matches!(&full.strands[0].ops[0], Op::Join { table, .. } if table == "b"));
        assert!(matches!(&full.strands[0].ops[1], Op::Join { table, .. } if table == "a"));
    }

    #[test]
    fn constant_true_select_is_dropped() {
        let p = compile("r1 out@N(X) :- ev@N(X), 1 < 2.", &[]);
        assert!(p.strands[0].ops.is_empty());
        assert!(p.diagnostics.is_empty());
        // Off keeps the select for oracle fidelity.
        let off = compile_off("r1 out@N(X) :- ev@N(X), 1 < 2.", &[]);
        assert_eq!(off.strands[0].ops.len(), 1);
    }

    #[test]
    fn constant_false_select_warns_dead_rule() {
        let p = compile("r1 out@N(X) :- ev@N(X), 1 > 2.", &[]);
        // The op is kept (semantics preserved: the rule fires and drops).
        assert_eq!(p.strands[0].ops.len(), 1);
        assert_eq!(p.diagnostics.len(), 1);
        assert_eq!(p.diagnostics[0].strand_id, "r1");
        assert!(p.diagnostics[0].message.contains("always false"));
    }

    #[test]
    fn shared_prefix_groups_found_across_rules() {
        let p = compile(
            "materialize(t, 100, 10, keys(1)).
             r1 a@N(X, Y) :- ev@N(X), t@N(Y).
             r2 b@N(X, Y) :- ev@N(X), t@N(Y).",
            &[],
        );
        assert_eq!(p.prefix_groups.len(), 1);
        assert_eq!(p.prefix_groups[0].members, vec![0, 1]);
        assert_eq!(p.prefix_groups[0].shared_ops, 1);
        // Off discovers no groups.
        let off = compile_off(
            "materialize(t, 100, 10, keys(1)).
             r1 a@N(X, Y) :- ev@N(X), t@N(Y).
             r2 b@N(X, Y) :- ev@N(X), t@N(Y).",
            &[],
        );
        assert!(off.prefix_groups.is_empty());
    }

    // ----- past() archive-scan tests -----

    #[test]
    fn past_lowers_to_archive_scan() {
        let p = compile(
            r#"f1 wasSucc@N(S) :- probe@N(T0, T1), past@N("succ", T0, T1, N, S)."#,
            &[],
        );
        assert_eq!(p.strands.len(), 1);
        let s = &p.strands[0];
        assert_eq!(
            s.trigger,
            Trigger::Event {
                name: "probe".into()
            }
        );
        match &s.ops[0] {
            Op::ArchiveScan {
                table,
                t0,
                t1,
                match_spec,
            } => {
                assert_eq!(table, "succ");
                assert!(matches!(t0, PExpr::Slot(_)));
                assert!(matches!(t1, PExpr::Slot(_)));
                // Fields: =N (location, trigger-bound), bind S.
                assert!(matches!(match_spec.fields[0], FieldMatch::EqVar(_)));
                assert!(matches!(match_spec.fields[1], FieldMatch::Bind(_)));
            }
            other => panic!("expected ArchiveScan, got {other:?}"),
        }
        assert_eq!(s.join_count(), 1);
        // Archive scans never request secondary indexes.
        assert!(p.index_requests.is_empty());
    }

    #[test]
    fn past_is_never_a_trigger() {
        // With a materialized table present, the table (not past) fans
        // out the strands.
        let p = compile(
            r#"materialize(t, 100, 10, keys(1)).
               f2 out@N(X, S) :- t@N(X), past@N("succ", 0, 10, N, S)."#,
            &[],
        );
        assert_eq!(p.strands.len(), 1);
        assert_eq!(
            p.strands[0].trigger,
            Trigger::TableInsert { name: "t".into() }
        );
        // past alone cannot trigger a rule.
        let known = HashSet::new();
        let err = compile_program(
            &parse_program(r#"f3 out@N(S) :- past@N("succ", 0, 10, N, S)."#).unwrap(),
            &known,
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::BadPast { .. }), "{err}");
    }

    #[test]
    fn past_shape_is_checked() {
        let known = HashSet::new();
        // Relation must be a string constant.
        let err = compile_program(
            &parse_program("f4 out@N(S) :- ev@N(R), past@N(R, 0, 10, N, S).").unwrap(),
            &known,
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::BadPast { .. }), "{err}");
        // Interval bounds must be bound before the scan runs.
        let err = compile_program(
            &parse_program(r#"f5 out@N(S) :- ev@N(), past@N("succ", T0, 10, N, S)."#).unwrap(),
            &known,
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::BadPast { .. }), "{err}");
    }

    #[test]
    fn past_is_reserved() {
        let known = HashSet::new();
        for bad in [
            "materialize(past, 100, 10, keys(1)).",
            "r1 past@N(A, B, C) :- ev@N(A, B, C).",
        ] {
            let err = compile_program(&parse_program(bad).unwrap(), &known).unwrap_err();
            assert!(matches!(err, PlanError::ReservedRelation { .. }), "{bad}");
        }
        // A too-short `past` head is already an arity error at validation.
        let err = compile_program(&parse_program("r1 past@N(X) :- ev@N(X).").unwrap(), &known)
            .unwrap_err();
        assert!(matches!(err, PlanError::Invalid(_)));
    }

    #[test]
    fn past_interval_bounds_fold() {
        let p = compile(
            r#"f6 out@N(S) :- ev@N(), past@N("succ", 5 + 5, 20, N, S)."#,
            &[],
        );
        match &p.strands[0].ops[0] {
            Op::ArchiveScan { t0, t1, .. } => {
                assert_eq!(*t0, PExpr::Const(Value::Int(10)));
                assert_eq!(*t1, PExpr::Const(Value::Int(20)));
            }
            other => panic!("expected ArchiveScan, got {other:?}"),
        }
    }

    #[test]
    fn unknown_function_is_a_plan_error() {
        let known = HashSet::new();
        let err = compile_program(
            &parse_program("r1 out@N(X) :- ev@N(Y), X := f_bogus(Y).").unwrap(),
            &known,
        )
        .unwrap_err();
        match err {
            PlanError::Expr { rule, error } => {
                assert_eq!(rule, "r1");
                assert!(matches!(error, ExprError::UnknownFunction(_)));
            }
            other => panic!("expected Expr error, got {other:?}"),
        }
    }

    #[test]
    fn builtin_arity_checked_at_plan_time() {
        let known = HashSet::new();
        let err = compile_program(
            &parse_program("r1 out@N(X) :- ev@N(Y), X := f_sha1().").unwrap(),
            &known,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PlanError::Expr {
                error: ExprError::Arity { .. },
                ..
            }
        ));
    }
}
