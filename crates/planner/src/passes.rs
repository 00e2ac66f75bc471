//! Rewrite passes over the logical IR and the lowered plan.
//!
//! Pass order (DESIGN.md §2.6):
//!
//! 1. **Schedule** ([`schedule_ops`], IR level): one greedy pass that
//!    combines *selection/assignment pushdown* (stateless ops run as
//!    soon as their variables are bound) with *index-aware join
//!    reordering* (among executable joins, probe the one the PR-1
//!    secondary indexes can answer with an equality lookup first).
//! 2. **Fold** ([`fold_strand`], plan level): constant-fold `PExpr`s
//!    bottom-up, promote folded `EqExpr` field matches to `EqConst`
//!    (making them index-probeable), drop provably-true selections, and
//!    report provably-false ones as dead-rule diagnostics.
//! 3. **Share** ([`shared_prefix_groups`], program level): rules with
//!    the same trigger and an identical join pipeline share one strand
//!    prefix in the dataflow graph; only their stateless tails and
//!    heads stay separate.
//!
//! ## Invariants each pass preserves
//!
//! The oracle is `OptLevel::Off` (source-order compilation): for any
//! program and any input stream, the optimized plan must produce the
//! same output tuple **multiset**. Three rules keep that true:
//!
//! * **Impure ops are pinned.** An op calling `f_now`/`f_rand`/
//!   `f_randID`/`f_localAddr` keeps its order relative to every join
//!   and every other op. Moving one across a join changes its
//!   evaluation *count* (the binding multiset grows at each join), and
//!   with it the RNG stream; reordering two impure ops swaps their
//!   draws. Pure ops likewise never cross an impure op in either
//!   direction, because filtering earlier would change how many times
//!   the impure op runs.
//! * **Joins only move where their inputs exist.** A join whose
//!   embedded expression argument (`t@N(X + 1)`) reads unbound
//!   variables is not yet executable and cannot be hoisted above its
//!   binders. Pure join reordering is otherwise multiset-safe: the
//!   conjunctive body is order-independent.
//! * **Folding never invents failure or success.** A constant
//!   subexpression whose evaluation *errors* (division by zero) is
//!   left unfolded for the runtime to count, exactly as `Off` would.
//!   Always-false selections are kept (cheap, and the strand stays
//!   inspectable) but reported as diagnostics.
//!
//! Shared prefixes additionally require the *whole member strand* to be
//! pure: sharing evaluates the prefix once instead of once per member,
//! which would change RNG draws if anything impure were involved, and
//! the stateless tails run per member at finalize time.

use crate::expr::{const_eval, PExpr};
use crate::ir::{IrOp, StrandIr};
use crate::plan::{Diagnostic, FieldMatch, FieldOut, MatchSpec, Op, PrefixGroup, Strand, Trigger};
use p2_overlog::{Arg, Predicate};
use std::collections::HashSet;

/// How hard the planner tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Source-order compilation, no rewrites: the semantic oracle.
    Off,
    /// All passes: pushdown, join reordering, folding, prefix sharing.
    #[default]
    Full,
}

/// Planner options (threaded through `compile_program_with`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanOpts {
    /// Optimization level.
    pub level: OptLevel,
}

impl PlanOpts {
    /// Options with every pass disabled.
    pub fn off() -> PlanOpts {
        PlanOpts {
            level: OptLevel::Off,
        }
    }
}

// ---------------------------------------------------------------- schedule

/// Reorder a strand's body ops: push stateless ops down to their
/// earliest legal position and pick join order by probe quality.
///
/// Greedy loop over the remaining ops. Each step first drains every
/// *ready* stateless op in source order (pushdown), then emits the
/// ready join with the best probe score (ties break toward source
/// order, keeping the result deterministic). An op is ready when its
/// required variables are bound and ordering constraints hold: every
/// op waits for all earlier-in-source impure ops, and an impure op
/// additionally waits for all earlier-in-source joins.
///
/// The source order itself is always a legal completion (validation
/// guarantees it), and the earliest-unemitted op is always ready — so
/// the loop provably terminates with all ops emitted.
pub fn schedule_ops(ir: &mut StrandIr) {
    let ops = std::mem::take(&mut ir.ops);
    let n = ops.len();
    let pure: Vec<bool> = ops.iter().map(|o| o.is_pure()).collect();
    // Archive scans are stateful stages: for ordering purposes they are
    // joins (impure ops must not cross them; they are reorderable among
    // themselves by probe quality, where a scan always scores 0).
    let join: Vec<bool> = ops
        .iter()
        .map(|o| matches!(o, IrOp::Join(_) | IrOp::Past(_)))
        .collect();
    let mut emitted = vec![false; n];
    let mut bound = ir.initial_bound();
    let mut out: Vec<IrOp> = Vec::with_capacity(n);

    let ready = |i: usize, emitted: &[bool], bound: &HashSet<String>| -> bool {
        if !ops[i].required_vars().iter().all(|v| bound.contains(v)) {
            return false;
        }
        // Order constraints against earlier-in-source ops.
        for j in 0..i {
            if emitted[j] {
                continue;
            }
            if !pure[j] {
                return false; // nobody crosses an impure op
            }
            if !pure[i] && join[j] {
                return false; // impure ops never cross a join
            }
        }
        true
    };

    while out.len() < n {
        // Pushdown: drain ready stateless ops in source order.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for i in 0..n {
                if !emitted[i] && !join[i] && ready(i, &emitted, &bound) {
                    for v in ops[i].bound_vars() {
                        bound.insert(v);
                    }
                    emitted[i] = true;
                    out.push(ops[i].clone());
                    progressed = true;
                }
            }
        }
        if out.len() == n {
            break;
        }
        // Join choice: best probe score among ready joins; stable ties.
        let mut best: Option<(u8, usize)> = None;
        for i in 0..n {
            if emitted[i] || !join[i] || !ready(i, &emitted, &bound) {
                continue;
            }
            let score = match &ops[i] {
                IrOp::Join(p) => probe_score(p, &bound),
                // An archive scan reads whole segments; it never probes.
                IrOp::Past(_) => 0,
                _ => unreachable!("join[i] holds only for stateful ops"),
            };
            if best.map(|(s, _)| score > s).unwrap_or(true) {
                best = Some((score, i));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the loop runs while fewer than n ops are emitted, so one remains"
        )]
        let i = match best {
            Some((_, i)) => i,
            // Unreachable for validated rules; fall back to source order
            // rather than loop forever on a planner bug.
            None => (0..n).find(|&i| !emitted[i]).expect("ops remain"),
        };
        for v in ops[i].bound_vars() {
            bound.insert(v);
        }
        emitted[i] = true;
        out.push(ops[i].clone());
    }
    ir.ops = out;
}

/// How well a join over `p` probes given the bound set, mirroring
/// [`MatchSpec::probe_field`]: `2` = an equality field beyond the
/// location (a selective index probe), `1` = equality on the location
/// only, `0` = full scan. Repeated variables within the predicate count
/// (the second occurrence lowers to `EqVar`).
fn probe_score(p: &Predicate, bound: &HashSet<String>) -> u8 {
    let mut local: HashSet<&str> = HashSet::new();
    let mut loc_eq = false;
    for (i, a) in p.args.iter().enumerate() {
        let eq = match a {
            Arg::Const(_) => true,
            Arg::Var(v) => {
                let b = bound.contains(v.as_str()) || local.contains(v.as_str());
                if !b {
                    local.insert(v);
                }
                b
            }
            _ => false, // Expr lowers to EqExpr (not index-probeable), Wildcard ignores
        };
        if eq {
            if i == 0 {
                loc_eq = true;
            } else {
                return 2;
            }
        }
    }
    u8::from(loc_eq)
}

// ---------------------------------------------------------------- fold

/// Constant-fold a single compiled expression, bottom-up. Pure, closed
/// subtrees whose evaluation succeeds become [`PExpr::Const`]; anything
/// else (slots, impure calls, erroring constants) is left in place.
pub fn fold_pexpr(e: PExpr) -> PExpr {
    let folded = match e {
        PExpr::Slot(_) | PExpr::Const(_) => return e,
        PExpr::Unary(op, a) => PExpr::Unary(op, Box::new(fold_pexpr(*a))),
        PExpr::Binary(op, a, b) => {
            PExpr::Binary(op, Box::new(fold_pexpr(*a)), Box::new(fold_pexpr(*b)))
        }
        PExpr::In {
            expr,
            lo,
            hi,
            lo_closed,
            hi_closed,
        } => PExpr::In {
            expr: Box::new(fold_pexpr(*expr)),
            lo: Box::new(fold_pexpr(*lo)),
            hi: Box::new(fold_pexpr(*hi)),
            lo_closed,
            hi_closed,
        },
        PExpr::Call { func, args } => PExpr::Call {
            func,
            args: args.into_iter().map(fold_pexpr).collect(),
        },
        PExpr::List(items) => PExpr::List(items.into_iter().map(fold_pexpr).collect()),
    };
    match const_eval(&folded) {
        Some(v) => PExpr::Const(v),
        None => folded,
    }
}

fn fold_match_spec(ms: &mut MatchSpec) {
    for f in &mut ms.fields {
        if let FieldMatch::EqExpr(e) = f {
            let folded = fold_pexpr(e.clone());
            *f = match folded {
                PExpr::Const(v) => FieldMatch::EqConst(v),
                other => FieldMatch::EqExpr(other),
            };
        }
    }
}

/// Constant-fold every expression in a lowered strand and surface
/// dead-rule diagnostics. Provably-true selections are removed;
/// provably-false ones stay (they cost one comparison and keep the
/// strand inspectable) but are reported.
pub fn fold_strand(strand: &mut Strand, diagnostics: &mut Vec<Diagnostic>) {
    fold_match_spec(&mut strand.trigger_match);
    let ops = std::mem::take(&mut strand.ops);
    for mut op in ops {
        match &mut op {
            Op::Select(e) => {
                let folded = fold_pexpr(e.clone());
                match &folded {
                    PExpr::Const(p2_types::Value::Bool(true)) => continue, // tautology
                    PExpr::Const(p2_types::Value::Bool(false)) => {
                        diagnostics.push(Diagnostic {
                            code: "P2W501",
                            strand_id: strand.strand_id.clone(),
                            message: format!(
                                "rule {}: selection is always false — the rule is dead \
                                 and can never produce output",
                                strand.rule_label
                            ),
                        });
                    }
                    PExpr::Const(_) => {
                        diagnostics.push(Diagnostic {
                            code: "P2W502",
                            strand_id: strand.strand_id.clone(),
                            message: format!(
                                "rule {}: selection always evaluates to a non-boolean — \
                                 every binding will be dropped as an eval error",
                                strand.rule_label
                            ),
                        });
                    }
                    _ => {}
                }
                *e = folded;
            }
            Op::Assign { expr, .. } => *expr = fold_pexpr(expr.clone()),
            Op::Join { match_spec, .. } => fold_match_spec(match_spec),
            Op::ArchiveScan {
                t0, t1, match_spec, ..
            } => {
                *t0 = fold_pexpr(t0.clone());
                *t1 = fold_pexpr(t1.clone());
                fold_match_spec(match_spec);
            }
        }
        strand.ops.push(op);
    }
    for f in &mut strand.head.fields {
        if let FieldOut::Expr(e) = f {
            let folded = fold_pexpr(e.clone());
            *f = match folded {
                PExpr::Const(v) => FieldOut::Const(v),
                other => FieldOut::Expr(other),
            };
        }
    }
    if let Some(agg) = &mut strand.head.agg {
        if let Some(over) = &mut agg.over {
            *over = fold_pexpr(over.clone());
        }
    }
}

// ---------------------------------------------------------------- share

/// A strand may join a shared-prefix family when its *entire* join
/// pipeline could be the common prefix and everything it computes is
/// pure (see module docs for why purity is required).
fn sharable(s: &Strand) -> bool {
    if s.head.agg.is_some() || s.join_count() == 0 {
        return false;
    }
    if matches!(s.trigger, Trigger::Periodic { .. }) {
        // Periodic strands own a timer and a per-firing nonce; merging
        // them would merge timers.
        return false;
    }
    let pure_match = |ms: &MatchSpec| {
        ms.fields.iter().all(|f| match f {
            FieldMatch::EqExpr(e) => e.is_pure(),
            _ => true,
        })
    };
    if !pure_match(&s.trigger_match) {
        return false;
    }
    let ops_pure = s.ops.iter().all(|op| match op {
        Op::Select(e) => e.is_pure(),
        Op::Assign { expr, .. } => expr.is_pure(),
        Op::Join { match_spec, .. } => pure_match(match_spec),
        // Archive scans read mutable history (segments seal and expire
        // between firings); never merge them into a shared prefix.
        Op::ArchiveScan { .. } => false,
    });
    ops_pure
        && s.head.fields.iter().all(|f| match f {
            FieldOut::Expr(e) => e.is_pure(),
            _ => true,
        })
}

/// Number of leading ops up to and including the last join — the
/// candidate shared region (the tail beyond it is stateless).
#[expect(
    clippy::expect_used,
    reason = "only strands that passed the sharable() join check are grouped"
)]
fn prefix_len(s: &Strand) -> usize {
    s.ops
        .iter()
        .rposition(|o| matches!(o, Op::Join { .. }))
        .map(|i| i + 1)
        .expect("sharable strands have joins")
}

/// Group strands whose trigger, trigger match, and full join pipeline
/// are identical. Each group with ≥ 2 members becomes one dataflow
/// strand family: the prefix runs once per trigger, the members' tails
/// and heads fan out per result. Deterministic slot lowering guarantees
/// the prefix's slot numbering is identical across members.
pub fn shared_prefix_groups(strands: &[Strand]) -> Vec<PrefixGroup> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, s) in strands.iter().enumerate() {
        if !sharable(s) {
            continue;
        }
        let p = prefix_len(s);
        let found = groups.iter_mut().find(|(rep, _)| {
            let r = &strands[*rep];
            prefix_len(r) == p
                && r.trigger == s.trigger
                && r.trigger_match == s.trigger_match
                && r.ops[..p] == s.ops[..p]
        });
        match found {
            Some((_, members)) => members.push(i),
            None => groups.push((i, vec![i])),
        }
    }
    groups
        .into_iter()
        .filter(|(_, members)| members.len() >= 2)
        .map(|(rep, members)| PrefixGroup {
            shared_ops: prefix_len(&strands[rep]),
            members,
        })
        .collect()
}
