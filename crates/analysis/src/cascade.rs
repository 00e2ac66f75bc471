//! Cascade-termination analysis (P2W601, P2N604, P2N605) and the shared
//! flow model the deep passes run over.
//!
//! OverLog rules re-execute eagerly: a derived tuple is a delta that can
//! trigger the rule that derived it, directly or through other rules. A
//! cycle in that trigger graph is an *event storm* unless something
//! narrows it on every round. This module builds the trigger graph —
//! one edge per (triggering relation, rule) pair, mirroring the
//! planner's strand triggers — enumerates the simple cycles of each
//! strongly connected component, and classifies every cycle by the best
//! edge it contains:
//!
//! * **Guarded** — the rule carries a narrowing predicate on its
//!   trigger: a body condition referencing a trigger-bound variable, or
//!   a constant / repeated-variable / expression match inside the
//!   trigger pattern itself. Each round discards part of the space
//!   (Chord's `l2` `FID in (NID, K)`, the snapshot protocol's
//!   `haveSnap@N(Src, I, 0)`).
//! * **Converging** — the rule is pure (no fresh-value built-ins) and
//!   derives plain variables/constants into a keyed materialized table:
//!   re-deriving an existing row refreshes it without raising a delta,
//!   so the loop runs out of new rows (Chord's `ft4`).
//! * **Weak** — pure into a keyed table, but the head *computes* new
//!   values (`path(..., [B,A] + P, W + Y)`): set semantics only bounds
//!   the loop if the generated value domain is finite. Worth a note.
//! * **Free** — nothing narrows the edge.
//!
//! A cycle whose safest edge is Free is `P2W601` (potential event
//! storm, the path rendered rule by rule); Weak is the `P2N605`
//! value-generation note; Guarded/Converging is the `P2N604` bounded
//! note naming the bounding rule. Cycles are judged by their most
//! dangerous rule choice per hop, so one guarded rule between two
//! relations does not excuse an unguarded sibling rule on the same hop.

use crate::liveness::BUILTIN_PRODUCED;
use crate::AnalysisCtx;
use p2_overlog::{
    Arg, Diagnostic, Diagnostics, Expr, Predicate, Program, Severity, SizeLimit, Span, Statement,
    Term,
};
use std::collections::{BTreeMap, BTreeSet};

/// Built-ins that mint a fresh value on every call. A rule calling one
/// can emit a brand-new tuple each round even from identical inputs, so
/// it never converges by set semantics.
const FRESH_BUILTINS: &[&str] = &["f_now", "f_rand", "f_randID"];

/// Keep cycle enumeration bounded on hostile inputs.
const MAX_CYCLES: usize = 64;
const MAX_CYCLE_LEN: usize = 12;

/// What the model knows about a declared table.
pub(crate) struct TableInfo {
    /// 0-based key field positions (location included).
    pub keys: Vec<usize>,
    /// Row bound; `None` = `infinity`.
    pub max_rows: Option<u64>,
}

/// How many rows one probe of a body table can yield.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Mult {
    /// Fully keyed (or fully bound) probe: at most one row.
    One,
    /// Bounded by the table's declared `max_size`.
    Rows(u64),
    /// A runtime table with no declaration in the stack (trace or
    /// introspection tables, the node's own catalog): finite, size
    /// unknown.
    FiniteUnknown,
    /// Declared `infinity` size and the probe is not keyed.
    Unbounded,
}

/// Per-firing output bound of one rule edge: a single product term
/// `coeff · N^degree` where `N` stands for the rows of an unbounded
/// table.
#[derive(Clone, Debug)]
pub(crate) struct Fanout {
    /// Numeric part; `None` when a finite-but-undeclared table poisons
    /// the number (the bound is finite but cannot be stated).
    pub coeff: Option<u64>,
    /// Number of unbounded-table factors.
    pub degree: u32,
    /// Human-readable factors, e.g. `finger×64`, `path×N`.
    pub factors: Vec<String>,
}

impl Fanout {
    fn unit() -> Fanout {
        Fanout {
            coeff: Some(1),
            degree: 0,
            factors: Vec::new(),
        }
    }

    fn apply(&mut self, table: &str, mult: Mult) {
        match mult {
            Mult::One => {}
            Mult::Rows(n) => {
                self.coeff = self.coeff.map(|c| c.saturating_mul(n.max(1)));
                if n > 1 {
                    self.factors.push(format!("{table}\u{d7}{n}"));
                }
            }
            Mult::FiniteUnknown => {
                self.coeff = None;
                self.factors.push(format!("{table}\u{d7}?"));
            }
            Mult::Unbounded => {
                self.degree += 1;
                self.factors.push(format!("{table}\u{d7}N"));
            }
        }
    }
}

/// Safety classification of one trigger edge, safest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EdgeClass {
    Guarded,
    Converging,
    Weak,
    Free,
}

/// One (triggering relation → head relation) edge of the trigger graph.
pub(crate) struct FlowEdge {
    pub from: String,
    pub to: String,
    /// Index into [`FlowModel::rules`].
    pub rule: usize,
    pub class: EdgeClass,
    pub fanout: Fanout,
    /// The trigger is the `periodic` timer (a root, never producible).
    pub periodic: bool,
    /// The head is sent to a different location than the body runs at.
    pub remote: bool,
}

/// A (body table → materialized head) edge for stratification.
pub(crate) struct StratEdge {
    pub from: String,
    pub to: String,
    pub agg: bool,
    pub rule: usize,
}

/// Positioning info for one rule, shared by every deep pass.
pub(crate) struct FlowRuleInfo {
    pub label: String,
    pub unit: usize,
    pub span: Span,
}

/// The flow model: trigger edges, stratification edges, table facts.
pub(crate) struct FlowModel {
    pub rules: Vec<FlowRuleInfo>,
    pub edges: Vec<FlowEdge>,
    pub strat_edges: Vec<StratEdge>,
    pub tables: BTreeMap<String, TableInfo>,
}

/// Build the flow model over a unit stack. Mirrors the planner's
/// trigger selection: a rule with event predicates gets one edge per
/// event; an all-table rule gets one delta edge per body table (`past`
/// scans are sources, never triggers); `delete` rules contribute no
/// edges — deletions do not raise insert deltas.
pub(crate) fn build_model(programs: &[&Program], ctx: &AnalysisCtx) -> FlowModel {
    let mut tables: BTreeMap<String, TableInfo> = BTreeMap::new();
    for program in programs {
        for m in program.materializations() {
            tables.insert(
                m.table.clone(),
                TableInfo {
                    keys: m.keys.iter().map(|k| k.saturating_sub(1)).collect(),
                    max_rows: match m.max_size {
                        SizeLimit::Rows(n) => Some(n as u64),
                        SizeLimit::Infinity => None,
                    },
                },
            );
        }
    }

    let builtin_table = |n: &str| n != "periodic" && BUILTIN_PRODUCED.contains(&n);
    let is_table =
        |n: &str| tables.contains_key(n) || ctx.known_tables.contains(n) || builtin_table(n);

    let mut model = FlowModel {
        rules: Vec::new(),
        edges: Vec::new(),
        strat_edges: Vec::new(),
        tables: BTreeMap::new(),
    };

    for (unit, program) in programs.iter().enumerate() {
        let mut idx = 0usize;
        for s in &program.statements {
            let Statement::Rule(r) = s else { continue };
            idx += 1;
            let label = r.label.clone().unwrap_or_else(|| format!("rule #{idx}"));
            let rule_id = model.rules.len();
            model.rules.push(FlowRuleInfo {
                label,
                unit,
                span: r.span,
            });
            if r.delete {
                continue;
            }
            let body_preds: Vec<&Predicate> = r.body_predicates().collect();
            if body_preds.is_empty() {
                continue; // a fact
            }

            // Stratification edges: body tables feeding a materialized
            // head, aggregate-marked. Event heads and `past` scans are
            // cascade territory, not fixpoint strata.
            if is_table(&r.head.name) {
                for p in &body_preds {
                    if p.name != "past" && p.name != "periodic" && is_table(&p.name) {
                        model.strat_edges.push(StratEdge {
                            from: p.name.clone(),
                            to: r.head.name.clone(),
                            agg: r.is_aggregate(),
                            rule: rule_id,
                        });
                    }
                }
            }

            let pure = rule_is_pure(r);
            let head_expr_args = r.head.args.iter().any(|a| matches!(a, Arg::Expr(_)));
            let triggers: Vec<usize> = {
                let events: Vec<usize> = (0..body_preds.len())
                    .filter(|&i| {
                        let n = body_preds[i].name.as_str();
                        n == "periodic" || !is_table(n)
                    })
                    .collect();
                if events.is_empty() {
                    (0..body_preds.len())
                        .filter(|&i| body_preds[i].name != "past")
                        .collect()
                } else {
                    events
                }
            };

            for t in triggers {
                let trig = body_preds[t];
                let trigger_vars = pred_vars(trig);
                let narrowed = trigger_narrows(trig) || guarded_cond(r, &trigger_vars);
                let fanout = rule_fanout(r, t, &trigger_vars, &tables, &is_table);
                let class = if narrowed {
                    EdgeClass::Guarded
                } else if pure && is_table(&r.head.name) && r.is_aggregate() {
                    // A pure aggregate into a keyed table: the group's
                    // value is a function of the (set-semantic) input.
                    EdgeClass::Converging
                } else if pure && is_table(&r.head.name) && !head_expr_args {
                    EdgeClass::Converging
                } else if pure && is_table(&r.head.name) {
                    EdgeClass::Weak
                } else {
                    EdgeClass::Free
                };
                model.edges.push(FlowEdge {
                    from: trig.name.clone(),
                    to: r.head.name.clone(),
                    rule: rule_id,
                    class,
                    fanout,
                    periodic: trig.name == "periodic",
                    remote: is_remote(&r.head, trig),
                });
            }
        }
    }

    model.tables = tables;
    model
}

/// All variables a predicate occurrence binds (location included,
/// embedded match expressions contribute their free variables).
fn pred_vars(p: &Predicate) -> BTreeSet<String> {
    let mut vars = Vec::new();
    p.arg_vars(&mut vars);
    vars.into_iter().collect()
}

/// Does the trigger pattern itself narrow the match — a constant, an
/// expression, or a repeated variable among its arguments?
fn trigger_narrows(p: &Predicate) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for a in &p.args {
        match a {
            Arg::Const(_) | Arg::Expr(_) => return true,
            Arg::Var(v) if !seen.insert(v.as_str()) => return true,
            _ => {}
        }
    }
    false
}

/// Does some body condition reference a trigger-bound variable?
fn guarded_cond(r: &p2_overlog::Rule, trigger_vars: &BTreeSet<String>) -> bool {
    r.body.iter().any(|t| match t {
        Term::Cond { expr, .. } => {
            let mut vars = Vec::new();
            expr.free_vars(&mut vars);
            vars.iter().any(|v| trigger_vars.contains(v))
        }
        _ => false,
    })
}

/// No fresh-value built-in anywhere in the rule.
fn rule_is_pure(r: &p2_overlog::Rule) -> bool {
    let mut pure = true;
    let mut check = |e: &Expr| {
        e.for_each_call(&mut |f| {
            if FRESH_BUILTINS.contains(&f) {
                pure = false;
            }
        });
    };
    for a in &r.head.args {
        if let Arg::Expr(e) = a {
            check(e);
        }
    }
    for t in &r.body {
        match t {
            Term::Cond { expr, .. } | Term::Assign { expr, .. } => check(expr),
            Term::Pred(p) => {
                for a in &p.args {
                    if let Arg::Expr(e) = a {
                        check(e);
                    }
                }
            }
        }
    }
    pure
}

/// Is the head delivered somewhere other than where the trigger lives?
fn is_remote(head: &Predicate, trig: &Predicate) -> bool {
    match (head.loc(), trig.loc()) {
        (Arg::Var(a), Arg::Var(b)) => a != b,
        (Arg::Const(a), Arg::Const(b)) => a != b,
        (Arg::Wildcard, Arg::Wildcard) => false,
        _ => true,
    }
}

/// Join-multiplicity product over the rule's non-trigger body tables,
/// walking terms in source order and tracking the bound-variable set.
fn rule_fanout(
    r: &p2_overlog::Rule,
    trigger_idx: usize,
    trigger_vars: &BTreeSet<String>,
    tables: &BTreeMap<String, TableInfo>,
    is_table: &dyn Fn(&str) -> bool,
) -> Fanout {
    let mut bound = trigger_vars.clone();
    let mut fanout = Fanout::unit();
    let mut pred_no = 0usize;
    for term in &r.body {
        match term {
            Term::Assign { var, .. } => {
                bound.insert(var.clone());
            }
            Term::Cond { .. } => {}
            Term::Pred(p) => {
                let this = pred_no;
                pred_no += 1;
                if this == trigger_idx {
                    continue;
                }
                let arg_bound = |a: &Arg| match a {
                    Arg::Const(_) => true,
                    Arg::Var(v) => bound.contains(v),
                    Arg::Expr(e) => {
                        let mut vars = Vec::new();
                        e.free_vars(&mut vars);
                        vars.iter().all(|v| bound.contains(v))
                    }
                    Arg::Wildcard | Arg::Agg { .. } => false,
                };
                let all_bound = p.args.iter().all(arg_bound);
                let mult = if let Some(info) = tables.get(&p.name) {
                    let keyed = !info.keys.is_empty()
                        && info
                            .keys
                            .iter()
                            .all(|&k| p.args.get(k).map(arg_bound).unwrap_or(false));
                    if keyed || all_bound {
                        Mult::One
                    } else {
                        match info.max_rows {
                            Some(n) => Mult::Rows(n),
                            None => Mult::Unbounded,
                        }
                    }
                } else if is_table(&p.name) || p.name == "past" {
                    if all_bound {
                        Mult::One
                    } else {
                        Mult::FiniteUnknown
                    }
                } else {
                    // Another event predicate (a two-event body, already
                    // flagged as P2W303): one instant, one tuple.
                    Mult::One
                };
                fanout.apply(&p.name, mult);
                for v in pred_vars(p) {
                    bound.insert(v);
                }
            }
        }
    }
    if r.is_aggregate() {
        // An aggregate emits one row per group per firing; the join
        // product already bounds the group count, but never goes below
        // the single row a zero-count emission produces.
        fanout.coeff = fanout.coeff.map(|c| c.max(1));
    }
    fanout
}

// ---------------------------------------------------------------------
// Cycle detection and classification
// ---------------------------------------------------------------------

/// Run the cascade-termination pass: enumerate trigger cycles, classify
/// each, emit P2W601 / P2N604 / P2N605.
pub(crate) fn check(model: &FlowModel, diags: &mut Diagnostics) {
    // Relation-level adjacency with the edge indices per hop.
    let (nodes, adj) = relation_graph(model.edges.iter().map(|e| (&*e.from, &*e.to)));
    let sccs = strongly_connected(&nodes, &adj);
    let scc_of: BTreeMap<&str, usize> = sccs
        .iter()
        .enumerate()
        .flat_map(|(i, scc)| scc.iter().map(move |n| (*n, i)))
        .collect();

    let mut cycles: Vec<Vec<&str>> = Vec::new();
    for scc in &sccs {
        let members: BTreeSet<&str> = scc.iter().copied().collect();
        if !is_cyclic(scc, &adj) {
            continue;
        }
        // Enumerate node-simple cycles, each rooted at its smallest
        // member so every cycle is found exactly once.
        let mut sorted: Vec<&str> = members.iter().copied().collect();
        sorted.sort_unstable();
        for (ri, root) in sorted.iter().enumerate() {
            let allowed: BTreeSet<&str> = sorted[ri..].iter().copied().collect();
            let mut path = vec![*root];
            dfs_cycles(root, root, &adj, &allowed, &mut path, &mut cycles);
            if cycles.len() >= MAX_CYCLES {
                break;
            }
        }
    }
    let _ = scc_of; // membership only guides enumeration scope

    for cycle in cycles {
        // Most dangerous rule choice per hop; the cycle is as safe as
        // the safest edge of that choice.
        let mut chosen: Vec<usize> = Vec::with_capacity(cycle.len());
        for (i, from) in cycle.iter().enumerate() {
            let to = cycle[(i + 1) % cycle.len()];
            let Some(edge_ids) = adj.get(from).and_then(|m| m.get(to)) else {
                chosen.clear();
                break;
            };
            let worst = edge_ids
                .iter()
                .copied()
                .max_by_key(|&id| (model.edges[id].class, std::cmp::Reverse(id)));
            match worst {
                Some(w) => chosen.push(w),
                None => {
                    chosen.clear();
                    break;
                }
            }
        }
        if chosen.is_empty() {
            continue;
        }
        let overall = chosen
            .iter()
            .map(|&id| model.edges[id].class)
            .min()
            .unwrap_or(EdgeClass::Free);
        let path = render_path(model, &chosen);
        let anchor = &model.rules[model.edges[chosen[0]].rule];
        let mut d = match overall {
            EdgeClass::Free => Diagnostic::new(
                "P2W601",
                Severity::Warning,
                format!(
                    "rules re-trigger themselves with no narrowing guard — \
                     potential event storm: {path}"
                ),
            )
            .with_help(
                "add a condition on a triggering field, or derive into a keyed \
                 materialized table so re-derivations converge",
            ),
            EdgeClass::Weak => {
                let weak = chosen
                    .iter()
                    .find(|&&id| model.edges[id].class == EdgeClass::Weak)
                    .map(|&id| model.rules[model.edges[id].rule].label.clone())
                    .unwrap_or_default();
                Diagnostic::new(
                    "P2N605",
                    Severity::Note,
                    format!(
                        "recursive cycle {path} generates computed values in rule \
                         '{weak}' — it terminates only if the generated value \
                         domain is finite"
                    ),
                )
            }
            EdgeClass::Guarded | EdgeClass::Converging => {
                let (why_rule, why) = chosen
                    .iter()
                    .map(|&id| &model.edges[id])
                    .filter(|e| e.class <= EdgeClass::Converging)
                    .map(|e| {
                        let label = model.rules[e.rule].label.clone();
                        let why = if e.class == EdgeClass::Guarded {
                            "guards the loop with a condition on its trigger".to_string()
                        } else {
                            format!("converges through keyed table '{}'", e.to)
                        };
                        (label, why)
                    })
                    .next()
                    .unwrap_or_default();
                Diagnostic::new(
                    "P2N604",
                    Severity::Note,
                    format!("recursive cycle {path} is bounded: rule '{why_rule}' {why}"),
                )
            }
        };
        d.unit = anchor.unit;
        d = d.with_span(anchor.span).with_context(anchor.label.clone());
        diags.push(d);
    }
}

/// `ping -[r1]-> pong -[r2]=> ping` (`=>` marks a location hop).
fn render_path(model: &FlowModel, chosen: &[usize]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for &id in chosen {
        let e = &model.edges[id];
        let arrow = if e.remote { "=>" } else { "->" };
        let _ = write!(out, "{} -[{}]{arrow} ", e.from, model.rules[e.rule].label);
    }
    out.push_str(&model.edges[chosen[0]].from);
    out
}

fn dfs_cycles<'a>(
    root: &'a str,
    at: &'a str,
    adj: &Adj<'a>,
    allowed: &BTreeSet<&'a str>,
    path: &mut Vec<&'a str>,
    cycles: &mut Vec<Vec<&'a str>>,
) {
    if cycles.len() >= MAX_CYCLES || path.len() > MAX_CYCLE_LEN {
        return;
    }
    let Some(next) = adj.get(at) else { return };
    for &to in next.keys() {
        if to == root {
            cycles.push(path.clone());
            if cycles.len() >= MAX_CYCLES {
                return;
            }
            continue;
        }
        if !allowed.contains(to) || path.contains(&to) {
            continue;
        }
        path.push(to);
        dfs_cycles(root, to, adj, allowed, path, cycles);
        path.pop();
    }
}

/// A relation graph's adjacency: from → to → the indices of its edges.
pub(crate) type Adj<'a> = BTreeMap<&'a str, BTreeMap<&'a str, Vec<usize>>>;

/// The graph of `(from, to)` edges: every relation an edge touches,
/// sorted, and the adjacency.
pub(crate) fn relation_graph<'a>(
    edges: impl Iterator<Item = (&'a str, &'a str)>,
) -> (Vec<&'a str>, Adj<'a>) {
    let (mut nodes, mut adj) = (BTreeSet::new(), Adj::new());
    for (i, (from, to)) in edges.enumerate() {
        adj.entry(from).or_default().entry(to).or_default().push(i);
        nodes.extend([from, to]);
    }
    (nodes.into_iter().collect(), adj)
}

/// Whether a strongly connected component holds a cycle: more than one
/// member, or one member with an edge to itself.
pub(crate) fn is_cyclic(scc: &[&str], adj: &Adj) -> bool {
    scc.len() > 1
        || scc
            .first()
            .is_some_and(|n| adj.get(n).is_some_and(|m| m.contains_key(n)))
}

/// Iterative Tarjan over the relation graph; returns SCCs, each sorted.
pub(crate) fn strongly_connected<'a>(nodes: &[&'a str], adj: &Adj<'a>) -> Vec<Vec<&'a str>> {
    struct State<'a> {
        index: BTreeMap<&'a str, usize>,
        low: BTreeMap<&'a str, usize>,
        on_stack: BTreeSet<&'a str>,
        stack: Vec<&'a str>,
        next: usize,
        out: Vec<Vec<&'a str>>,
    }
    let mut st = State {
        index: BTreeMap::new(),
        low: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    // Explicit work stack: (node, iterator position over successors).
    for &start in nodes {
        if st.index.contains_key(start) {
            continue;
        }
        let mut work: Vec<(&str, Vec<&str>, usize)> = Vec::new();
        let succs = |n: &str| -> Vec<&'a str> {
            adj.get(n)
                .map(|m| m.keys().copied().collect())
                .unwrap_or_default()
        };
        st.index.insert(start, st.next);
        st.low.insert(start, st.next);
        st.next += 1;
        st.stack.push(start);
        st.on_stack.insert(start);
        work.push((start, succs(start), 0));
        while let Some((node, kids, pos)) = work.pop() {
            if pos < kids.len() {
                let child = kids[pos];
                work.push((node, kids, pos + 1));
                if !st.index.contains_key(child) {
                    st.index.insert(child, st.next);
                    st.low.insert(child, st.next);
                    st.next += 1;
                    st.stack.push(child);
                    st.on_stack.insert(child);
                    let k = succs(child);
                    work.push((child, k, 0));
                } else if st.on_stack.contains(child) {
                    let ci = st.index.get(child).copied().unwrap_or(0);
                    if let Some(l) = st.low.get_mut(node) {
                        *l = (*l).min(ci);
                    }
                }
            } else {
                if let Some(&(parent, _, _)) = work.last() {
                    let nl = st.low.get(node).copied().unwrap_or(0);
                    if let Some(pl) = st.low.get_mut(parent) {
                        *pl = (*pl).min(nl);
                    }
                }
                if st.low.get(node) == st.index.get(node) {
                    let mut scc = Vec::new();
                    while let Some(n) = st.stack.pop() {
                        st.on_stack.remove(n);
                        scc.push(n);
                        if n == node {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    st.out.push(scc);
                }
            }
        }
    }
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_overlog::parse_program;

    fn run(src: &str) -> Diagnostics {
        let p = parse_program(src).unwrap();
        let model = build_model(&[&p], &AnalysisCtx::default());
        let mut d = Diagnostics::new();
        check(&model, &mut d);
        d
    }

    fn codes(d: &Diagnostics) -> Vec<&'static str> {
        d.items.iter().map(|x| x.code).collect()
    }

    #[test]
    fn self_trigger_is_a_storm() {
        let d = run("r1 ping@N(X) :- ping@N(X).");
        assert_eq!(codes(&d), ["P2W601"]);
        assert!(d.items[0].message.contains("ping -[r1]-> ping"), "{d:?}");
    }

    #[test]
    fn ping_pong_is_a_storm_with_a_remote_hop() {
        let d = run("r1 pong@B(A) :- ping@A(B).\nr2 ping@A(B) :- pong@B(A).");
        assert_eq!(codes(&d), ["P2W601"]);
        assert!(d.items[0].message.contains("=>"), "{d:?}");
    }

    #[test]
    fn guarded_cycle_is_a_bounded_note() {
        let d = run("r1 token@N(C) :- token@N(C), C > 0.");
        assert_eq!(codes(&d), ["P2N604"], "{d:?}");
    }

    #[test]
    fn constant_trigger_match_bounds() {
        let d = run("r1 step@N(X) :- step@N(X), probe@N(Y).\nr2 probe@N(X) :- step@N(X).");
        // step(X) has no guard anywhere: storm.
        assert!(codes(&d).contains(&"P2W601"), "{d:?}");
        let d = run("r1 snap@N(I) :- have@N(I, 0).\nr2 have@N(I, X) :- snap@N(I).");
        assert_eq!(codes(&d), ["P2N604"], "{d:?}");
    }

    #[test]
    fn pure_keyed_table_recursion_converges() {
        let d = run("materialize(pred, infinity, 1, keys(1)).\n\
                     materialize(faultyNode, 30, 64, keys(1, 2)).\n\
                     ft4 pred@N(0) :- faultyNode@N(F, T), pred@N(F).");
        assert_eq!(codes(&d), ["P2N604"], "{d:?}");
        assert!(d.items[0].message.contains("converges"), "{d:?}");
    }

    #[test]
    fn value_generating_table_recursion_notes() {
        let d = run("materialize(path, infinity, infinity, keys(1, 2, 3)).\n\
                     materialize(link, infinity, infinity, keys(1, 2)).\n\
                     p1 path@B(C, P + 1) :- link@A(B, W), path@A(C, P).");
        assert_eq!(codes(&d), ["P2N605"], "{d:?}");
    }

    #[test]
    fn impure_table_recursion_is_a_storm() {
        let d = run("materialize(t, infinity, 10, keys(1)).\n\
                     r1 t@N(X) :- t@N(X2), X := f_rand().");
        assert_eq!(codes(&d), ["P2W601"], "{d:?}");
    }

    #[test]
    fn worst_rule_per_hop_decides() {
        // r1 guards the hop but its sibling r2 does not: still a storm.
        let d = run("r1 pong@N(X) :- ping@N(X), X > 0.\n\
                     r2 pong@N(X) :- ping@N(X).\n\
                     r3 ping@N(X) :- pong@N(X).");
        assert_eq!(codes(&d), ["P2W601"], "{d:?}");
        assert!(d.items[0].message.contains("r2"), "{d:?}");
    }
}
