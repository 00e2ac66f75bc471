//! Amplification bounds (P2W602) and the static cost model the traced
//! cascades are checked against.
//!
//! Every trigger edge carries a fan-out estimate (see
//! [`cascade::rule_fanout`]): the product of join multiplicities — a
//! fully keyed probe contributes ×1, a probe into a declared table
//! contributes its `max_size`, a probe into a declared-`infinity` table
//! contributes a symbolic ×N. Two results are computed over the trigger
//! graph:
//!
//! * **Amplification** — for each relation R, an upper bound on the
//!   total number of tuples one R-tuple can transitively derive:
//!   `amp(R) = Σ_edges fanout × (1 + amp(head))`. This is what the
//!   per-episode output count measured from `ruleExec` is compared
//!   against (measured ≤ static, asserted on the Chord corpus). Relations that
//!   can reach a trigger cycle — even a provably bounded one — are
//!   `Unbounded`: the static model bounds shapes, not iteration counts.
//! * **Cascade depth** — the longest chain of trigger edges out of R;
//!   the measured per-episode depth is compared against this.
//!
//! `P2W602` flags super-linear paths: a root event whose cascade
//! multiplies through **two or more** unbounded-table joins — the
//! monitoring layer would scale quadratically with the very state it
//! watches (ACME's motivation for bounding sensor cost). One unbounded
//! join is ordinary fan-out (a broadcast over neighbors); two is almost
//! always a missing key.

use crate::cascade::{is_cyclic, relation_graph, strongly_connected, FlowModel};
use crate::{AnalysisCtx, Bound};
use p2_overlog::{Diagnostic, Diagnostics, Severity};
use std::collections::{BTreeMap, BTreeSet};

const MAX_SUPERLINEAR_REPORTS: usize = 8;

pub(crate) struct CostReport {
    pub depth: BTreeMap<String, Bound>,
    pub amplification: BTreeMap<String, Bound>,
    pub roots: Vec<String>,
}

/// Compute per-relation depth and amplification bounds.
pub(crate) fn analyze(model: &FlowModel, ctx: &AnalysisCtx) -> CostReport {
    let (nodes, adj) = relation_graph(model.edges.iter().map(|e| (&*e.from, &*e.to)));
    let mut out_edges: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, e) in model.edges.iter().enumerate() {
        out_edges.entry(e.from.as_str()).or_default().push(i);
    }

    // Relations inside a cyclic SCC, then everything that reaches one.
    let sccs = strongly_connected(&nodes, &adj);
    let mut tainted: BTreeSet<&str> = BTreeSet::new();
    for scc in &sccs {
        if is_cyclic(scc, &adj) {
            tainted.extend(scc.iter().copied());
        }
    }
    loop {
        let mut changed = false;
        for e in &model.edges {
            if tainted.contains(e.to.as_str()) && tainted.insert(e.from.as_str()) {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Bounds over the cycle-free part, in reverse dependency order. A
    // worklist would do; the graph is small, so iterate to fixpoint
    // with memoization via repeated sweeps.
    let mut depth: BTreeMap<String, Bound> = BTreeMap::new();
    let mut amp: BTreeMap<String, Bound> = BTreeMap::new();
    for n in &nodes {
        if tainted.contains(n) {
            depth.insert((*n).to_string(), Bound::Unbounded);
            amp.insert((*n).to_string(), Bound::Unbounded);
        }
    }
    loop {
        let mut changed = false;
        for n in &nodes {
            if depth.contains_key(*n) {
                continue;
            }
            let edges = out_edges.get(n).map(Vec::as_slice).unwrap_or(&[]);
            // All heads resolved?
            let ready = edges
                .iter()
                .all(|&i| depth.contains_key(model.edges[i].to.as_str()));
            if !ready {
                continue;
            }
            let mut d_bound: u64 = 0;
            let mut a_bound: Option<u64> = Some(0);
            for &i in edges {
                let e = &model.edges[i];
                let (hd, ha) = (
                    depth
                        .get(e.to.as_str())
                        .copied()
                        .unwrap_or(Bound::Unbounded),
                    amp.get(e.to.as_str()).copied().unwrap_or(Bound::Unbounded),
                );
                match hd {
                    Bound::Finite(x) => d_bound = d_bound.max(1 + x),
                    Bound::Unbounded => {
                        d_bound = u64::MAX;
                    }
                }
                let f = match (e.fanout.coeff, e.fanout.degree) {
                    (Some(c), 0) => Some(c),
                    _ => None,
                };
                a_bound = match (a_bound, f, ha) {
                    (Some(acc), Some(f), Bound::Finite(sub)) => {
                        Some(acc.saturating_add(f.saturating_mul(1u64.saturating_add(sub))))
                    }
                    _ => None,
                };
            }
            depth.insert(
                (*n).to_string(),
                if d_bound == u64::MAX {
                    Bound::Unbounded
                } else {
                    Bound::Finite(d_bound)
                },
            );
            amp.insert(
                (*n).to_string(),
                match a_bound {
                    Some(a) => Bound::Finite(a),
                    None => Bound::Unbounded,
                },
            );
            changed = true;
        }
        if !changed {
            break;
        }
    }
    // Anything unresolved reaches a cycle through edges the taint sweep
    // missed (defensive; taint propagation should have caught it).
    for n in &nodes {
        depth.entry((*n).to_string()).or_insert(Bound::Unbounded);
        amp.entry((*n).to_string()).or_insert(Bound::Unbounded);
    }

    let mut roots: BTreeSet<String> = BTreeSet::new();
    if model.edges.iter().any(|e| e.periodic) {
        roots.insert("periodic".to_string());
    }
    for ev in &ctx.external_events {
        if out_edges.contains_key(ev.as_str()) {
            roots.insert(ev.clone());
        }
    }

    CostReport {
        depth,
        amplification: amp,
        roots: roots.into_iter().collect(),
    }
}

/// Emit P2W602 for super-linear root paths.
pub(crate) fn check(model: &FlowModel, ctx: &AnalysisCtx, diags: &mut Diagnostics) {
    let mut out_edges: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, e) in model.edges.iter().enumerate() {
        out_edges.entry(e.from.as_str()).or_default().push(i);
    }
    let report = analyze(model, ctx);

    let mut reported: BTreeSet<(String, usize)> = BTreeSet::new();
    for root in &report.roots {
        // DFS over simple paths accumulating unbounded-join degree;
        // report the shortest prefix that turns super-linear.
        let mut stack: Vec<(Vec<usize>, u32)> = out_edges
            .get(root.as_str())
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .map(|&i| (vec![i], model.edges[i].fanout.degree))
            .collect();
        // Deterministic order: smallest edge index first off the stack.
        stack.reverse();
        while let Some((path, degree)) = stack.pop() {
            if reported.len() >= MAX_SUPERLINEAR_REPORTS {
                return;
            }
            let Some(&last) = path.last() else { continue };
            if degree >= 2 {
                let key = (root.clone(), model.edges[last].rule);
                if reported.insert(key) {
                    let rendered = render_hops(model, root, &path);
                    let factors: Vec<&str> = path
                        .iter()
                        .flat_map(|&i| model.edges[i].fanout.factors.iter())
                        .filter(|f| f.ends_with("\u{d7}N") || f.contains("\u{d7}N"))
                        .map(String::as_str)
                        .collect();
                    let anchor = &model.rules[model.edges[last].rule];
                    let mut d = Diagnostic::new(
                        "P2W602",
                        Severity::Warning,
                        format!(
                            "event '{root}' amplifies super-linearly: {rendered} \
                             multiplies through unbounded tables ({})",
                            factors.join(", ")
                        ),
                    )
                    .with_span(anchor.span)
                    .with_context(anchor.label.clone())
                    .with_help(
                        "key the probed tables (or bound their size) so each hop \
                         matches a bounded row set",
                    );
                    d.unit = anchor.unit;
                    diags.push(d);
                }
                continue; // do not extend past the first violation
            }
            if path.len() >= 16 {
                continue;
            }
            let head = model.edges[last].to.as_str();
            // Simple paths only: never revisit a relation on the path.
            let on_path = |rel: &str| {
                model.edges[path[0]].from == rel || path.iter().any(|&i| model.edges[i].to == rel)
            };
            if let Some(next) = out_edges.get(head) {
                for &i in next.iter().rev() {
                    if on_path(model.edges[i].to.as_str()) {
                        continue;
                    }
                    let mut p = path.clone();
                    p.push(i);
                    stack.push((p, degree + model.edges[i].fanout.degree));
                }
            }
        }
    }
}

/// `periodic -[r0]-> start -[r1]-> mid -[r2]-> out`.
fn render_hops(model: &FlowModel, root: &str, path: &[usize]) -> String {
    use std::fmt::Write;
    let mut out = String::from(root);
    for &i in path {
        let e = &model.edges[i];
        let arrow = if e.remote { "=>" } else { "->" };
        let _ = write!(out, " -[{}]{arrow} {}", model.rules[e.rule].label, e.to);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::build_model;
    use p2_overlog::parse_program;

    fn model_of(src: &str) -> (FlowModel, AnalysisCtx) {
        let p = parse_program(src).unwrap();
        let ctx = AnalysisCtx::default();
        (build_model(&[&p], &ctx), ctx)
    }

    #[test]
    fn linear_chain_has_exact_bounds() {
        let (m, ctx) = model_of(
            "materialize(peer, infinity, 8, keys(1, 2)).\n\
             hb1 beat@P(N, E) :- periodic@N(E, 5), peer@N(P).\n\
             hb2 seen@N(F) :- beat@N(F, E).",
        );
        let r = analyze(&m, &ctx);
        // periodic fires hb1: ≤8 beats, each derives ≤1 seen → 8·(1+1).
        assert_eq!(r.amplification.get("periodic"), Some(&Bound::Finite(16)));
        assert_eq!(r.depth.get("periodic"), Some(&Bound::Finite(2)));
        assert_eq!(r.amplification.get("beat"), Some(&Bound::Finite(1)));
        assert_eq!(r.roots, vec!["periodic".to_string()]);
    }

    #[test]
    fn cycle_reaching_roots_are_unbounded() {
        let (m, ctx) = model_of(
            "r0 ping@N(E) :- periodic@N(E, 5).\n\
             r1 pong@N(X) :- ping@N(X).\n\
             r2 ping@N(X) :- pong@N(X).",
        );
        let r = analyze(&m, &ctx);
        assert_eq!(r.amplification.get("periodic"), Some(&Bound::Unbounded));
        assert_eq!(r.depth.get("ping"), Some(&Bound::Unbounded));
    }

    #[test]
    fn superlinear_path_warns() {
        let (m, ctx) = model_of(
            "materialize(big1, infinity, infinity, keys(1, 2)).\n\
             materialize(big2, infinity, infinity, keys(1, 2)).\n\
             r0 start@N(E) :- periodic@N(E, 10).\n\
             r1 mid@N(Y) :- start@N(E), big1@N(Y).\n\
             r2 fan@N(Y, Z) :- mid@N(Y), big2@N(Z).",
        );
        let mut d = Diagnostics::new();
        check(&m, &ctx, &mut d);
        assert_eq!(d.items.len(), 1, "{d:?}");
        assert_eq!(d.items[0].code, "P2W602");
        assert!(
            d.items[0].message.contains("big1"),
            "{}",
            d.items[0].message
        );
        assert!(
            d.items[0].message.contains("big2"),
            "{}",
            d.items[0].message
        );
    }

    #[test]
    fn single_unbounded_join_is_linear_enough() {
        let (m, ctx) = model_of(
            "materialize(big, infinity, infinity, keys(1, 2)).\n\
             r0 start@N(E) :- periodic@N(E, 10).\n\
             r1 out@N(Y) :- start@N(E), big@N(Y).",
        );
        let mut d = Diagnostics::new();
        check(&m, &ctx, &mut d);
        assert!(d.items.is_empty(), "{d:?}");
    }

    #[test]
    fn keyed_probe_is_multiplicity_one() {
        let (m, ctx) = model_of(
            "materialize(big, infinity, infinity, keys(1, 2)).\n\
             r0 start@N(Y) :- periodic@N(E, 10), Y := E.\n\
             r1 out@N(Y) :- start@N(Y), big@N(Y).",
        );
        let r = analyze(&m, &ctx);
        // keys(1,2) = (N, Y), both bound by the trigger: ×1.
        assert_eq!(r.amplification.get("start"), Some(&Bound::Finite(1)));
    }
}
