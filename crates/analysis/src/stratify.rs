//! Stratification safety (P2E603) and stratum assignment.
//!
//! Aggregation over a relation that recursively depends on the
//! aggregate's own output has no well-defined fixpoint: every round of
//! the loop can revise the aggregate, which revises the loop. Classic
//! Datalog rejects such programs; this pass does the same over the
//! **materialized-relation** dependency graph — edges run from each
//! body table to a materialized (non-`delete`) head, marked aggregating
//! when the rule's head carries an aggregate. An aggregating edge whose
//! endpoints share a cyclic strongly connected component is `P2E603`.
//!
//! Event relations are deliberately excluded: an aggregate on an event
//! path (Chord's `l2` min over fingers, the ping protocol's
//! round-trip counts) ranges over *table* state per event instant and
//! recurses through time, which is cascade-analysis territory
//! (`P2W601`), not a fixpoint violation. `delete` heads are excluded
//! for the same reason the cascade graph drops them: a deletion
//! revises, it does not derive.
//!
//! The same graph yields the **stratum order**: stratum(R) is the
//! maximum number of aggregating edges on any path into R's component,
//! so every relation an aggregate ranges over sits in a strictly lower
//! stratum and the planner may settle stratum k before firing stratum
//! k+1. The assignment depends only on the edge set, never on rule
//! order (a property the test suite pins with a reordering proptest).

use crate::cascade::{is_cyclic, relation_graph, strongly_connected, FlowModel};
use p2_overlog::{Diagnostic, Diagnostics, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// Emit P2E603 findings and return the relation → stratum map for every
/// materialized relation in the model.
pub(crate) fn check(model: &FlowModel, diags: &mut Diagnostics) -> BTreeMap<String, usize> {
    let (nodes, adj) = relation_graph(model.strat_edges.iter().map(|e| (&*e.from, &*e.to)));
    let sccs = strongly_connected(&nodes, &adj);
    let mut scc_of: BTreeMap<&str, usize> = BTreeMap::new();
    let mut cyclic: Vec<bool> = Vec::with_capacity(sccs.len());
    for (i, scc) in sccs.iter().enumerate() {
        for n in scc {
            scc_of.insert(n, i);
        }
        cyclic.push(is_cyclic(scc, &adj));
    }

    // P2E603: an aggregating edge inside a cyclic component.
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for e in &model.strat_edges {
        if !e.agg {
            continue;
        }
        let (Some(&sf), Some(&st)) = (scc_of.get(e.from.as_str()), scc_of.get(e.to.as_str()))
        else {
            continue;
        };
        if sf == st && cyclic[sf] && flagged.insert(e.rule) {
            let rule = &model.rules[e.rule];
            let mut d = Diagnostic::new(
                "P2E603",
                Severity::Error,
                format!(
                    "aggregate head '{}' is derived, through recursion, from the \
                     relation '{}' it ranges over — no stratification exists and \
                     the fixpoint is undefined",
                    e.to, e.from
                ),
            )
            .with_span(rule.span)
            .with_context(rule.label.clone())
            .with_help(
                "break the recursive loop, or aggregate from a snapshot copy of \
                 the table instead of the table itself",
            );
            d.unit = rule.unit;
            diags.push(d);
        }
    }

    // Stratum per component: longest aggregating-edge path over the
    // condensation. Cross-component edges only; the graph of components
    // is a DAG, so a fixpoint sweep settles in ≤ |SCC| rounds.
    let mut stratum: Vec<usize> = vec![0; sccs.len()];
    loop {
        let mut changed = false;
        for e in &model.strat_edges {
            let (Some(&sf), Some(&st)) = (scc_of.get(e.from.as_str()), scc_of.get(e.to.as_str()))
            else {
                continue;
            };
            if sf == st {
                continue;
            }
            let want = stratum[sf] + usize::from(e.agg);
            if want > stratum[st] {
                stratum[st] = want;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = BTreeMap::new();
    for (i, scc) in sccs.iter().enumerate() {
        for n in scc {
            out.insert((*n).to_string(), stratum[i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::build_model;
    use crate::AnalysisCtx;
    use p2_overlog::parse_program;

    fn run(src: &str) -> (BTreeMap<String, usize>, Diagnostics) {
        let p = parse_program(src).unwrap();
        let model = build_model(&[&p], &AnalysisCtx::default());
        let mut d = Diagnostics::new();
        let strata = check(&model, &mut d);
        (strata, d)
    }

    #[test]
    fn aggregate_through_recursion_is_rejected() {
        let (_, d) = run("materialize(item, infinity, 10, keys(1, 2)).\n\
                          materialize(total, infinity, 1, keys(1)).\n\
                          r1 total@N(sum<V>) :- item@N(V).\n\
                          r2 item@N(T) :- total@N(T).");
        assert_eq!(d.items.len(), 1, "{d:?}");
        assert_eq!(d.items[0].code, "P2E603");
    }

    #[test]
    fn aggregate_on_event_path_is_not_flagged() {
        // Chord's l2 shape: a min over fingers on a recursive *event*
        // path. Temporal recursion, not a fixpoint violation.
        let (_, d) = run("materialize(finger, infinity, 64, keys(1, 2)).\n\
                          l2 best@N(K, min<D>) :- lookup@N(K), finger@N(P, F), D := K - F.\n\
                          l3 lookup@N(K) :- best@N(K, D), K > D.");
        assert!(d.items.is_empty(), "{d:?}");
    }

    #[test]
    fn strata_count_aggregate_hops() {
        let (strata, d) = run("materialize(raw, 30, 100, keys(1, 2)).\n\
             materialize(perNode, 30, 10, keys(1, 2)).\n\
             materialize(totals, 30, 1, keys(1)).\n\
             r0 raw@N(X) :- ev@N(X).\n\
             r1 perNode@N(X, count<*>) :- raw@N(X).\n\
             r2 totals@N(sum<C>) :- perNode@N(X, C).");
        assert!(d.items.is_empty(), "{d:?}");
        assert_eq!(strata.get("raw"), Some(&0));
        assert_eq!(strata.get("perNode"), Some(&1));
        assert_eq!(strata.get("totals"), Some(&2));
    }

    #[test]
    fn plain_table_recursion_is_stratifiable() {
        let (strata, d) = run("materialize(t, infinity, 10, keys(1)).\n\
                               materialize(u, infinity, 10, keys(1)).\n\
                               r1 u@N(X) :- t@N(X).\n\
                               r2 t@N(X) :- u@N(X).");
        assert!(d.items.is_empty(), "{d:?}");
        assert_eq!(strata.get("t"), strata.get("u"));
    }
}
