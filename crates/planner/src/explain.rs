//! EXPLAIN: render a [`CompiledProgram`] as stable, human-readable text.
//!
//! The output is **deterministic** — it depends only on the plan data,
//! never on hash iteration order, timestamps, or addresses — so it can be
//! snapshot-tested (`crates/planner/tests/explain_snapshots.rs`) and
//! diffed across planner changes. Slots are printed by their source-level
//! variable names ([`Strand::slot_names`]); the trailing `#k` form is
//! used only for synthetic slots with no name (which today cannot
//! happen, but EXPLAIN must not panic on future plans).

use crate::expr::PExpr;
use crate::plan::{
    CompiledProgram, FieldMatch, FieldOut, HeadSpec, MatchSpec, Op, Strand, Trigger,
};
use p2_overlog::UnOp;
use std::fmt::Write as _;

/// Render the full program plan.
pub fn explain(p: &CompiledProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "program: {} table(s), {} fact(s), {} strand(s)",
        p.tables.len(),
        p.facts.len(),
        p.strands.len()
    );

    for t in &p.tables {
        let lifetime = match t.lifetime_secs {
            Some(s) => format!("{s}s"),
            None => "infinity".into(),
        };
        let max = match t.max_rows {
            Some(n) => n.to_string(),
            None => "infinity".into(),
        };
        let keys: Vec<String> = t.key_fields.iter().map(|k| k.to_string()).collect();
        let _ = writeln!(
            out,
            "table {} (lifetime={lifetime}, max={max}, keys={})",
            t.name,
            keys.join(",")
        );
    }

    for f in &p.facts {
        let _ = writeln!(out, "fact {f}");
    }

    for s in &p.strands {
        out.push('\n');
        explain_strand(s, &mut out);
    }

    if !p.prefix_groups.is_empty() {
        out.push('\n');
        for g in &p.prefix_groups {
            let ids: Vec<&str> = g
                .members
                .iter()
                .map(|&i| p.strands[i].strand_id.as_str())
                .collect();
            let _ = writeln!(
                out,
                "shared prefix: strands {} share {} op(s)",
                ids.join(", "),
                g.shared_ops
            );
        }
    }

    if !p.diagnostics.is_empty() {
        out.push('\n');
        for d in &p.diagnostics {
            let _ = writeln!(out, "warning [{}]: {}", d.strand_id, d.message);
        }
    }

    if !p.index_requests.is_empty() {
        out.push('\n');
        for (table, field) in &p.index_requests {
            let _ = writeln!(out, "index request: {table} field {field}");
        }
    }

    out
}

fn explain_strand(s: &Strand, out: &mut String) {
    let _ = writeln!(out, "strand {}  [rule {}]", s.strand_id, s.rule_label);
    let trig = match &s.trigger {
        Trigger::Event { name } => format!("event {name}"),
        Trigger::TableInsert { name } => format!("insert into {name}"),
        Trigger::Periodic { period_secs } => format!("periodic every {period_secs}s"),
    };
    let _ = writeln!(out, "  trigger: {trig}");
    let _ = writeln!(
        out,
        "  match:   {}({})",
        s.trigger.dispatch_name(),
        match_fields(&s.trigger_match, s)
    );
    for op in &s.ops {
        match op {
            Op::Join { table, match_spec } => {
                let probe = match match_spec.probe_field() {
                    Some(f) => format!("probe field {f}"),
                    None => "full scan".into(),
                };
                let _ = writeln!(
                    out,
                    "  op: join {table}({})  [{probe}]",
                    match_fields(match_spec, s)
                );
            }
            Op::ArchiveScan {
                table,
                t0,
                t1,
                match_spec,
            } => {
                let _ = writeln!(
                    out,
                    "  op: past {table}[{} .. {}]({})",
                    pexpr(t0, s),
                    pexpr(t1, s),
                    match_fields(match_spec, s)
                );
            }
            Op::Select(e) => {
                let _ = writeln!(out, "  op: select {}", pexpr(e, s));
            }
            Op::Assign { slot, expr } => {
                let _ = writeln!(
                    out,
                    "  op: assign {} := {}",
                    slot_name(*slot, s),
                    pexpr(expr, s)
                );
            }
        }
    }
    let _ = writeln!(out, "  head: {}", head(&s.head, s));
    let _ = writeln!(out, "  slots: {} ({})", s.slots, s.slot_names.join(", "));
    let _ = writeln!(out, "  est. fanout: {}", s.est_fanout);
    let _ = writeln!(out, "  stratum: {}", s.stratum);
}

fn match_fields(ms: &MatchSpec, s: &Strand) -> String {
    let fields: Vec<String> = ms
        .fields
        .iter()
        .map(|f| match f {
            FieldMatch::Bind(slot) => format!("bind {}", slot_name(*slot, s)),
            FieldMatch::EqVar(slot) => format!("={}", slot_name(*slot, s)),
            FieldMatch::EqConst(v) => format!("={v}"),
            FieldMatch::EqExpr(e) => format!("=({})", pexpr(e, s)),
            FieldMatch::Ignore => "_".into(),
        })
        .collect();
    fields.join(", ")
}

fn head(h: &HeadSpec, s: &Strand) -> String {
    let fields: Vec<String> = h
        .fields
        .iter()
        .map(|f| match f {
            FieldOut::Slot(slot) => slot_name(*slot, s),
            FieldOut::Const(v) => v.to_string(),
            FieldOut::Expr(e) => pexpr(e, s),
            FieldOut::Agg => {
                #[expect(
                    clippy::expect_used,
                    reason = "an Agg field is only planned with an agg"
                )]
                let agg = h.agg.as_ref().expect("Agg field implies agg plan");
                let over = match &agg.over {
                    Some(e) => pexpr(e, s),
                    None => "*".into(),
                };
                let grouped = if agg.group_bound_by_trigger {
                    ", group bound by trigger"
                } else {
                    ""
                };
                let func = format!("{:?}", agg.func).to_lowercase();
                format!("{func}<{over}>{grouped}")
            }
        })
        .collect();
    let delete = if h.delete { "delete " } else { "" };
    format!("{delete}{}({})", h.name, fields.join(", "))
}

fn slot_name(slot: usize, s: &Strand) -> String {
    s.slot_names
        .get(slot)
        .cloned()
        .unwrap_or_else(|| format!("#{slot}"))
}

fn pexpr(e: &PExpr, s: &Strand) -> String {
    match e {
        PExpr::Slot(i) => slot_name(*i, s),
        PExpr::Const(v) => v.to_string(),
        PExpr::Unary(UnOp::Neg, inner) => format!("-{}", pexpr(inner, s)),
        PExpr::Unary(UnOp::Not, inner) => format!("!{}", pexpr(inner, s)),
        PExpr::Binary(op, a, b) => {
            format!("({} {} {})", pexpr(a, s), op.symbol(), pexpr(b, s))
        }
        PExpr::In {
            expr,
            lo,
            hi,
            lo_closed,
            hi_closed,
        } => format!(
            "{} in {}{}, {}{}",
            pexpr(expr, s),
            if *lo_closed { "[" } else { "(" },
            pexpr(lo, s),
            pexpr(hi, s),
            if *hi_closed { "]" } else { ")" },
        ),
        PExpr::Call { func, args } => {
            let args: Vec<String> = args.iter().map(|a| pexpr(a, s)).collect();
            format!("{}({})", func.name(), args.join(", "))
        }
        PExpr::List(items) => {
            let items: Vec<String> = items.iter().map(|i| pexpr(i, s)).collect();
            format!("[{}]", items.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_program;
    use p2_overlog::parse_program;
    use std::collections::HashSet;

    #[test]
    fn explain_is_deterministic_and_complete() {
        let src = "materialize(t, 100, 10, keys(1)).
                   r1 out@N(X, Z) :- ev@N(X, Y), t@N(Z), Y > 3.";
        let p = compile_program(&parse_program(src).unwrap(), &HashSet::new()).unwrap();
        let a = explain(&p);
        let b = explain(&p);
        assert_eq!(a, b);
        assert!(a.contains("strand r1"));
        assert!(a.contains("trigger: event ev"));
        assert!(a.contains("op: select (Y > 3)"));
        assert!(a.contains("op: join t(=N, bind Z)"));
        assert!(a.contains("head: out(N, X, Z)"));
        assert!(a.contains("index request: t field 0"));
    }

    #[test]
    fn explain_renders_archive_scans() {
        let src = r#"f1 was@N(S) :- probe@N(T0, T1), past@N("succ", T0, T1, N, S)."#;
        let p = compile_program(&parse_program(src).unwrap(), &HashSet::new()).unwrap();
        let text = explain(&p);
        assert!(
            text.contains("op: past succ[T0 .. T1](=N, bind S)"),
            "{text}"
        );
    }

    #[test]
    fn explain_renders_aggregates_and_deletes() {
        let src = "materialize(t, 100, 100, keys(1, 2)).
                   c1 total@N(X, count<*>) :- ev@N(X), t@N(X, Y).
                   c2 delete t@N(P, T2) :- c@N(P), t@N(P, T2).";
        let p = compile_program(&parse_program(src).unwrap(), &HashSet::new()).unwrap();
        let text = explain(&p);
        assert!(text.contains("count<*>"));
        assert!(text.contains("head: delete t(N, P, T2)"));
    }
}
