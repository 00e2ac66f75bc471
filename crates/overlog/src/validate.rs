//! Static validation of parsed programs.
//!
//! Runs before planning — errors surface when a query is installed, not
//! when it first fires. The checks:
//!
//! 1. **Range restriction** — every variable used in a rule head (location,
//!    plain args, expression args, aggregate variables) must be bound by a
//!    body predicate or an assignment. Datalog safety; also what makes a
//!    rule executable as a strand.
//! 2. **Left-to-right binding for non-predicates** — an assignment's
//!    expression and every condition may only use variables bound by terms
//!    to their *left* (predicates bind; assignments bind their target).
//!    This matches the strand execution order of Figure 1.
//! 3. **Aggregate well-formedness** — at most one aggregate per head, only
//!    in heads, never in `delete` rules, aggregate variable bound.
//! 4. **Facts are ground** — a rule with no body must have constant args.
//! 5. **No duplicate `materialize`** of the same table in one program.
//! 6. **Wildcards only in body predicates.**
//! 7. **Arity consistency** — strict-arity matching (a tuple matches a
//!    predicate only with the exact field count) makes mixed arities for
//!    one relation almost certainly a bug; every occurrence of a relation
//!    within a program must agree, `periodic` is always
//!    `(loc, nonce, period)`, and a `materialize`'s `keys(...)` must fit
//!    within the relation's used arity.
//!
//! Findings are reported through the [`Diagnostics`] sink — every problem
//! in the program at once, each with a source span and a stable code.
//! [`validate`] returns the full sink; [`validate_strict`] is the
//! first-error bridge the planner and `overlog::compile` reject on.

use crate::ast::*;
use crate::diag::{Diagnostic, Diagnostics, Severity};
use std::collections::HashSet;
use std::fmt;

/// A validation error. `rule` names the offending rule by label (or
/// 1-based index when unlabeled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Which rule or statement.
    pub rule: String,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in {}: {}", self.rule, self.message)
    }
}

impl std::error::Error for ValidateError {}

/// Validate a whole program, collecting **every** finding.
pub fn validate(program: &Program) -> Diagnostics {
    let mut diags = Diagnostics::new();
    validate_statements(program, &mut diags);
    validate_arities(&[program], &["program"], &mut diags);
    diags
}

/// Validate and reject on the first error (the historical `Result`
/// surface; the planner and [`crate::compile`] gate installs on it).
pub fn validate_strict(program: &Program) -> Result<(), ValidateError> {
    match validate(program).first_error() {
        Some(d) => Err(ValidateError {
            rule: d.context.clone().unwrap_or_else(|| "program".into()),
            message: d.message.clone(),
        }),
        None => Ok(()),
    }
}

/// Checks 1–6: per-statement validation (everything except the
/// cross-statement arity pass, [`validate_arities`]). Exposed separately
/// so the `analysis` crate can run it per source unit and the arity
/// pass once across the whole unit *stack*.
pub fn validate_statements(program: &Program, diags: &mut Diagnostics) {
    let mut seen_tables = HashSet::new();
    let mut rule_idx = 0usize;
    for s in &program.statements {
        match s {
            Statement::Materialize(m) => {
                let ctx = format!("materialize({})", m.table);
                if !seen_tables.insert(m.table.clone()) {
                    diags.push(
                        Diagnostic::new(
                            "P2E106",
                            Severity::Error,
                            "table declared twice in one program",
                        )
                        .with_span(m.span)
                        .with_context(ctx.clone()),
                    );
                }
                if m.keys.is_empty() {
                    diags.push(
                        Diagnostic::new(
                            "P2E106",
                            Severity::Error,
                            "keys(...) must name at least one field",
                        )
                        .with_span(m.span)
                        .with_context(ctx),
                    );
                }
            }
            Statement::Rule(r) => {
                rule_idx += 1;
                let name = r
                    .label
                    .clone()
                    .unwrap_or_else(|| format!("rule #{rule_idx}"));
                validate_rule(r, &name, diags);
            }
        }
    }
}

/// Check 7, over a **stack** of source units (a single program is a
/// stack of one): every occurrence of a relation must use one field
/// count, `periodic` is always `(location, nonce, period)`, `past` has
/// its fixed prefix, `keys(...)` must fit the used arity, and no two
/// units may declare the same table. Each finding is stamped with the
/// index of the unit it is in; `unit_names` says "where" when a
/// finding points at another unit.
pub fn validate_arities(programs: &[&Program], unit_names: &[&str], diags: &mut Diagnostics) {
    use std::collections::HashMap;
    let mut err = |unit: usize, code, span, context: &str, message: String| {
        let mut d = Diagnostic::new(code, Severity::Error, message)
            .with_span(span)
            .with_context(context);
        d.unit = unit;
        diags.push(d);
    };
    // relation -> (arity, rule first seen in, unit)
    let mut firsts: HashMap<&str, (usize, String, usize)> = HashMap::new();
    let mut declared: HashMap<&str, usize> = HashMap::new();
    for (unit, program) in programs.iter().enumerate() {
        let mut idx = 0usize;
        for s in &program.statements {
            let r = match s {
                Statement::Rule(r) => r,
                Statement::Materialize(m) => {
                    // Same-unit duplicates are validate_statements'
                    // P2E106; here only cross-unit collisions.
                    let first_unit = *declared.entry(&m.table).or_insert(unit);
                    if first_unit != unit {
                        err(
                            unit,
                            "P2E106",
                            m.span,
                            &format!("materialize({})", m.table),
                            format!(
                                "table '{}' is already declared by {}",
                                m.table, unit_names[first_unit]
                            ),
                        );
                    }
                    continue;
                }
            };
            idx += 1;
            let rule = r.label.clone().unwrap_or_else(|| format!("rule #{idx}"));
            for p in std::iter::once(&r.head).chain(r.body_predicates()) {
                let arity = p.args.len();
                // `periodic` has one shape; `past`'s arity tracks the
                // archived relation it names, so only its fixed prefix
                // is checked. Neither takes part in cross-occurrence
                // consistency.
                let fixed = match p.name.as_str() {
                    "periodic" => Some((arity == 3, "(location, nonce, period)")),
                    "past" => Some((arity >= 4, "(location, relation, t0, t1, fields...)")),
                    _ => None,
                };
                if let Some((ok, shape)) = fixed {
                    if !ok {
                        let message = format!("{} takes {shape}; found {arity} fields", p.name);
                        err(unit, "P2E109", p.span, &rule, message);
                    }
                    continue;
                }
                let (a, first, first_unit) = firsts
                    .entry(&p.name)
                    .or_insert_with(|| (arity, rule.clone(), unit));
                if *a != arity {
                    let wher = if *first_unit == unit {
                        first.clone()
                    } else {
                        format!("{first} ({})", unit_names[*first_unit])
                    };
                    err(
                        unit,
                        "P2E108",
                        p.span,
                        &rule,
                        format!(
                            "relation '{}' used with {arity} fields here but {a} fields in {wher}; \
                             strict-arity matching means these can never match each other",
                            p.name
                        ),
                    );
                }
            }
        }
    }
    for (unit, program) in programs.iter().enumerate() {
        for m in program.materializations() {
            let Some(key_max) = m.keys.iter().max() else {
                continue; // empty keys already reported (P2E106)
            };
            if let Some((arity, first, _)) = firsts.get(m.table.as_str()) {
                if key_max > arity {
                    err(
                        unit,
                        "P2E110",
                        m.span,
                        &format!("materialize({})", m.table),
                        format!(
                            "keys(...) names field {key_max} but '{}' is used with \
                             {arity} fields (in {first})",
                            m.table
                        ),
                    );
                }
            }
        }
    }
}

fn validate_rule(r: &Rule, name: &str, diags: &mut Diagnostics) {
    let err = |diags: &mut Diagnostics, code: &'static str, span, message: String| {
        diags.push(
            Diagnostic::new(code, Severity::Error, message)
                .with_span(span)
                .with_context(name),
        );
    };

    // Facts: no body => all head args must be constants.
    if r.body.is_empty() {
        for a in &r.head.args {
            match a {
                Arg::Const(_) => {}
                other => err(
                    diags,
                    "P2E104",
                    r.head.span,
                    format!("fact argument must be a constant, found {other:?}"),
                ),
            }
        }
        if r.delete {
            err(diags, "P2E107", r.span, "a delete rule needs a body".into());
        }
        return;
    }

    if r.body_predicates().count() == 0 {
        err(
            diags,
            "P2E107",
            r.span,
            "rule body needs at least one predicate".into(),
        );
    }

    // Walk the body left to right, tracking bound variables.
    let mut bound: HashSet<String> = HashSet::new();
    for t in &r.body {
        match t {
            Term::Pred(p) => {
                // Expression args in body predicates are selections over
                // already-bound variables.
                for a in &p.args {
                    if let Arg::Expr(e) = a {
                        check_bound(e, &bound, p.span, "body predicate expression", name, diags);
                    }
                    if let Arg::Agg { .. } = a {
                        err(
                            diags,
                            "P2E103",
                            p.span,
                            format!("aggregate not allowed in body predicate '{}'", p.name),
                        );
                    }
                }
                // Then the predicate's variables become bound.
                for a in &p.args {
                    if let Arg::Var(v) = a {
                        bound.insert(v.clone());
                    }
                }
            }
            Term::Assign { var, expr, span } => {
                check_bound(expr, &bound, *span, "assignment", name, diags);
                bound.insert(var.clone());
            }
            Term::Cond { expr, span } => {
                check_bound(expr, &bound, *span, "condition", name, diags);
            }
        }
    }

    // Head checks.
    let mut agg_count = 0;
    for (i, a) in r.head.args.iter().enumerate() {
        match a {
            Arg::Var(v) => {
                if !bound.contains(v) {
                    if i == 0 {
                        err(
                            diags,
                            "P2E111",
                            r.head.span,
                            format!(
                                "head location {v} is not bound by the body — \
                                 the deduced tuple has no destination"
                            ),
                        );
                    } else {
                        err(
                            diags,
                            "P2E101",
                            r.head.span,
                            format!("head variable {v} is not bound by the body"),
                        );
                    }
                }
            }
            Arg::Const(_) => {}
            Arg::Wildcard => {
                err(
                    diags,
                    "P2E105",
                    r.head.span,
                    "wildcard '_' not allowed in rule head".into(),
                );
            }
            Arg::Agg { func, over } => {
                agg_count += 1;
                if i == 0 {
                    err(
                        diags,
                        "P2E103",
                        r.head.span,
                        "aggregate cannot be the location field".into(),
                    );
                }
                if r.delete {
                    err(
                        diags,
                        "P2E103",
                        r.head.span,
                        "aggregates not allowed in delete rules".into(),
                    );
                }
                if let Some(v) = over {
                    if !bound.contains(v) {
                        err(
                            diags,
                            "P2E103",
                            r.head.span,
                            format!(
                                "aggregate variable {v} in {}<{v}> is not bound",
                                func.name()
                            ),
                        );
                    }
                }
            }
            Arg::Expr(e) => {
                let mut vs = Vec::new();
                e.free_vars(&mut vs);
                for v in vs {
                    if !bound.contains(&v) {
                        err(
                            diags,
                            "P2E101",
                            r.head.span,
                            format!("head expression uses unbound variable {v}"),
                        );
                    }
                }
            }
        }
    }
    if agg_count > 1 {
        err(
            diags,
            "P2E103",
            r.head.span,
            "at most one aggregate per rule head".into(),
        );
    }
}

fn check_bound(
    e: &Expr,
    bound: &HashSet<String>,
    span: crate::lexer::Span,
    ctx: &str,
    rule: &str,
    diags: &mut Diagnostics,
) {
    let mut vs = Vec::new();
    e.free_vars(&mut vs);
    for v in vs {
        if !bound.contains(&v) {
            diags.push(
                Diagnostic::new(
                    "P2E102",
                    Severity::Error,
                    format!("{ctx} uses variable {v} before it is bound"),
                )
                .with_span(span)
                .with_context(rule),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<(), ValidateError> {
        validate_strict(&parse_program(src).unwrap())
    }

    #[test]
    fn accepts_paper_rules() {
        let srcs = [
            "rp3 inconsistentPred@NAddr() :- respBestSucc@NAddr(PAddr, S), pred@NAddr(PID, PAddr), S != NAddr.",
            "os3 c@N(A, count<*>) :- periodic@N(E, 60), oscill@N(A, T).",
            "cs1 conProbe@N(P, K, T) :- periodic@N(P, 40), K := f_randID(), T := f_now().",
            "l2 d@N(K, R, E, min<D>) :- node@N(NID), lookup@N(K, R, E), finger@N(FP, FID, FA), D := K - FID - 1, FID in (NID, K).",
            "cs10 delete t@N(P, T, C) :- c@N(P, X), t@N(P, T, C).",
            r#"node@"n1"(99)."#,
        ];
        for s in srcs {
            check(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn rejects_unbound_head_var() {
        let e = check("r h@A(X) :- t@A(Y).").unwrap_err();
        assert!(e.message.contains('X'));
    }

    #[test]
    fn rejects_unbound_head_loc() {
        let e = check("r h@Z(Y) :- t@A(Y).").unwrap_err();
        assert!(e.message.contains('Z'));
    }

    #[test]
    fn rejects_condition_before_binding() {
        let e = check("r h@A(X) :- t@A(X), Y > 3.").unwrap_err();
        assert!(e.message.contains('Y'));
        // Bound later doesn't help — strand order is left-to-right.
        let e = check("r h@A(X) :- t@A(X), Y > 3, u@A(Y).").unwrap_err();
        assert!(e.message.contains('Y'));
    }

    #[test]
    fn rejects_assignment_of_unbound() {
        let e = check("r h@A(X) :- t@A(Z), X := Y + 1.").unwrap_err();
        assert!(e.message.contains('Y'));
    }

    #[test]
    fn rejects_two_aggregates() {
        let e = check("r h@A(count<*>, max<X>) :- t@A(X).").unwrap_err();
        assert!(e.message.contains("one aggregate"));
    }

    #[test]
    fn rejects_aggregate_in_delete() {
        let e = check("r delete h@A(count<*>) :- t@A(X).").unwrap_err();
        assert!(e.message.contains("delete"));
    }

    #[test]
    fn rejects_unbound_aggregate_var() {
        let e = check("r h@A(min<D>) :- t@A(X).").unwrap_err();
        assert!(e.message.contains('D'));
    }

    #[test]
    fn rejects_nonground_fact() {
        let e = check("node@A(X).").unwrap_err();
        assert!(e.message.contains("constant"));
    }

    #[test]
    fn rejects_wildcard_in_head() {
        let e = check("r h@A(_) :- t@A(X).").unwrap_err();
        assert!(e.message.contains('_'));
    }

    #[test]
    fn rejects_duplicate_materialize() {
        let e =
            check("materialize(t, 10, 10, keys(1)). materialize(t, 20, 5, keys(1)).").unwrap_err();
        assert!(e.message.contains("twice"));
    }

    #[test]
    fn rejects_condition_only_body() {
        // A body with only conditions has nothing to trigger on.
        let e = check("r h@A() :- 1 == 1.").unwrap_err();
        assert!(e.message.contains("predicate"));
    }

    #[test]
    fn wildcard_in_body_ok() {
        check("r h@A(X) :- t@A(X, _).").unwrap();
    }

    #[test]
    fn rejects_mixed_arity_relation() {
        let e = check(
            "r1 out@N(X) :- ev@N(X).
             r2 out@N(X, Y) :- ev2@N(X, Y).",
        )
        .unwrap_err();
        assert!(e.message.contains("out"), "{e}");
        assert!(e.message.contains("never match"), "{e}");
    }

    #[test]
    fn rejects_bad_periodic_shape() {
        let e = check("r h@N(E) :- periodic@N(E).").unwrap_err();
        assert!(e.message.contains("periodic"), "{e}");
        let e = check("r h@N(E) :- periodic@N(E, 1, 2).").unwrap_err();
        assert!(e.message.contains("periodic"), "{e}");
    }

    #[test]
    fn rejects_keys_beyond_used_arity() {
        let e = check(
            "materialize(t, 10, 10, keys(1, 5)).
             r1 t@N(X) :- ev@N(X).",
        )
        .unwrap_err();
        assert!(e.message.contains("keys"), "{e}");
        // Without any use, keys can't be bounds-checked: accepted.
        check("materialize(t, 10, 10, keys(1, 5)).").unwrap();
    }

    #[test]
    fn head_agg_location_rejected() {
        let e = check("r h@A(X) :- t@A(X).").and(check("r h(count<*>, X) :- t@A(X)."));
        assert!(e.unwrap_err().message.contains("location"));
    }

    #[test]
    fn sink_collects_every_finding_with_codes_and_spans() {
        // Three independent errors in one program: the sink reports all
        // of them, where the old Result stopped at the first.
        let src = "r1 h@A(X) :- t@A(Y).
r2 g@A(_) :- t@A(Y).
r3 k@A(Y) :- t@A(Y), Z > 1.";
        let ds = validate(&parse_program(src).unwrap());
        assert_eq!(ds.count(Severity::Error), 3, "{ds:?}");
        let codes: Vec<&str> = ds.items.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"P2E101"));
        assert!(codes.contains(&"P2E105"));
        assert!(codes.contains(&"P2E102"));
        // Every finding is positioned on its own line.
        let lines: Vec<u32> = ds.items.iter().map(|d| d.span.unwrap().line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn unbound_head_location_has_its_own_code() {
        let ds = validate(&parse_program("r h@Z(Y) :- t@A(Y).").unwrap());
        assert_eq!(ds.items.len(), 1);
        assert_eq!(ds.items[0].code, "P2E111");
    }

    #[test]
    fn strict_matches_first_sink_error() {
        let src = "r1 h@A(X) :- t@A(Y). r2 g@A(_) :- t@A(Y).";
        let e = check(src).unwrap_err();
        assert_eq!(e.rule, "r1");
        assert!(e.message.contains('X'));
    }
}
