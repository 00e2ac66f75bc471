#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # p2-analysis — static analysis of OverLog programs
//!
//! The paper's monitoring queries are deployed piecemeal onto live
//! systems; a typo'd relation name or a mis-typed key field silently
//! matches nothing and the monitor reports a healthy system. This crate
//! is the defence: a multi-diagnostic pipeline that runs over a *stack*
//! of source units (a base application plus the monitors installed on
//! top of it) and reports everything it finds through the
//! [`Diagnostics`] sink, each finding with a stable code and a source
//! span.
//!
//! Three analysis passes, on top of the front end's validation:
//!
//! * `types` *(private)* — **field/variable type inference** by
//!   unification across every rule, fact, and `materialize` in the
//!   stack. Conflicting uses of a relation field are `P2W201`;
//!   `keys(...)` over a field that never settles on a comparable type
//!   is `P2W202`.
//! * `location` *(private)* — **location safety**: a rule whose body
//!   predicates live at more than one location is not localizable
//!   (`P2W111`); a wildcard as a body location matches tuples
//!   regardless of their address (`P2W112`).
//! * `liveness` *(private)* — the **program dependency graph**:
//!   relations consumed but never produced (`P2W301`, with a
//!   did-you-mean hint), produced but never consumed (`P2N302`),
//!   declared tables nothing writes (`P2N303`), two transient events
//!   joined in one body (`P2W303`), soft-state leaks — an
//!   infinite-lifetime, infinite-size table transitively fed by
//!   `periodic` rules (`P2W304`) — and recursion through `delete`
//!   rules (`P2N401`).
//!
//! [`analyze`] runs the three passes over parsed programs (this is what
//! `Node::install` uses, with the node's catalog as
//! [`AnalysisCtx::known_tables`]). [`check_sources`] is the full `p2ql
//! check` driver: parse, per-unit validation, stack-wide arity
//! checking, the analysis passes, and — when the program is error-free
//! — a planner dry run that merges plan-time diagnostics (`P2W501`
//! dead rule, `P2W502` non-boolean selection) mapped back to rule
//! spans. See `DESIGN.md` §2.9 for the full code table.

mod cascade;
mod cost;
mod liveness;
mod location;
mod stratify;
mod types;

use p2_overlog::{
    parse_program, validate_arities, validate_statements, Diagnostic, Diagnostics, Program,
    Severity, SourceUnit, Span, Statement,
};
use p2_planner::{compile_program_with, PlanError, PlanOpts};
use std::collections::{BTreeMap, HashSet};

/// What the analysis knows about the world outside the source text.
#[derive(Debug, Clone, Default)]
pub struct AnalysisCtx {
    /// Relations already materialized where the program will run (the
    /// node's catalog at install time). Reads from and writes to these
    /// are legitimate even when no statement in the stack declares or
    /// produces them.
    pub known_tables: HashSet<String>,
    /// Event relations injected from outside the stack — an operator
    /// console or test harness (e.g. the profiling monitor's
    /// `traceResp` walk starts). Consuming one is legitimate even
    /// though no rule produces it; it still counts as a transient
    /// event everywhere else.
    pub external_events: HashSet<String>,
}

/// Run the analysis passes over a stack of parsed programs.
///
/// `programs[0]` is the bottom of the stack (the base application);
/// later units see earlier ones. Findings are stamped with the unit
/// index they refer to. This never reports the front end's validation
/// errors — run [`p2_overlog::validate()`] (or [`check_sources`]) for
/// those.
pub fn analyze(programs: &[&Program], ctx: &AnalysisCtx) -> Diagnostics {
    let mut diags = Diagnostics::new();
    types::check(programs, &mut diags);
    location::check(programs, &mut diags);
    liveness::check(programs, ctx, &mut diags);
    diags
}

/// Options for [`check_sources_with`].
#[derive(Debug, Clone, Default)]
pub struct CheckOpts {
    /// Run the deep flow passes (cascade termination, stratification,
    /// amplification bounds) after the shallow pipeline. They only run
    /// when the shallow stages found no errors — the flow graph is
    /// meaningless over a program that does not even plan.
    pub deep: bool,
}

/// A statically derived upper bound: either a concrete count or
/// provably unboundable by this analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// At most this many (tuples, or trigger hops).
    Finite(u64),
    /// No finite static bound — the relation reaches a trigger cycle or
    /// multiplies through a table with no declared size.
    Unbounded,
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Finite(n) => write!(f, "{n}"),
            Bound::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// What the deep flow passes derived about a program stack. This is the
/// contract the cascades a node's tracer records are validated against:
/// the per-episode cascade depth and output count measured from
/// `ruleExec` rows for root relation R must never exceed `depth[R]` /
/// `amplification[R]`.
#[derive(Debug, Clone, Default)]
pub struct FlowReport {
    /// Stratum per materialized relation: every relation an aggregate
    /// ranges over sits in a strictly lower stratum.
    pub strata: BTreeMap<String, usize>,
    /// Worst-case trigger-cascade depth out of each relation.
    pub depth: BTreeMap<String, Bound>,
    /// Worst-case count of tuples one tuple of each relation can
    /// transitively derive.
    pub amplification: BTreeMap<String, Bound>,
    /// External cascade roots: `periodic` (if any rule uses it) plus
    /// every [`AnalysisCtx::external_events`] entry that triggers a
    /// rule.
    pub roots: Vec<String>,
}

/// The result of [`check_sources`].
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Every finding, sorted by (unit, position).
    pub diags: Diagnostics,
    /// The parsed programs, one per unit. Empty when any unit failed to
    /// parse (analysis needs the whole stack).
    pub programs: Vec<Program>,
    /// Flow-analysis results; present only for deep, error-free runs.
    pub flow: Option<FlowReport>,
}

impl CheckReport {
    /// `check` passes when there are neither errors nor warnings
    /// (notes are informational).
    pub fn passes(&self) -> bool {
        !self.diags.has_errors() && self.diags.count(Severity::Warning) == 0
    }
}

/// The full `p2ql check` pipeline over a stack of source units.
///
/// Stages, each feeding the same sink:
///
/// 1. parse every unit (`P2E001` on syntax errors; later stages need
///    all units, so any parse failure short-circuits),
/// 2. per-unit statement validation ([`validate_statements`]),
/// 3. arity consistency across the whole stack (`P2E108`/`P2E109`/
///    `P2E110`, plus `P2E106` for a table declared by two units),
/// 4. the [`analyze`] passes,
/// 5. if nothing so far is an error: a planner dry run, merging
///    `P2W501`/`P2W502` strand diagnostics back onto rule spans.
pub fn check_sources(units: &[SourceUnit<'_>], ctx: &AnalysisCtx) -> CheckReport {
    check_sources_with(units, ctx, &CheckOpts::default())
}

/// [`check_sources`] with options; `opts.deep` adds the flow passes
/// (`P2W601` event storms, `P2W602` super-linear amplification,
/// `P2E603` unstratifiable aggregation) and populates
/// [`CheckReport::flow`].
pub fn check_sources_with(
    units: &[SourceUnit<'_>],
    ctx: &AnalysisCtx,
    opts: &CheckOpts,
) -> CheckReport {
    let mut diags = Diagnostics::new();
    let mut programs = Vec::with_capacity(units.len());
    for (i, u) in units.iter().enumerate() {
        match parse_program(u.src) {
            Ok(p) => programs.push(p),
            Err(e) => {
                let mut d =
                    Diagnostic::new("P2E001", Severity::Error, e.message.clone()).with_span(e.span);
                d.unit = i;
                diags.push(d);
            }
        }
    }
    if programs.len() < units.len() {
        diags.sort_by_position();
        return CheckReport {
            diags,
            programs: Vec::new(),
            flow: None,
        };
    }

    for (i, p) in programs.iter().enumerate() {
        let mut unit_diags = Diagnostics::new();
        validate_statements(p, &mut unit_diags);
        diags.absorb(unit_diags, i);
    }

    let refs: Vec<&Program> = programs.iter().collect();
    let unit_names: Vec<&str> = units.iter().map(|u| u.name).collect();
    validate_arities(&refs, &unit_names, &mut diags);

    let mut analysis = analyze(&refs, ctx);
    diags.items.append(&mut analysis.items);

    if !diags.has_errors() {
        planner_merge(&refs, ctx, &mut diags);
    }

    let mut flow = None;
    if opts.deep && !diags.has_errors() {
        let model = cascade::build_model(&refs, ctx);
        cascade::check(&model, &mut diags);
        let strata = stratify::check(&model, &mut diags);
        cost::check(&model, ctx, &mut diags);
        let cost = cost::analyze(&model, ctx);
        flow = Some(FlowReport {
            strata,
            depth: cost.depth,
            amplification: cost.amplification,
            roots: cost.roots,
        });
    }

    diags.sort_by_position();
    CheckReport {
        diags,
        programs,
        flow,
    }
}

/// Run only the flow passes over already-parsed programs and return the
/// report, discarding diagnostics. This is the API the cascade oracle's
/// tests use to obtain static bounds to compare trace measurements
/// against, and what the planner mirrors for its per-strand
/// annotations.
pub fn flow_report(programs: &[&Program], ctx: &AnalysisCtx) -> FlowReport {
    let model = cascade::build_model(programs, ctx);
    let mut scratch = Diagnostics::new();
    let strata = stratify::check(&model, &mut scratch);
    let cost = cost::analyze(&model, ctx);
    FlowReport {
        strata,
        depth: cost.depth,
        amplification: cost.amplification,
        roots: cost.roots,
    }
}

/// Dry-run the planner over the concatenated stack and fold its
/// strand-level diagnostics into the sink, resolved back to rule spans.
fn planner_merge(programs: &[&Program], ctx: &AnalysisCtx, diags: &mut Diagnostics) {
    let mut combined = Program::default();
    // label -> (unit, span); generated labels follow the planner's
    // rule#N numbering over the concatenated statement order.
    let mut rule_spans: BTreeMap<String, (usize, Span)> = BTreeMap::new();
    let mut ordinal = 0usize;
    for (unit, program) in programs.iter().enumerate() {
        for s in &program.statements {
            if let Statement::Rule(r) = s {
                ordinal += 1;
                let label = r.label.clone().unwrap_or_else(|| format!("rule#{ordinal}"));
                rule_spans.entry(label).or_insert((unit, r.span));
            }
        }
        combined.extend((*program).clone());
    }

    // The dry run sees the caller's catalog plus the runtime's own
    // tables (introspection and trace), which every node registers
    // before user programs install — without them the planner would
    // misclassify e.g. `ruleExec` probes as transient events.
    let mut known = ctx.known_tables.clone();
    known.extend(
        liveness::BUILTIN_PRODUCED
            .iter()
            .filter(|n| **n != "periodic")
            .map(|n| n.to_string()),
    );

    match compile_program_with(&combined, &known, &PlanOpts::default()) {
        Ok(compiled) => {
            for d in compiled.diagnostics {
                // Strand ids are `label` or `label~K` for multi-trigger
                // rules; strip the suffix to find the rule.
                let label = d.strand_id.split('~').next().unwrap_or(&d.strand_id);
                let mut out = Diagnostic::new(d.code, Severity::Warning, d.message.clone())
                    .with_context(label.to_string());
                if let Some((unit, span)) = rule_spans.get(label) {
                    out.unit = *unit;
                    out = out.with_span(*span);
                }
                diags.push(out);
            }
        }
        // The analysis passes flag two-event joins themselves (P2W303,
        // with the offending predicate's span); everything else the
        // planner alone can reject gets a positioned-by-rule error.
        Err(PlanError::TwoEventPredicates {
            rule,
            first,
            second,
        }) => {
            if !diags.items.iter().any(|d| d.code == "P2W303") {
                push_plan_error(
                    diags,
                    &rule_spans,
                    "P2E120",
                    &rule,
                    format!("body joins two event predicates '{first}' and '{second}'"),
                );
            }
        }
        Err(PlanError::BadPeriodic { rule, message }) => {
            push_plan_error(diags, &rule_spans, "P2E121", &rule, message);
        }
        Err(PlanError::BadPast { rule, message }) => {
            push_plan_error(diags, &rule_spans, "P2E124", &rule, message);
        }
        Err(PlanError::ReservedRelation { name }) => {
            diags.push(Diagnostic::new(
                "P2E122",
                Severity::Error,
                format!("'{name}' is a reserved relation and cannot be declared or derived"),
            ));
        }
        Err(PlanError::Expr { rule, error }) => {
            push_plan_error(diags, &rule_spans, "P2E123", &rule, error.to_string());
        }
        // Unreachable when the earlier stages found no errors, but keep
        // the pipeline total.
        Err(PlanError::Invalid(e)) => {
            diags.push(Diagnostic::new("P2E100", Severity::Error, e.message).with_context(e.rule));
        }
    }
}

fn push_plan_error(
    diags: &mut Diagnostics,
    rule_spans: &BTreeMap<String, (usize, Span)>,
    code: &'static str,
    rule: &str,
    message: String,
) {
    let mut d = Diagnostic::new(code, Severity::Error, message).with_context(rule.to_string());
    if let Some((unit, span)) = rule_spans.get(rule) {
        d.unit = *unit;
        d = d.with_span(*span);
    }
    diags.push(d);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_one(src: &str) -> Diagnostics {
        check_sources(
            &[SourceUnit {
                name: "test.olg",
                src,
            }],
            &AnalysisCtx::default(),
        )
        .diags
    }

    fn codes(d: &Diagnostics) -> Vec<&'static str> {
        d.items.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_program_checks_clean() {
        let d = check_one(
            "materialize(link, infinity, 50, keys(1, 2)).
             l1 link@\"n1\"(\"n2\", 3).
             r1 probe@B(A) :- periodic@A(E, 10), link@A(B, W).",
        );
        assert!(
            !d.has_errors() && d.count(Severity::Warning) == 0,
            "{}",
            d.render(&[])
        );
    }

    #[test]
    fn parse_error_is_a_diagnostic() {
        let d = check_one("r1 out@A(X :- ev@A(X).");
        assert_eq!(codes(&d), ["P2E001"]);
        assert!(d.items[0].span.is_some());
    }

    #[test]
    fn cross_unit_arity_drift_names_the_other_unit() {
        let units = [
            SourceUnit {
                name: "base.olg",
                src: "r1 out@N(X) :- ev@N(X).",
            },
            SourceUnit {
                name: "monitor.olg",
                src: "m1 alarm@N(X, Y) :- out@N(X, Y).",
            },
        ];
        let report = check_sources(&units, &AnalysisCtx::default());
        let drift: Vec<_> = report
            .diags
            .items
            .iter()
            .filter(|d| d.code == "P2E108")
            .collect();
        assert_eq!(drift.len(), 1, "{}", report.diags.render(&units));
        assert_eq!(drift[0].unit, 1);
        assert!(
            drift[0].message.contains("base.olg"),
            "{}",
            drift[0].message
        );
    }

    #[test]
    fn cross_unit_duplicate_materialize() {
        let units = [
            SourceUnit {
                name: "a.olg",
                src: "materialize(t, infinity, 10, keys(1)).",
            },
            SourceUnit {
                name: "b.olg",
                src: "materialize(t, 30, 10, keys(1)).",
            },
        ];
        let report = check_sources(&units, &AnalysisCtx::default());
        assert!(report
            .diags
            .items
            .iter()
            .any(|d| d.code == "P2E106" && d.unit == 1 && d.message.contains("a.olg")));
    }

    #[test]
    fn planner_dead_rule_maps_to_rule_span() {
        let d = check_one("d1 out@N(X) :- ev@N(X), 1 == 2.");
        assert!(
            codes(&d).contains(&"P2W501"),
            "{codes:?}",
            codes = codes(&d)
        );
        let w = d.items.iter().find(|x| x.code == "P2W501").unwrap();
        assert!(w.span.is_some(), "dead-rule warning carries the rule span");
        assert_eq!(w.context.as_deref(), Some("d1"));
    }

    #[test]
    fn known_tables_suppress_liveness_warnings() {
        let mut ctx = AnalysisCtx::default();
        ctx.known_tables.insert("bestSucc".into());
        let units = [SourceUnit {
            name: "m.olg",
            src: "m1 report@N(S) :- bestSucc@N(S).",
        }];
        let report = check_sources(&units, &ctx);
        assert!(
            !report.diags.items.iter().any(|d| d.code == "P2W301"),
            "{}",
            report.diags.render(&units)
        );
    }

    #[test]
    fn external_events_suppress_consumed_never_produced() {
        // An operator-injected event (e.g. profiling's traceResp) is
        // consumed by the program but produced by the harness: no
        // P2W301 — but it is still a transient event, so joining it
        // with another event stays flagged (P2W303).
        let src = "e1 out@N(X) :- probe@N(X), other@N(X).";
        let units = [SourceUnit { name: "m.olg", src }];
        let mut ctx = AnalysisCtx::default();
        ctx.external_events.insert("probe".into());
        ctx.external_events.insert("other".into());
        let report = check_sources(&units, &ctx);
        let got = codes(&report.diags);
        assert!(!got.contains(&"P2W301"), "{}", report.diags.render(&units));
        assert!(got.contains(&"P2W303"), "{}", report.diags.render(&units));
    }

    #[test]
    fn analysis_errors_skip_the_planner() {
        // Unbound head var: front-end error; the planner dry run must
        // not run (it would reject with the same first error).
        let d = check_one("r1 out@A(X) :- ev@A(Y).");
        assert!(d.has_errors());
        assert!(!codes(&d).contains(&"P2E100"));
    }
}
