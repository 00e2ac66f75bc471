//! Abstract syntax for OverLog.
//!
//! The shapes here mirror the paper's listings one-to-one. After parsing,
//! location specifiers are already desugared: `pred@A(X, Y)` becomes a
//! predicate whose argument list is `[A, X, Y]` — by P2 convention field 0
//! of every tuple is the address where the tuple lives (§2 of the paper:
//! *"OverLog allows `link@A(B,W)` instead of `link(A,B,W)`"*).

use crate::lexer::Span;
use p2_types::Value;
use std::fmt;

/// A parsed OverLog program: an ordered list of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Statements in source order.
    pub statements: Vec<Statement>,
}

impl Program {
    /// Iterate over the rules in the program.
    pub fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.statements.iter().filter_map(|s| match s {
            Statement::Rule(r) => Some(r),
            _ => None,
        })
    }

    /// Iterate over the `materialize` declarations.
    pub fn materializations(&self) -> impl Iterator<Item = &Materialize> {
        self.statements.iter().filter_map(|s| match s {
            Statement::Materialize(m) => Some(m),
            _ => None,
        })
    }

    /// Concatenate two programs (used to stack monitoring programs onto a
    /// base application, the paper's "deployed piecemeal" usage).
    pub fn extend(&mut self, other: Program) {
        self.statements.extend(other.statements);
    }

    /// The program with relations renamed by `names` (old, new), rule
    /// labels mapped by `label`, and `var` put after the location of each
    /// atom of a `threaded` relation (old names; a `materialize` keeps its keys).
    pub fn rewrite(
        &self,
        names: &[(impl AsRef<str>, impl AsRef<str>)],
        threaded: &[&str],
        var: &str,
        label: impl Fn(&str) -> String,
    ) -> Program {
        let rename = |n: &mut String| {
            if let Some((_, new)) = names.iter().find(|(old, _)| old.as_ref() == n) {
                *n = new.as_ref().to_string();
            }
        };
        let mut out = self.clone();
        for s in &mut out.statements {
            match s {
                Statement::Materialize(m) => rename(&mut m.table),
                Statement::Rule(r) => {
                    r.label = r.label.as_deref().map(&label);
                    let body = r.body.iter_mut().filter_map(|t| match t {
                        Term::Pred(p) => Some(p),
                        _ => None,
                    });
                    for p in std::iter::once(&mut r.head).chain(body) {
                        if threaded.contains(&p.name.as_str()) {
                            p.args.insert(1, Arg::Var(var.to_string()));
                        }
                        rename(&mut p.name);
                    }
                }
            }
        }
        out
    }
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `materialize(name, lifetime, size, keys(...))` declaration.
    Materialize(Materialize),
    /// A deduction rule.
    Rule(Rule),
}

/// Table lifetime from a `materialize` declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lifetime {
    /// Tuples expire after this many seconds.
    Secs(f64),
    /// Tuples never expire.
    Infinity,
}

/// Table size bound from a `materialize` declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeLimit {
    /// At most this many tuples; oldest are evicted first.
    Rows(usize),
    /// Unbounded.
    Infinity,
}

/// A `materialize(name, lifetime, max_size, keys(k1, k2, ...))` statement.
///
/// Key field numbers are **1-based over the full tuple including the
/// location field**, exactly as in the paper (e.g. `materialize(path, 100,
/// 5, keys(1,2))` keys the `path@A(B, ...)` table on `A` then `B`).
#[derive(Debug, Clone, PartialEq)]
pub struct Materialize {
    /// Table (relation) name.
    pub table: String,
    /// Row lifetime.
    pub lifetime: Lifetime,
    /// Row-count bound.
    pub max_size: SizeLimit,
    /// 1-based primary-key field numbers.
    pub keys: Vec<usize>,
    /// Source span of the table name (positions only — ignored by `==`,
    /// see [`Span`]).
    pub span: Span,
}

/// A deduction rule: `label head :- term, term, ... .`
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Optional rule label (`rp1`, `cs9`, ...). Labels are how the tracer's
    /// `ruleExec` rows and the profiler refer to rules, so the planner
    /// generates one (`rule#N`) when the source omits it.
    pub label: Option<String>,
    /// `true` for `delete head :- body.` rules, which remove the matching
    /// tuples from the head's table instead of inserting.
    pub delete: bool,
    /// Head predicate. Its arguments may be expressions and (at most one)
    /// aggregate.
    pub head: Predicate,
    /// Body terms, in source order (the order is meaningful: it fixes the
    /// join order of the compiled rule strand, as in Figure 1).
    pub body: Vec<Term>,
    /// Source span of the rule's first token (positions only — ignored
    /// by `==`, see [`Span`]).
    pub span: Span,
}

impl Rule {
    /// All body predicates, in order.
    pub fn body_predicates(&self) -> impl Iterator<Item = &Predicate> {
        self.body.iter().filter_map(|t| match t {
            Term::Pred(p) => Some(p),
            _ => None,
        })
    }

    /// Whether the head carries an aggregate argument.
    pub fn is_aggregate(&self) -> bool {
        self.head.args.iter().any(|a| matches!(a, Arg::Agg { .. }))
    }
}

/// A body term.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A predicate (event or table match).
    Pred(Predicate),
    /// A boolean condition (selection), e.g. `SomeAddr != PAddr` or
    /// `ResltNodeID in (PID, SID)`.
    Cond {
        /// The condition expression.
        expr: Expr,
        /// Source span of the whole condition.
        span: Span,
    },
    /// An assignment `Var := expr`, e.g. `T := f_now()`.
    Assign {
        /// The variable being bound.
        var: String,
        /// Its defining expression.
        expr: Expr,
        /// Source span of the whole assignment.
        span: Span,
    },
}

impl Term {
    /// The term's source span (a predicate's is its name token).
    pub fn span(&self) -> Span {
        match self {
            Term::Pred(p) => p.span,
            Term::Cond { span, .. } | Term::Assign { span, .. } => *span,
        }
    }
}

/// A predicate occurrence, head or body.
///
/// `args[0]` is the location argument. `at_form` records whether the
/// source used the `name@Loc(rest...)` sugar, so the pretty-printer can
/// reproduce the original shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Relation name.
    pub name: String,
    /// Arguments, location first.
    pub args: Vec<Arg>,
    /// Whether the source used the `@` location-specifier form.
    pub at_form: bool,
    /// Source span of the relation-name token — the caret target for
    /// diagnostics about this occurrence (positions only — ignored by
    /// `==`, see [`Span`]).
    pub span: Span,
}

impl Predicate {
    /// The location argument (always present after desugaring).
    pub fn loc(&self) -> &Arg {
        &self.args[0]
    }
}

/// A predicate argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A variable (capitalized identifier in the source).
    Var(String),
    /// A literal constant.
    Const(Value),
    /// `_`: matches anything, binds nothing.
    Wildcard,
    /// A head aggregate: `count<*>`, `min<D>`, `max<Count>`.
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// The aggregated variable; `None` for `count<*>`.
        over: Option<String>,
    },
    /// A head expression, e.g. `Wraps + 1` (rule `ri4`) or
    /// `RespCount / LookupCount` (rule `cs9`). Only meaningful in heads.
    Expr(Expr),
}

/// Aggregate functions. The paper uses `count`, `min`, and `max`; `sum`
/// and `avg` are natural extensions and come for free in the evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `count<*>` — number of matching derivations (0 for an empty set).
    Count,
    /// `min<V>` — minimum of `V` over the matches.
    Min,
    /// `max<V>` — maximum of `V` over the matches.
    Max,
    /// `sum<V>` — sum of `V` over the matches (extension).
    Sum,
    /// `avg<V>` — mean of `V` over the matches (extension).
    Avg,
}

impl AggFunc {
    /// The source-level keyword.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
        }
    }

    /// Parse a source-level keyword.
    pub fn from_name(s: &str) -> Option<AggFunc> {
        Some(match s {
            "count" => AggFunc::Count,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// Binary operators, in OverLog surface syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` (numeric add, ring add, string/list concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (int/int yields float — see `p2_types::Value::div`)
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// The operator's source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Boolean not.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Variable reference.
    Var(String),
    /// Literal.
    Const(Value),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Ring-interval membership: `x in (lo, hi]` et al.
    In {
        /// The tested expression.
        expr: Box<Expr>,
        /// Lower endpoint.
        lo: Box<Expr>,
        /// Upper endpoint.
        hi: Box<Expr>,
        /// Whether the lower endpoint is included (`[`).
        lo_closed: bool,
        /// Whether the upper endpoint is included (`]`).
        hi_closed: bool,
    },
    /// Built-in function call, e.g. `f_now()`, `f_sha1(X)`.
    Call {
        /// Function name.
        func: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// List literal `[B, A]`.
    List(Vec<Expr>),
}

impl Expr {
    /// Collect the free variables of the expression into `out`.
    pub fn free_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !out.iter().any(|x| x == v) {
                    out.push(v.clone());
                }
            }
            Expr::Const(_) => {}
            Expr::Unary(_, e) => e.free_vars(out),
            Expr::Binary(_, a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
            Expr::In { expr, lo, hi, .. } => {
                expr.free_vars(out);
                lo.free_vars(out);
                hi.free_vars(out);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.free_vars(out);
                }
            }
            Expr::List(items) => {
                for i in items {
                    i.free_vars(out);
                }
            }
        }
    }

    /// Visit every built-in function name called anywhere inside the
    /// expression (the planner's rewrite passes classify purity with
    /// this).
    pub fn for_each_call(&self, f: &mut impl FnMut(&str)) {
        match self {
            Expr::Var(_) | Expr::Const(_) => {}
            Expr::Unary(_, e) => e.for_each_call(f),
            Expr::Binary(_, a, b) => {
                a.for_each_call(f);
                b.for_each_call(f);
            }
            Expr::In { expr, lo, hi, .. } => {
                expr.for_each_call(f);
                lo.for_each_call(f);
                hi.for_each_call(f);
            }
            Expr::Call { func, args } => {
                f(func);
                for a in args {
                    a.for_each_call(f);
                }
            }
            Expr::List(items) => {
                for i in items {
                    i.for_each_call(f);
                }
            }
        }
    }
}

impl Predicate {
    /// Collect the free variables of every argument — plain `Var` fields
    /// and the free variables of embedded `Expr` args — into `out`.
    pub fn arg_vars(&self, out: &mut Vec<String>) {
        for a in &self.args {
            match a {
                Arg::Var(v) if !out.iter().any(|x| x == v) => out.push(v.clone()),
                Arg::Expr(e) => e.free_vars(out),
                _ => {}
            }
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::pretty::program_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_dedup() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Var("X".into())),
            Box::new(Expr::Binary(
                BinOp::Mul,
                Box::new(Expr::Var("X".into())),
                Box::new(Expr::Var("Y".into())),
            )),
        );
        let mut vs = Vec::new();
        e.free_vars(&mut vs);
        assert_eq!(vs, vec!["X".to_string(), "Y".to_string()]);
    }

    #[test]
    fn agg_func_round_trip() {
        for f in [
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Sum,
            AggFunc::Avg,
        ] {
            assert_eq!(AggFunc::from_name(f.name()), Some(f));
        }
        assert_eq!(AggFunc::from_name("median"), None);
    }

    #[test]
    fn rewrite_renames_threads_and_relabels() {
        let src = "materialize(t, 10, 5, keys(1, 2)).
            r1 out@N(X) :- ev@N(X), t@N(X), u@N(X), X > 1.
            out@N(7).";
        let live = crate::parse_program(src).unwrap();
        let got = live.rewrite(&[("out", "sOut"), ("t", "sT")], &["out", "ev"], "I", |l| {
            format!("{l}x")
        });
        let want = crate::parse_program(
            "materialize(sT, 10, 5, keys(1, 2)).
            r1x sOut@N(I, X) :- ev@N(I, X), sT@N(X), u@N(X), X > 1.
            sOut@N(I, 7).",
        )
        .unwrap();
        assert_eq!(got, want);
        // The source program is left as it was.
        assert_eq!(live, crate::parse_program(src).unwrap());
    }

    #[test]
    fn rule_helpers() {
        let rule = Rule {
            label: Some("r1".into()),
            delete: false,
            head: Predicate {
                name: "h".into(),
                args: vec![
                    Arg::Var("A".into()),
                    Arg::Agg {
                        func: AggFunc::Count,
                        over: None,
                    },
                ],
                at_form: true,
                span: Span::default(),
            },
            body: vec![Term::Pred(Predicate {
                name: "b".into(),
                args: vec![Arg::Var("A".into())],
                at_form: true,
                span: Span::default(),
            })],
            span: Span::default(),
        };
        assert!(rule.is_aggregate());
        assert_eq!(rule.body_predicates().count(), 1);
    }
}
