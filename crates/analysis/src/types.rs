//! Field/variable type inference by unification (P2W201, P2W202).
//!
//! OverLog is dynamically typed, so a monitor that compares a ring
//! identifier against a string compiles and runs — and never matches.
//! This pass recovers a static typing by unifying, across the whole
//! unit stack, every (relation, field) slot with the variables and
//! constants that flow through it. The type lattice is deliberately
//! coarse — it exists to catch *confusions*, not to type-check
//! arithmetic:
//!
//! ```text
//!        int literal ──┬──> num  (int / float / time)
//!                      └──> id   (ring identifiers, hex literals)
//!        "…" / addr ──────> str/addr   (a string stores fine in an
//!                                       address field: `succ@N(0, "-")`)
//!        bool, list ──────> themselves
//! ```
//!
//! Arithmetic results are `unknown` (ring subtraction, time deltas and
//! list concatenation all share operators, so constraining operands
//! would drown real findings in false ones); comparisons unify their
//! operands; `in` intervals unify the scrutinee with both endpoints.
//! A class that receives two incompatible types is reported once
//! (`P2W201`) and then muted. `keys(...)` naming a conflicted field is
//! `P2W202` — rows can never be compared reliably under such a key.

use p2_overlog::{
    AggFunc, Arg, BinOp, Diagnostic, Diagnostics, Expr, Predicate, Program, Rule, Severity, Span,
    Statement, Term, UnOp,
};
use p2_types::Value;
use std::collections::HashMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Ty {
    Unknown,
    /// An integer literal: compatible with both `Num` and `Id`.
    IntLike,
    /// Int / float / time — ordinary numbers.
    Num,
    /// Ring identifiers (hex literals, `f_sha1`, `f_randID`, ...).
    Id,
    /// Strings and addresses (interchangeable in P2 source).
    StrAddr,
    Bool,
    List,
}

impl Ty {
    fn name(self) -> &'static str {
        match self {
            Ty::Unknown => "unknown",
            Ty::IntLike => "int",
            Ty::Num => "num",
            Ty::Id => "id",
            Ty::StrAddr => "string/address",
            Ty::Bool => "bool",
            Ty::List => "list",
        }
    }

    /// Least upper bound; `Err` when the two are incompatible.
    fn join(self, other: Ty) -> Result<Ty, ()> {
        use Ty::*;
        Ok(match (self, other) {
            (Unknown, t) | (t, Unknown) => t,
            (a, b) if a == b => a,
            (IntLike, Num) | (Num, IntLike) => Num,
            (IntLike, Id) | (Id, IntLike) => Id,
            _ => return Err(()),
        })
    }
}

fn value_ty(v: &Value) -> Ty {
    match v {
        Value::Bool(_) => Ty::Bool,
        Value::Int(_) => Ty::IntLike,
        Value::Float(_) | Value::Time(_) => Ty::Num,
        Value::Id(_) => Ty::Id,
        Value::Str(_) | Value::Addr(_) => Ty::StrAddr,
        Value::List(_) => Ty::List,
        // No OverLog literal exists, so no program constant has it.
        Value::Bytes(_) => Ty::Unknown,
    }
}

/// Union-find key: a relation field slot or a rule-scoped variable.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    /// (relation, 0-based field index)
    Field(String, usize),
    /// (rule uid unique across the stack, variable name)
    Var(usize, String),
}

/// Where a constraint came from, for reporting.
#[derive(Clone)]
struct Site {
    unit: usize,
    span: Span,
    ctx: String,
}

/// An expression's type: a class to unify with, or a fixed type.
enum Slot {
    Class(usize),
    Fixed(Ty),
}

#[derive(Default)]
struct Classes {
    ids: HashMap<Key, usize>,
    parent: Vec<usize>,
    ty: Vec<Ty>,
    /// Human name of the class ("field 2 of 'pred'", "variable K").
    /// Field descriptions win merges — they are what the user keys on.
    desc: Vec<(bool, String)>,
    /// Rule context that established the class's current type.
    prov: Vec<Option<String>>,
    conflicted: Vec<bool>,
}

impl Classes {
    fn slot(&mut self, key: Key, is_field: bool, desc: impl FnOnce() -> String) -> usize {
        if let Some(&i) = self.ids.get(&key) {
            return i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.ty.push(Ty::Unknown);
        self.desc.push((is_field, desc()));
        self.prov.push(None);
        self.conflicted.push(false);
        self.ids.insert(key, i);
        i
    }

    fn field(&mut self, rel: &str, idx: usize) -> usize {
        self.slot(Key::Field(rel.to_string(), idx), true, || {
            // 1-based over the full tuple, matching the keys(...) syntax.
            format!("field {} of '{rel}'", idx + 1)
        })
    }

    fn var(&mut self, uid: usize, name: &str) -> usize {
        self.slot(Key::Var(uid, name.to_string()), false, || {
            format!("variable {name}")
        })
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn conflict(&mut self, root: usize, got: Ty, site: &Site, diags: &mut Diagnostics) {
        if self.conflicted[root] {
            return; // one report per class
        }
        self.conflicted[root] = true;
        let (_, desc) = &self.desc[root];
        let mut d = Diagnostic::new(
            "P2W201",
            Severity::Warning,
            format!(
                "{desc} is used as {} here but was inferred as {}",
                got.name(),
                self.ty[root].name()
            ),
        )
        .with_span(site.span)
        .with_context(site.ctx.clone());
        if let Some(p) = &self.prov[root] {
            d = d.with_help(format!("the earlier type comes from {p}"));
        }
        d.unit = site.unit;
        diags.push(d);
        // Mute the class: further uses unify freely.
        self.ty[root] = Ty::Unknown;
        self.prov[root] = None;
    }

    fn constrain(&mut self, i: usize, t: Ty, site: &Site, diags: &mut Diagnostics) {
        if t == Ty::Unknown {
            return;
        }
        let root = self.find(i);
        if self.conflicted[root] {
            return;
        }
        match self.ty[root].join(t) {
            Ok(joined) => {
                if self.ty[root] == Ty::Unknown {
                    self.prov[root] = Some(site.ctx.clone());
                }
                self.ty[root] = joined;
            }
            Err(()) => self.conflict(root, t, site, diags),
        }
    }

    fn union(&mut self, a: usize, b: usize, site: &Site, diags: &mut Diagnostics) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let joined = match self.ty[ra].join(self.ty[rb]) {
            Ok(t) => Some(t),
            Err(()) => {
                let got = self.ty[rb];
                self.conflict(ra, got, site, diags);
                None
            }
        };
        // Field-named classes absorb variable-named ones.
        let (keep, gone) = if self.desc[ra].0 || !self.desc[rb].0 {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[gone] = keep;
        self.conflicted[keep] = self.conflicted[ra] || self.conflicted[rb];
        match joined {
            Some(t) if !self.conflicted[keep] => {
                if self.ty[keep] == Ty::Unknown && t != Ty::Unknown {
                    self.prov[keep] = self.prov[ra]
                        .clone()
                        .or_else(|| self.prov[rb].clone())
                        .or_else(|| Some(site.ctx.clone()));
                }
                self.ty[keep] = t;
            }
            _ => {
                self.ty[keep] = Ty::Unknown;
                self.prov[keep] = None;
            }
        }
    }

    fn unify(&mut self, a: Slot, b: Slot, site: &Site, diags: &mut Diagnostics) {
        match (a, b) {
            (Slot::Class(x), Slot::Class(y)) => self.union(x, y, site, diags),
            (Slot::Class(x), Slot::Fixed(t)) | (Slot::Fixed(t), Slot::Class(x)) => {
                self.constrain(x, t, site, diags)
            }
            (Slot::Fixed(t1), Slot::Fixed(t2)) => {
                if t1.join(t2).is_err() {
                    push_at(
                        diags,
                        site,
                        Diagnostic::new(
                            "P2W201",
                            Severity::Warning,
                            format!(
                                "comparison between incompatible types {} and {} never holds",
                                t1.name(),
                                t2.name()
                            ),
                        ),
                    );
                }
            }
        }
    }

    fn expr(&mut self, e: &Expr, uid: usize, site: &Site, diags: &mut Diagnostics) -> Slot {
        match e {
            Expr::Var(v) => Slot::Class(self.var(uid, v)),
            Expr::Const(v) => Slot::Fixed(value_ty(v)),
            Expr::Unary(UnOp::Not, a) => {
                let s = self.expr(a, uid, site, diags);
                self.unify(s, Slot::Fixed(Ty::Bool), site, diags);
                Slot::Fixed(Ty::Bool)
            }
            Expr::Unary(UnOp::Neg, a) => {
                self.expr(a, uid, site, diags);
                Slot::Fixed(Ty::Unknown)
            }
            Expr::Binary(op, a, b) => {
                let sa = self.expr(a, uid, site, diags);
                let sb = self.expr(b, uid, site, diags);
                match op {
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        self.unify(sa, sb, site, diags);
                        Slot::Fixed(Ty::Bool)
                    }
                    BinOp::And | BinOp::Or => {
                        self.unify(sa, Slot::Fixed(Ty::Bool), site, diags);
                        self.unify(sb, Slot::Fixed(Ty::Bool), site, diags);
                        Slot::Fixed(Ty::Bool)
                    }
                    // Arithmetic is overloaded across num/id/str/list;
                    // constraining operands would be noise.
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        Slot::Fixed(Ty::Unknown)
                    }
                }
            }
            Expr::In { expr, lo, hi, .. } => {
                let se = self.expr(expr, uid, site, diags);
                let sl = self.expr(lo, uid, site, diags);
                let sh = self.expr(hi, uid, site, diags);
                // The scrutinee and both endpoints live on one ring.
                let anchor = match se {
                    Slot::Class(i) => i,
                    Slot::Fixed(t) => {
                        self.unify(Slot::Fixed(t), sl, site, diags);
                        self.unify(Slot::Fixed(t), sh, site, diags);
                        return Slot::Fixed(Ty::Bool);
                    }
                };
                self.unify(Slot::Class(anchor), sl, site, diags);
                self.unify(Slot::Class(anchor), sh, site, diags);
                Slot::Fixed(Ty::Bool)
            }
            Expr::Call { func, args } => {
                for a in args {
                    self.expr(a, uid, site, diags);
                }
                match func.as_str() {
                    "f_rand" | "f_randID" | "f_sha1" | "f_pow2" => Slot::Fixed(Ty::Id),
                    "f_now" => Slot::Fixed(Ty::Num),
                    _ => Slot::Fixed(Ty::Unknown),
                }
            }
            Expr::List(items) => {
                for i in items {
                    self.expr(i, uid, site, diags);
                }
                Slot::Fixed(Ty::List)
            }
        }
    }
}

pub(crate) fn check(programs: &[&Program], diags: &mut Diagnostics) {
    let mut cl = Classes::default();
    // Seed the builtin: periodic(location, nonce, period).
    let nonce = cl.field("periodic", 1);
    let period = cl.field("periodic", 2);
    let seed = Site {
        unit: 0,
        span: Span::default(),
        ctx: "builtin periodic".into(),
    };
    cl.ty[nonce] = Ty::Id;
    cl.ty[period] = Ty::Num;
    cl.prov[nonce] = Some(seed.ctx.clone());
    cl.prov[period] = Some(seed.ctx);

    let mut uid = 0usize;
    for (unit, program) in programs.iter().enumerate() {
        let mut idx = 0usize;
        for s in &program.statements {
            let Statement::Rule(r) = s else { continue };
            idx += 1;
            uid += 1;
            let ctx = r.label.clone().unwrap_or_else(|| format!("rule #{idx}"));
            walk_rule(&mut cl, r, uid, unit, &ctx, diags);
        }
    }

    // P2W202: a primary-key field whose class never settled.
    for (unit, program) in programs.iter().enumerate() {
        for m in program.materializations() {
            for &k in &m.keys {
                if k == 0 {
                    continue;
                }
                let Some(&i) = cl.ids.get(&Key::Field(m.table.clone(), k - 1)) else {
                    continue;
                };
                let root = cl.find(i);
                if cl.conflicted[root] {
                    push_at(
                        diags,
                        &Site {
                            unit,
                            span: m.span,
                            ctx: format!("materialize({})", m.table),
                        },
                        Diagnostic::new(
                            "P2W202",
                            Severity::Warning,
                            format!(
                                "key field {k} of '{}' never gets a consistent comparable \
                                 type — rows will collide or duplicate unpredictably",
                                m.table
                            ),
                        ),
                    );
                }
            }
        }
    }
}

fn walk_rule(
    cl: &mut Classes,
    r: &Rule,
    uid: usize,
    unit: usize,
    ctx: &str,
    diags: &mut Diagnostics,
) {
    walk_pred(cl, &r.head, uid, unit, ctx, diags);
    for t in &r.body {
        match t {
            Term::Pred(p) => walk_pred(cl, p, uid, unit, ctx, diags),
            Term::Cond { expr, span } => {
                let site = Site {
                    unit,
                    span: *span,
                    ctx: ctx.to_string(),
                };
                let s = cl.expr(expr, uid, &site, diags);
                cl.unify(s, Slot::Fixed(Ty::Bool), &site, diags);
            }
            Term::Assign { var, expr, span } => {
                let site = Site {
                    unit,
                    span: *span,
                    ctx: ctx.to_string(),
                };
                let s = cl.expr(expr, uid, &site, diags);
                let v = cl.var(uid, var);
                cl.unify(Slot::Class(v), s, &site, diags);
            }
        }
    }
}

fn walk_pred(
    cl: &mut Classes,
    p: &Predicate,
    uid: usize,
    unit: usize,
    ctx: &str,
    diags: &mut Diagnostics,
) {
    let site = Site {
        unit,
        span: p.span,
        ctx: ctx.to_string(),
    };
    // `past@N("rel", T0, T1, fields...)` scans rel's archived history:
    // its field args are rel's own fields, so unify against *that*
    // relation's classes — a forensic rule type-checks exactly like a
    // live join. The location and interval bounds stay unconstrained
    // (bounds accept integer seconds and time values alike).
    if p.name == "past" {
        let Some(Arg::Const(Value::Str(rel))) = p.args.get(1) else {
            return;
        };
        let rel = rel.to_string();
        for (i, a) in p.args.iter().enumerate().skip(4) {
            let f = cl.field(&rel, i - 4);
            walk_arg(cl, f, a, uid, &site, diags);
        }
        return;
    }
    for (i, a) in p.args.iter().enumerate() {
        let f = cl.field(&p.name, i);
        walk_arg(cl, f, a, uid, &site, diags);
    }
}

/// Unify one predicate argument against field class `f`.
fn walk_arg(cl: &mut Classes, f: usize, a: &Arg, uid: usize, site: &Site, diags: &mut Diagnostics) {
    match a {
        Arg::Var(v) => {
            let s = cl.var(uid, v);
            cl.union(f, s, site, diags);
        }
        Arg::Const(v) => cl.constrain(f, value_ty(v), site, diags),
        Arg::Wildcard => {}
        Arg::Agg { func, over } => match func {
            AggFunc::Count => cl.constrain(f, Ty::Num, site, diags),
            AggFunc::Sum | AggFunc::Avg => {
                cl.constrain(f, Ty::Num, site, diags);
                if let Some(v) = over {
                    let s = cl.var(uid, v);
                    cl.constrain(s, Ty::Num, site, diags);
                }
            }
            AggFunc::Min | AggFunc::Max => {
                if let Some(v) = over {
                    let s = cl.var(uid, v);
                    cl.union(f, s, site, diags);
                }
            }
        },
        Arg::Expr(e) => {
            let s = cl.expr(e, uid, site, diags);
            cl.unify(Slot::Class(f), s, site, diags);
        }
    }
}

fn push_at(diags: &mut Diagnostics, site: &Site, d: Diagnostic) {
    let mut d = d.with_span(site.span).with_context(site.ctx.clone());
    d.unit = site.unit;
    diags.push(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_overlog::parse_program;

    fn run(srcs: &[&str]) -> Diagnostics {
        let programs: Vec<Program> = srcs.iter().map(|s| parse_program(s).unwrap()).collect();
        let refs: Vec<&Program> = programs.iter().collect();
        let mut d = Diagnostics::new();
        check(&refs, &mut d);
        d
    }

    #[test]
    fn conflicting_field_types_warn_once() {
        let d = run(&[r#"f1 t@"n"(7).
r1 out@N(X) :- ev@N(X), t@N("seven")."#]);
        let w: Vec<_> = d.items.iter().filter(|x| x.code == "P2W201").collect();
        assert_eq!(w.len(), 1, "{d:?}");
        assert!(w[0].message.contains("field 2 of 't'"), "{}", w[0].message);
    }

    #[test]
    fn int_literals_unify_with_ids() {
        // Chord's pred stores 0 as a sentinel next to ring ids.
        let d = run(&[r#"f1 pred@"n"(0x42, "n2").
f2 pred@"n"(0, "-")."#]);
        assert_eq!(d.items.len(), 0, "{d:?}");
    }

    #[test]
    fn strings_store_in_address_fields() {
        let d = run(&[r#"f1 succ@"n"("other").
f2 succ@"n"("-")."#]);
        assert_eq!(d.items.len(), 0, "{d:?}");
    }

    #[test]
    fn arithmetic_does_not_constrain_operands() {
        // Ring distance: id minus int is fine.
        let d = run(&["r1 d@N(D) :- lookup@N(K), node@N(NID), D := K - NID - 1, K in (NID, D]."]);
        assert_eq!(d.items.len(), 0, "{d:?}");
    }

    #[test]
    fn comparison_propagates_types_across_rules() {
        // X flows through ev's field into a string comparison in r1 and
        // a numeric comparison in r2: the field class conflicts.
        let d = run(&["r1 a@N(X) :- ev@N(X), X == \"s\".
r2 b@N(X) :- ev@N(X), X < 3."]);
        assert_eq!(d.items.iter().filter(|x| x.code == "P2W201").count(), 1);
    }

    #[test]
    fn conflicted_key_field_warns() {
        let d = run(&[r#"materialize(t, infinity, 10, keys(2)).
f1 t@"n"(1).
r1 out@N(X) :- ev@N(X), t@N("s")."#]);
        assert!(d.items.iter().any(|x| x.code == "P2W202"), "{d:?}");
    }

    #[test]
    fn keyed_list_field_is_fine() {
        // paths.olg keys a list-valued field; consistent => no warning.
        let d = run(&["materialize(path, infinity, 100, keys(1, 2, 3)).
p1 path@A(B, P) :- link@A(B, W), P := [A, B]."]);
        assert_eq!(d.items.len(), 0, "{d:?}");
    }

    #[test]
    fn aggregate_results_are_numbers() {
        let d = run(&["r1 c@N(count<*>) :- t@N(X).
r2 out@N(C) :- cEvt@N(C), C > \"high\"."]);
        // c's field and cEvt's field are separate relations — only the
        // cEvt comparison conflicts... with nothing (C is only StrAddr).
        // But count<*> in c forces Num; comparing c's field elsewhere
        // would conflict:
        let d2 = run(&["r1 c@N(count<*>) :- t@N(X).
r2 out@N(C) :- c@N(C), C == \"high\"."]);
        assert!(d.items.is_empty());
        assert_eq!(d2.items.iter().filter(|x| x.code == "P2W201").count(), 1);
    }
}
