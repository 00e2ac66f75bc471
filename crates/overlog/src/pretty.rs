//! Pretty-printer: regenerates parseable OverLog source from an AST.
//!
//! Used for round-trip testing, for the `sysRule` introspection table
//! (installed rules are reflected back as their source text), and for
//! debugging planner output.

use crate::ast::*;
use p2_types::Value;

/// Render a full program, one statement per line.
pub fn program_to_string(p: &Program) -> String {
    let mut out = String::new();
    for s in &p.statements {
        match s {
            Statement::Materialize(m) => {
                out.push_str(&materialize_to_string(m));
            }
            Statement::Rule(r) => {
                out.push_str(&rule_to_string(r));
            }
        }
        out.push('\n');
    }
    out
}

/// Render a `materialize` declaration.
fn materialize_to_string(m: &Materialize) -> String {
    let lifetime = match m.lifetime {
        Lifetime::Secs(s) => {
            if s.fract() == 0.0 {
                format!("{}", s as u64)
            } else {
                format!("{s:?}")
            }
        }
        Lifetime::Infinity => "infinity".to_string(),
    };
    let size = match m.max_size {
        SizeLimit::Rows(n) => n.to_string(),
        SizeLimit::Infinity => "infinity".to_string(),
    };
    let keys: Vec<String> = m.keys.iter().map(|k| k.to_string()).collect();
    format!(
        "materialize({}, {}, {}, keys({})).",
        m.table,
        lifetime,
        size,
        keys.join(", ")
    )
}

/// Render a rule.
pub fn rule_to_string(r: &Rule) -> String {
    let mut out = String::new();
    if let Some(l) = &r.label {
        out.push_str(l);
        out.push(' ');
    }
    if r.delete {
        out.push_str("delete ");
    }
    out.push_str(&pred_to_string(&r.head));
    if !r.body.is_empty() {
        out.push_str(" :- ");
        let terms: Vec<String> = r.body.iter().map(term_to_string).collect();
        out.push_str(&terms.join(", "));
    }
    out.push('.');
    out
}

fn term_to_string(t: &Term) -> String {
    match t {
        Term::Pred(p) => pred_to_string(p),
        Term::Cond { expr, .. } => expr_to_string(expr),
        Term::Assign { var, expr, .. } => format!("{var} := {}", expr_to_string(expr)),
    }
}

/// Render a predicate, reproducing the `@`-form when the source used it.
pub fn pred_to_string(p: &Predicate) -> String {
    let mut out = String::new();
    out.push_str(&p.name);
    let rest: &[Arg] = if p.at_form && !p.args.is_empty() {
        out.push('@');
        out.push_str(&arg_to_string(&p.args[0]));
        &p.args[1..]
    } else {
        &p.args
    };
    out.push('(');
    let args: Vec<String> = rest.iter().map(arg_to_string).collect();
    out.push_str(&args.join(", "));
    out.push(')');
    out
}

fn arg_to_string(a: &Arg) -> String {
    match a {
        Arg::Var(v) => v.clone(),
        Arg::Const(c) => value_to_string(c),
        Arg::Wildcard => "_".to_string(),
        Arg::Agg { func, over } => match over {
            Some(v) => format!("{}<{v}>", func.name()),
            None => format!("{}<*>", func.name()),
        },
        Arg::Expr(e) => expr_to_string(e),
    }
}

/// Render a literal value as OverLog source.
pub fn value_to_string(v: &Value) -> String {
    match v {
        Value::Bool(b) => b.to_string(),
        Value::Int(n) => n.to_string(),
        Value::Float(x) => format!("{x:?}"),
        Value::Id(i) => format!("{:#x}", i.0),
        Value::Time(t) => t.0.to_string(),
        Value::Str(s) => format!("{:?}", &**s),
        Value::Addr(a) => format!("{:?}", a.as_str()),
        Value::List(items) => {
            let xs: Vec<String> = items.iter().map(value_to_string).collect();
            format!("[{}]", xs.join(", "))
        }
        // No OverLog literal exists; never produced by the parser.
        Value::Bytes(_) => format!("{:?}", v.to_string()),
    }
}

/// Render an expression (fully parenthesized where precedence demands).
pub fn expr_to_string(e: &Expr) -> String {
    prec_print(e, 0)
}

fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div | BinOp::Rem => 5,
    }
}

fn prec_print(e: &Expr, parent: u8) -> String {
    match e {
        Expr::Var(v) => v.clone(),
        Expr::Const(c) => value_to_string(c),
        Expr::Unary(UnOp::Neg, inner) => format!("-{}", prec_print(inner, 6)),
        Expr::Unary(UnOp::Not, inner) => format!("!{}", prec_print(inner, 6)),
        Expr::Binary(op, a, b) => {
            let p = prec(*op);
            let s = format!(
                "{} {} {}",
                prec_print(a, p),
                op.symbol(),
                // Right operand binds one tighter to preserve shape of
                // left-associative chains.
                prec_print(b, p + 1)
            );
            if p < parent {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::In {
            expr,
            lo,
            hi,
            lo_closed,
            hi_closed,
        } => {
            let s = format!(
                "{} in {}{}, {}{}",
                prec_print(expr, 4),
                if *lo_closed { '[' } else { '(' },
                prec_print(lo, 0),
                prec_print(hi, 0),
                if *hi_closed { ']' } else { ')' },
            );
            if parent > 3 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Call { func, args } => {
            let xs: Vec<String> = args.iter().map(|a| prec_print(a, 0)).collect();
            format!("{func}({})", xs.join(", "))
        }
        Expr::List(items) => {
            let xs: Vec<String> = items.iter().map(|a| prec_print(a, 0)).collect();
            format!("[{}]", xs.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// The paper's listings, verbatim modulo whitespace — each must
    /// survive a parse → print → parse round trip structurally intact.
    const SAMPLES: &[&str] = &[
        "materialize(link, 100, 5, keys(1)).",
        "materialize(oscill, 120, infinity, keys(2, 3)).",
        "rp1 reqBestSucc@PAddr(NAddr) :- periodic@NAddr(E, 30), pred@NAddr(PID, PAddr), PAddr != \"-\".",
        "rp3 inconsistentPred@NAddr() :- respBestSucc@NAddr(PAddr, Successor), pred@NAddr(PID, PAddr), Successor != NAddr.",
        "ri4 countWraps@NAddr(SAddr, E, SrcAddr, SID, Wraps + 1) :- ordering@NAddr(E, SrcAddr, MyID, Wraps), bestSucc@NAddr(SAddr, SID), MyID >= SID.",
        "os3 countOscill@NAddr(OscillAddr, count<*>) :- periodic@NAddr(E, 60), oscill@NAddr(OscillAddr, Time).",
        "cs1 conProbe@NAddr(ProbeID, K, T) :- periodic@NAddr(ProbeID, 40), K := f_randID(), T := f_now().",
        "cs9 consistency@NAddr(ProbeID, RespCount / LookupCount) :- periodic@NAddr(E, 20), lookupCluster@NAddr(ProbeID, T, LookupCount), T < f_now() - 20, maxCluster@NAddr(ProbeID, RespCount).",
        "cs10 delete lookupCluster@NAddr(ProbeID, T, Count) :- consistency@NAddr(ProbeID, Consistency).",
        "l1 lookupResults@ReqAddr(K, SID, SAddr, E, RespAddr) :- node@NAddr(NID), lookup@NAddr(K, ReqAddr, E), bestSucc@NAddr(SAddr, SID), K in (NID, SID].",
        "l2 bestLookupDist@NAddr(K, ReqAddr, E, min<D>) :- node@NAddr(NID), lookup@NAddr(K, ReqAddr, E), finger@NAddr(FPos, FID, FAddr), D := K - FID - 1, FID in (NID, K).",
        "sr11 channelState@NAddr(Src, E, \"Done\") :- haveSnap@NAddr(Src, E, C), backPointer@NAddr(Remote), (C > 0) || (Src == Remote).",
        "path(B, C, [B, A] + P, W + Y) :- link(A, B, W), path(A, C, P, Y).",
    ];

    #[test]
    fn round_trip_paper_samples() {
        for src in SAMPLES {
            let p1 = parse_program(src).unwrap_or_else(|e| panic!("parse {src}: {e}"));
            let printed = program_to_string(&p1);
            let p2 = parse_program(&printed)
                .unwrap_or_else(|e| panic!("reparse failed for {printed}: {e}"));
            assert_eq!(
                p1, p2,
                "round trip changed structure for: {src}\nprinted: {printed}"
            );
        }
    }

    #[test]
    fn precedence_parenthesization() {
        // (a + b) * c must print with parens; a + b * c must not.
        let p = parse_program("r x@A((X + Y) * Z) :- t@A(X, Y, Z).").unwrap();
        let s = program_to_string(&p);
        assert!(s.contains("(X + Y) * Z"), "{s}");
        let p = parse_program("r x@A(X + Y * Z) :- t@A(X, Y, Z).").unwrap();
        let s = program_to_string(&p);
        assert!(s.contains("x@A(X + Y * Z)"), "{s}");
    }

    #[test]
    fn left_assoc_chain_stable() {
        let src = "r x@A(X - Y - Z) :- t@A(X, Y, Z).";
        let p1 = parse_program(src).unwrap();
        let p2 = parse_program(&program_to_string(&p1)).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn strings_are_quoted() {
        let p = parse_program(r#"r x@A("Done") :- t@A(X), X != "-"."#).unwrap();
        let s = program_to_string(&p);
        assert!(s.contains("\"Done\""));
        assert!(s.contains("\"-\""));
    }
}
