// Library code must justify every panic path: unwrap/expect are
// clippy-warned outside tests (see scripts/tier1.sh, which denies
// warnings). Fix the call or carry an #[expect] with a reason.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # p2-overlog — the OverLog language
//!
//! OverLog is the Datalog variant in which P2 programs — and, crucially
//! for this paper, the *monitoring queries over those programs* — are
//! written. This crate implements the complete front end:
//!
//! * [`lexer`] — tokenization with source positions,
//! * [`ast`] — the abstract syntax (programs, `materialize` declarations,
//!   rules, predicates, expressions, aggregates),
//! * [`parser`] — a recursive-descent parser for the dialect used by every
//!   listing in the paper (location specifiers `pred@A(...)`, rule labels,
//!   `delete` rules, `count<*>`/`min<X>`/`max<X>` head aggregates,
//!   assignments `X := expr`, ring-interval membership `K in (A, B]`),
//! * [`validate()`] — static checks (range restriction: every head variable
//!   must be bound by the body; aggregate well-formedness; duplicate
//!   tables), run before planning so errors surface with positions,
//! * [`pretty`] — a printer that regenerates parseable source
//!   (round-trip-tested).
//!
//! The grammar is documented on [`parser::parse_program`].

pub mod ast;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod validate;

pub use ast::{
    AggFunc, Arg, BinOp, Expr, Lifetime, Materialize, Predicate, Program, Rule, SizeLimit,
    Statement, Term, UnOp,
};
pub use diag::{Diagnostic, Diagnostics, Severity, SourceUnit};
pub use lexer::{LexError, Span};
pub use parser::{parse_program, ParseError};
pub use validate::{
    validate, validate_arities, validate_statements, validate_strict, ValidateError,
};

/// Parse and validate a program in one step.
///
/// This is the entry point the node runtime uses when a query is
/// installed on-line; both phases report positioned, typed errors.
/// Validation is strict here (first error rejects); use
/// [`validate()`] directly — or the `p2-analysis` crate — for the
/// collect-everything diagnostics surface.
pub fn compile(src: &str) -> Result<Program, CompileError> {
    let program = parse_program(src).map_err(CompileError::Parse)?;
    validate_strict(&program).map_err(CompileError::Validate)?;
    Ok(program)
}

/// Error from [`compile`]: either a parse error or a validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Syntax error with position.
    Parse(ParseError),
    /// Semantic error with position.
    Validate(ValidateError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Validate(e) => write!(f, "validation error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_accepts_paper_rule() {
        let p = compile(
            r#"rp4 inconsistentPred@NAddr() :-
                 stabilizeRequest@NAddr(SomeID, SomeAddr),
                 pred@NAddr(PID, PAddr), SomeAddr != PAddr."#,
        )
        .unwrap();
        assert_eq!(p.rules().count(), 1);
    }

    #[test]
    fn compile_rejects_unbound_head_var() {
        let err = compile("r1 out@A(X) :- trigger@A(Y).").unwrap_err();
        assert!(matches!(err, CompileError::Validate(_)));
        assert!(err.to_string().contains('X'));
    }

    #[test]
    fn compile_rejects_syntax_error() {
        let err = compile("r1 out@A(X :- trigger@A(X).").unwrap_err();
        assert!(matches!(err, CompileError::Parse(_)));
    }
}
