// Library code must justify every panic path: unwrap/expect are
// clippy-warned outside tests (see scripts/tier1.sh, which denies
// warnings). Fix the call or carry an #[allow] with a reason.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # p2-planner — compiling OverLog to executable rule strands
//!
//! The P2 *planner* translates each OverLog rule into one or more **rule
//! strands** — linear chains of database operators (Figure 1 of the
//! paper: network preamble → per-rule strands → network postamble). This
//! crate is the pure compilation half: it takes a validated
//! [`p2_overlog::Program`] plus the set of already-materialized tables on
//! the installing node and produces a [`plan::CompiledProgram`] of
//! [`plan::Strand`]s that the dataflow engine instantiates.
//!
//! Key decisions implemented here (DESIGN.md §2.1):
//!
//! * **Trigger selection.** A body predicate that is not materialized is
//!   a transient *event*; a rule may have at most one event predicate and
//!   it becomes the strand's trigger. A rule over only materialized
//!   predicates gets **one strand per predicate**, each triggered by
//!   insertions into that table (delta rules).
//! * **`periodic` triggers.** `periodic@N(E, T)` compiles to a timer
//!   trigger with period `T`; the runtime synthesizes the event tuple.
//! * **Aggregates.** For an event-triggered aggregate the strand's result
//!   multiset is grouped by the non-aggregate head fields. For a
//!   table-insert-triggered aggregate the strand first binds the delta's
//!   group fields and then **re-joins the trigger table itself**, so the
//!   aggregate is recomputed over the whole table restricted to the
//!   touched group (this is what makes `count<*>` rules like `cs6`,
//!   `os8`, `sr12` report totals, not deltas). A `count<*>` whose group
//!   fields are all bound by the trigger emits `0` on an empty match set
//!   (rule `sr8`/`sr9` depends on this).
//! * **Slot compilation.** Variables are resolved to dense environment
//!   slots at plan time; expressions become [`expr::PExpr`] over slots.

pub mod compile;
pub mod explain;
pub mod expr;
pub mod ir;
pub mod passes;
pub mod plan;

pub use compile::{compile_program, compile_program_with, PlanError};
pub use explain::explain;
pub use expr::{eval, Builtin, EvalCtx, EvalError, ExprError, PExpr};
pub use passes::{OptLevel, PlanOpts};
pub use plan::{
    AggPlan, CompiledProgram, Diagnostic, FieldMatch, FieldOut, HeadSpec, MatchSpec, Op,
    PrefixGroup, Strand, TableDecl, Trigger,
};
