// Library code must justify every panic path: unwrap/expect are
// clippy-warned outside tests (see scripts/tier1.sh, which denies
// warnings). Fix the call or carry an #[allow] with a reason.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # p2-trace — the execution tracer
//!
//! Implements §2.1 of the paper: the component that turns dataflow tap
//! observations into the two queryable trace tables,
//!
//! * **`ruleExec(loc, rule, cause, effect, t_in, t_out, isEvent)`** — one
//!   row per (cause tuple, output tuple) pair of a rule execution: the
//!   triggering event row (`isEvent = true`) plus one row per
//!   precondition fetched from a table (`isEvent = false`). §2.1.1.
//! * **`tupleTable(loc, id, srcAddr, srcId, dstAddr)`** — the memoization
//!   table relating node-local tuple IDs to content and, for tuples that
//!   crossed the network, to the sender's ID, enabling cross-node
//!   execution-graph traversal. §2.1.3.
//!
//! The heart of the module is the **pipelined record-matching algorithm**
//! of §2.1.2: the tracer holds several *records* per rule strand, each
//! associated with a contiguous window of join stages; stage-completion
//! signals advance the windows, preconditions are posted to the record
//! whose window covers their stage (flushing stale fields to the right),
//! and outputs are packaged from the record with the highest window.
//!
//! Both optimizations the paper names in §3.4 are implemented: a *fixed
//! number of execution records* per strand (`TraceConfig::records_per_strand`)
//! and *storing only executions that produce a valid output* (rows are
//! emitted only at output observation).

pub mod record;
#[cfg(test)]
mod sweep_tests;
pub mod tracer;

pub use record::{Record, RecordSet};
pub use tracer::{TraceConfig, Tracer, EVENT_LOG_LIFETIME, EVENT_LOG_MAX_ROWS};

pub use p2_types::trace_row::{RULE_EXEC, TUPLE_TABLE};
/// Table name for system-event rows (`eventLog(loc, relation, op, T)`),
/// §2.1's arrival/removal log. Populated only when
/// [`TraceConfig::log_events`] is on.
pub const EVENT_LOG: &str = "eventLog";
