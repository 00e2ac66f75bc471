// Library code must justify every panic path: unwrap/expect are
// clippy-warned outside tests (see scripts/tier1.sh, which denies
// warnings). Fix the call or carry an #[allow] with a reason.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # p2ql — declarative distributed monitoring and forensics
//!
//! Umbrella crate for the Rust reproduction of *"Using Queries for
//! Distributed Monitoring and Forensics"* (Singh, Roscoe, Maniatis,
//! Druschel — EuroSys 2006). It re-exports the subsystem crates under
//! stable module names so applications can depend on one crate:
//!
//! * [`types`] — values, tuples, addresses, ring-ID algebra;
//! * [`overlog`] — the OverLog language (lexer, parser, AST, validator);
//! * [`store`] — soft-state tables with lifetimes, sizes and primary keys;
//! * [`dataflow`] — the Click-like element graph with pipelined strands;
//! * [`trace`] — the execution tracer (`ruleExec` / `tupleTable`, §2.1);
//! * [`planner`] — OverLog → dataflow compilation with tap insertion;
//! * [`analysis`] — static analysis (`p2ql check`): type inference,
//!   location safety, liveness lints over program stacks;
//! * [`net`] — simulated and threaded network transports;
//! * [`core`] — the node runtime, introspection, and simulation harness;
//! * [`chord`] — the P2-Chord overlay (the paper's running application);
//! * [`monitor`] — every monitoring application from Section 3.
//!
//! See `examples/quickstart.rs` for a five-minute tour, or run an
//! OverLog file directly with the `p2ql` binary
//! (`cargo run --bin p2ql -- run programs/paths.olg --nodes 3`).
//!
//! ```
//! use p2ql::core::SimHarness;
//! use p2ql::types::{TimeDelta, Tuple, Value};
//!
//! let mut sim = SimHarness::with_seed(7);
//! let a = sim.add_node("a");
//! sim.install(&a, r#"
//!     materialize(seen, infinity, infinity, keys(1, 2)).
//!     r1 seen@N(X) :- ping@N(X).
//! "#).unwrap();
//! sim.inject(&a, Tuple::new("ping", [Value::addr("a"), Value::Int(7)]));
//! sim.run_for(TimeDelta::from_secs(1));
//! let now = sim.now();
//! assert_eq!(sim.node_mut(&a).table_scan("seen", now).len(), 1);
//! ```

pub use p2_analysis as analysis;
pub use p2_chord as chord;
pub use p2_core as core;
pub use p2_dataflow as dataflow;
pub use p2_monitor as monitor;
pub use p2_net as net;
pub use p2_overlog as overlog;
pub use p2_planner as planner;
pub use p2_store as store;
pub use p2_trace as trace;
pub use p2_types as types;
