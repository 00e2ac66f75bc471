// Library code must justify every panic path: unwrap/expect are
// clippy-warned outside tests (see scripts/tier1.sh, which denies
// warnings). Fix the call or carry an #[allow] with a reason.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # p2-core — the node runtime and simulation harness
//!
//! Everything between the front end and the wire: a [`node::Node`] owns a
//! table catalog, the instantiated rule strands, the periodic timers, an
//! optional execution tracer, and the routing logic of Figure 1's network
//! preamble/postamble. Programs are installed **on-line**, at any point
//! in a node's life — the paper's "deployed piecemeal" usage model — and
//! can be removed again by handle.
//!
//! One population engine, [`parallel::Engine`], drives nodes over the
//! deterministic simulated network with a virtual clock (the DESIGN.md
//! §2.4 substitution for the paper's 21-process testbed) at any shard
//! count — [`SimHarness`] is its one-shard case, [`ParallelHarness`]
//! takes a count — and doubles as the measurement rig: per-node busy
//! time, live tuples, memory estimate, and messages sent — the exact
//! series of Figures 4–7.

pub mod driver;
pub mod harness;
mod installer;
pub mod introspect;
pub mod metrics;
pub mod node;
pub mod parallel;
mod router;
mod scheduler;
pub mod ship;
pub mod sim;

pub use driver::{Driver, SimPort, ThreadedPort, Transport, UdpPort};
pub use harness::Population;
pub use metrics::{NodeMetrics, ShardStats};
pub use node::{
    ArchiveEnroll, ArchiveMode, DurabilityMode, DurableBackend, InstallError, Node, NodeConfig,
    ProgramId,
};
pub use parallel::ParallelHarness;
pub use ship::{ShipFailure, ShipStats};
#[doc(hidden)]
pub use sim::SequentialOracle;
pub use sim::SimHarness;
