// Library code must justify every panic path: unwrap/expect are
// clippy-warned outside tests (see scripts/tier1.sh, which denies
// warnings). Fix the call or carry an #[allow] with a reason.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # p2-net — network substrates
//!
//! The paper evaluates on 21 virtual nodes running as OS processes over a
//! LAN. We substitute (DESIGN.md §2.4) a **deterministic discrete-event
//! simulated network** — [`sim::SimNetwork`] — as the primary substrate:
//! per-link FIFO delivery (required by the Chandy–Lamport snapshot
//! algorithm of §3.3), configurable latency/jitter/loss, node crash and
//! link partition injection, and exact message counters (the *Tx
//! messages* series of Figures 6–7).
//!
//! Two real-time substrates demonstrate that the runtime is not
//! simulator-only: [`threaded::ThreadedHub`] over `std::sync::mpsc` channels,
//! and [`udp::UdpTransport`] over actual sockets — the paper's own wire
//! protocol (one marshaled tuple per datagram, unreliable and
//! unordered). Both pass every message through the [`wire`] codec;
//! integration tests run small overlays on each.

pub mod envelope;
pub mod ship;
pub mod sim;
pub mod threaded;
pub mod udp;
pub mod wire;

pub use envelope::Envelope;
pub use ship::{ShipError, ShipMsg, SHIP_RELATION};
pub use sim::{NetStats, SimConfig, SimNetwork, Stamp, StampedEnvelope};
pub use threaded::ThreadedHub;
pub use udp::{UdpRecv, UdpTransport};
pub use wire::WireError;
