// Library code must justify every panic path: unwrap/expect are
// clippy-warned outside tests (see scripts/tier1.sh, which denies
// warnings). Fix the call or carry an #[expect] with a reason.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # p2-monitor — the paper's monitoring and forensics applications
//!
//! Every Section 3 example, as installable OverLog programs plus Rust
//! helpers to drive and read them:
//!
//! * [`ring`] — §3.1.1 ring well-formedness: active probing (`rp1`–`rp3`)
//!   and the passive `stabilizeRequest` check (`rp4`);
//! * [`ordering`] — §3.1.2 ring ID ordering: the opportunistic check on
//!   lookup responses (`ri1`) and the wrap-counting token traversal
//!   (`ri2`–`ri6`);
//! * [`oscillation`] — §3.1.3 state-oscillation detectors: single
//!   (`os1`–`os2`), repeated (`os3`–`os4`), and collaborative
//!   (`os5`–`os9`);
//! * [`consistency`] — §3.1.4 proactive routing-consistency probes
//!   (`cs1`–`cs12`);
//! * [`profiling`] — §3.2 execution profiling: walking `ruleExec` /
//!   `tupleTable` backwards from a lookup response, splitting latency
//!   into rule, local-queue, and network time (`ep1`–`ep6`);
//! * [`snapshot`] — §3.3 Chandy–Lamport consistent snapshots adapted to
//!   unknown incoming links (`bp1`–`bp4`, `sr0`–`sr15`), and Chord's
//!   lookups and the probe rewritten over a snapshot (`l1s`, `scs1`, ...);
//! * [`watchpoints`] — §1.3's persistent watchpoints: the passive
//!   detectors (their own rules, relabelled) bundled as an always-on
//!   regression suite with a periodic alarm roll-up;
//! * [`retrospect`] — the §3.1 invariants re-checked **after the
//!   fact** from archived history (DESIGN.md §2.11): reconstruct the
//!   ring at a past instant and ask whether it was well-formed,
//!   ordered, or oscillating — no monitor needed to have been
//!   installed at the time. One function per question, reading a
//!   `History` (each member's own archive, or one collector's), judged
//!   by the same `p2_chord::oracle` functions as the live ring.
//!
//! All of these install **on-line** onto running nodes (the paper's
//! "deployed piecemeal" model) — the tests in each module start a live
//! Chord ring first and add the monitors afterwards.

pub mod consistency;
pub mod ordering;
pub mod oscillation;
pub mod profiling;
pub mod retrospect;
pub mod ring;
pub mod snapshot;
pub mod watchpoints;

/// Parse OverLog this crate ships, to derive another program from it.
#[expect(clippy::expect_used, reason = "our own text: failing is a bug here")]
fn shipped(src: &str) -> p2_overlog::Program {
    p2_overlog::parse_program(src).expect("shipped OverLog parses")
}
