#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # p2-chord — the Chord DHT on the p2ql runtime
//!
//! Every example in Section 3 of the paper runs against a P2
//! implementation of Chord; this crate is that implementation, written
//! entirely in OverLog (see [`program`]) with the message vocabulary the
//! paper's monitoring rules expect:
//!
//! | relation | shape | role |
//! |---|---|---|
//! | `node(N, NID)` | table | own identity |
//! | `succ(N, SID, SAddr)` | table | successor candidates |
//! | `bestSucc(N, SID, SAddr)` | table | immediate successor |
//! | `pred(N, PID, PAddr)` | table | predecessor (`"-"` when unset) |
//! | `finger(N, I, FID, FAddr)` | table | finger entries |
//! | `uniqueFinger(N, FAddr, FID)` | table | dedup'ed fingers (rule `cs2`) |
//! | `pingNode(N, R)` | table | outgoing liveness-ping links (rule `sr7`) |
//! | `faultyNode(N, F, T)` | table | recently dead neighbors (rules `os1`–`os2`) |
//! | `stabilizeRequest@S(NID, NAddr)` | msg | stabilization probe (rule `rp4`) |
//! | `sendPred@R(PID, PAddr)` | msg | successor's predecessor (rule `sb4`) |
//! | `returnSucc@R(SID, SAddr)` | msg | successor-list gossip (rule `sb7`) |
//! | `pingReq@R(NAddr, E)` / `pingResp` | msg | liveness (rule `bp1`) |
//! | `lookup@N(K, ReqAddr, E)` | msg | lookup request (rules `l1`–`l3`) |
//! | `lookupResults@R(K, SID, SAddr, E, Resp)` | msg | lookup answer (rule `ri1`) |
//!
//! Deliberately, the implementation keeps the **recycled-dead-neighbor
//! behaviour** the paper's §3.1.3 detectors hunt: a dead successor
//! gossiped back by a neighbor is re-adopted (rules `sb4`/`sb7` have no
//! `faultyNode` guard — expressing one would need negation, which neither
//! OverLog dialect has). The oscillation monitors exist precisely to
//! catch this pattern on-line.

pub mod oracle;
pub mod program;
pub mod testbed;

pub use oracle::{collect_ring, lookup_oracle, ring_is_ordered, ring_is_well_formed};
pub use program::{chord_program, node_facts, ChordConfig};
pub use testbed::{build_ring, issue_lookup, ChordRing};
