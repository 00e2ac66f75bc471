// Library code must justify every panic path: unwrap/expect are
// clippy-warned outside tests (see scripts/tier1.sh, which denies
// warnings). Fix the call or carry an #[allow] with a reason.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # p2-store — soft-state tables
//!
//! P2 represents *all* state — routing tables, protocol timers, logs,
//! execution traces — as tuples in **soft-state tables** declared with
//! `materialize(name, lifetime, max_size, keys(...))` (§2 of the paper).
//! This crate implements those tables and the per-node catalog:
//!
//! * rows are keyed by the declared primary-key fields; inserting a tuple
//!   with an existing key **replaces** the old row,
//! * rows expire `lifetime` seconds after insertion (lazily, against the
//!   clock the caller passes in — virtual in simulation, real otherwise),
//! * tables hold at most `max_size` rows; inserting into a full table
//!   evicts the **oldest** row,
//! * every insert reports what happened so the node runtime can fire
//!   delta rules (a refresh fires none; a replacement hands back the
//!   old row; evicted rows are counted, and spilled when archiving).

pub mod archive;
pub mod catalog;
pub mod durable;
pub mod hash;
pub mod table;
#[cfg(test)]
mod table_tests;

pub use archive::{
    Archive, ArchiveConfig, ArchiveStats, ArchivedRow, ImportedHistory, ImportedStats, Segment,
    SegmentError, SpilledRow, LIVE_SENTINEL,
};
pub use catalog::{Catalog, CatalogError};
pub use durable::{
    recover_log, recovery_report, AuditRefused, DurableStats, DurableStore, Fault, FaultPlan,
    FaultingStore, FileDurable, MemDurable, Recovery,
};
pub use hash::{FxHashMap, FxHashSet};
pub use table::{InsertOutcome, Key, ProbeStats, Table, TableSpec, DEFAULT_AUTO_INDEX_THRESHOLD};
