// Library code must justify every panic path: unwrap/expect are
// clippy-warned outside tests (see scripts/tier1.sh, which denies
// warnings). Fix the call or carry an #[allow] with a reason.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # p2-types — core data model for the p2ql system
//!
//! This crate defines the vocabulary shared by every other subsystem in the
//! reproduction of *"Using Queries for Distributed Monitoring and
//! Forensics"* (EuroSys 2006):
//!
//! * [`Value`] — the dynamically-typed scalar/list values carried in tuples,
//! * [`Tuple`] — immutable named relation rows (also used as messages),
//! * [`TraceRow`] — a `ruleExec`/`tupleTable` row held as a record,
//! * [`Addr`] — node addresses (field 0 of every tuple, by P2 convention),
//! * [`RingId`] and [`Interval`] — Chord-style ring identifier algebra,
//! * [`Time`] / [`TimeDelta`] — the virtual/real timestamp type,
//! * [`ValueError`] — typed errors for ill-typed expression evaluation,
//! * [`counters!`] — a counter struct declared with its `sysStat` keys.
//!
//! Everything here is deterministic and `Send + Sync`; no interior
//! mutability, no `unsafe`.

pub mod addr;
pub mod error;
pub mod ring;
pub mod rng;
pub mod time;
pub mod trace_row;
pub mod tuple;
pub mod value;

pub use addr::Addr;
pub use error::ValueError;
pub use ring::{Interval, RingId};
pub use rng::DetRng;
pub use time::{Time, TimeDelta};
pub use trace_row::{Cell, TraceField, TraceKind, TraceRow};
pub use tuple::{Tuple, TupleId};
pub use value::Value;

/// Declare a counter struct whose `u64` fields carry their `sysStat`
/// keys, and with it `counters()`: every keyed field as `(key, value)`,
/// in declaration order. A field with no `= "key"` (a `Duration`, say)
/// is an ordinary field and not listed. One declaration names a counter
/// once for every reader (DESIGN.md, "sysStat keys").
///
/// ```
/// p2_types::counters! {
///     #[derive(Default)]
///     pub struct Stats {
///         pub hits: u64 = "hits",
///         pub label: &'static str,
///         pub misses: u64 = "misses",
///     }
/// }
/// let s = Stats { hits: 2, ..Default::default() };
/// assert_eq!(s.counters(), [("hits", 2), ("misses", 0)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty $(= $key:literal)?,)*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $name {
            /// Every counter with its `sysStat` key, in declaration order.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$($(($key, self.$field),)?)*]
            }
        }
    };
}
