//! Ring identifier algebra.
//!
//! Chord places nodes and keys on a circular identifier space and every
//! correctness rule in the paper (`l1`–`l3`, `ri1`–`ri6`, …) is phrased in
//! terms of *ring interval membership*: `K in (NID, SID]`. The paper's P2
//! prototype uses 160-bit SHA-1 identifiers; we use 64-bit identifiers
//! (documented substitution in DESIGN.md §2.4 — only the ordering and
//! interval algebra matter to the rules, the width is a parameter).
//!
//! [`RingId`] provides wrapping arithmetic (distances on the ring) and
//! [`Interval`] provides membership with any combination of open/closed
//! endpoints, including the degenerate `a == b` cases that Chord relies on
//! (`(a, a]` denotes the *entire ring*).

use std::fmt;

/// A 64-bit identifier on the Chord ring. Arithmetic wraps modulo 2^64.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RingId(pub u64);

impl RingId {
    /// The zero identifier.
    pub const ZERO: RingId = RingId(0);
    /// The largest identifier.
    pub const MAX: RingId = RingId(u64::MAX);

    /// Clockwise distance from `self` to `other` (wrapping).
    ///
    /// `a.distance_to(b)` is the number of steps clockwise from `a` to `b`;
    /// it is `0` iff `a == b`.
    pub fn distance_to(self, other: RingId) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// Wrapping addition, used e.g. to compute finger targets `n + 2^i`.
    pub fn wrapping_add(self, k: u64) -> RingId {
        RingId(self.0.wrapping_add(k))
    }

    /// Wrapping subtraction.
    pub fn wrapping_sub(self, k: u64) -> RingId {
        RingId(self.0.wrapping_sub(k))
    }
}

impl fmt::Display for RingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl fmt::Debug for RingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({:#x})", self.0)
    }
}

impl From<u64> for RingId {
    fn from(v: u64) -> Self {
        RingId(v)
    }
}

/// A ring interval with independently open or closed endpoints.
///
/// OverLog's `X in (A, B]` expression compiles to
/// `Interval { lo: A, hi: B, lo_closed: false, hi_closed: true }`.
///
/// Degenerate intervals (`lo == hi`) follow the Chord conventions the
/// paper's rules depend on:
///
/// * `(a, a]`, `[a, a)`, `(a, a)` — the half-open and open empty-looking
///   intervals denote (almost) the **whole ring**: lookups must make
///   progress even when a node is its own successor. `(a, a]` and `[a, a)`
///   contain every identifier; `(a, a)` contains everything except `a`.
/// * `[a, a]` — the closed degenerate interval contains exactly `a`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Lower (counter-clockwise) endpoint.
    pub lo: RingId,
    /// Upper (clockwise) endpoint.
    pub hi: RingId,
    /// Whether `lo` itself is included.
    pub lo_closed: bool,
    /// Whether `hi` itself is included.
    pub hi_closed: bool,
}

impl Interval {
    /// The OverLog `(lo, hi]` interval — the common Chord successor test.
    pub fn open_closed(lo: RingId, hi: RingId) -> Self {
        Interval {
            lo,
            hi,
            lo_closed: false,
            hi_closed: true,
        }
    }

    /// The OverLog `(lo, hi)` interval.
    pub fn open_open(lo: RingId, hi: RingId) -> Self {
        Interval {
            lo,
            hi,
            lo_closed: false,
            hi_closed: false,
        }
    }

    /// The OverLog `[lo, hi)` interval.
    pub fn closed_open(lo: RingId, hi: RingId) -> Self {
        Interval {
            lo,
            hi,
            lo_closed: true,
            hi_closed: false,
        }
    }

    /// The OverLog `[lo, hi]` interval.
    pub fn closed_closed(lo: RingId, hi: RingId) -> Self {
        Interval {
            lo,
            hi,
            lo_closed: true,
            hi_closed: true,
        }
    }

    /// Ring membership test.
    ///
    /// Implemented over 128-bit clockwise distances from `lo` so the
    /// wrap-around and degenerate cases fall out of one comparison: with
    /// `dx = x - lo (mod 2^64)` and `dh = hi - lo (mod 2^64)`, `x` is in
    /// the interval iff `dx` lies between `0` and `dh` under the endpoint
    /// closedness — where a degenerate non-`[a,a]` interval promotes `dh`
    /// to the full ring size `2^64`.
    pub fn contains(&self, x: RingId) -> bool {
        const RING: u128 = 1 << 64;
        let dx = self.lo.distance_to(x) as u128;
        let mut dh = self.lo.distance_to(self.hi) as u128;
        if dh == 0 {
            if self.lo_closed && self.hi_closed {
                // [a, a] contains exactly a.
                return x == self.lo;
            }
            // (a, a], [a, a), (a, a): whole ring (modulo the open ends).
            // The point `a` is simultaneously the lower and upper endpoint,
            // so it is a member iff either endpoint is closed — this makes
            // `K in (n, n]` true for every K on a single-node ring, which
            // Chord's lookup rule `l1` requires for progress.
            if dx == 0 {
                return self.lo_closed || self.hi_closed;
            }
            dh = RING;
        }
        let lo_ok = if self.lo_closed { true } else { dx > 0 };
        let hi_ok = if self.hi_closed { dx <= dh } else { dx < dh };
        lo_ok && hi_ok
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}, {}{}",
            if self.lo_closed { '[' } else { '(' },
            self.lo,
            self.hi,
            if self.hi_closed { ']' } else { ')' },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(v: u64) -> RingId {
        RingId(v)
    }

    #[test]
    fn distance_wraps() {
        assert_eq!(id(5).distance_to(id(7)), 2);
        assert_eq!(id(7).distance_to(id(5)), u64::MAX - 1);
        assert_eq!(id(0).distance_to(id(0)), 0);
        assert_eq!(RingId::MAX.distance_to(id(0)), 1);
    }

    #[test]
    fn simple_membership_no_wrap() {
        let i = Interval::open_closed(id(10), id(20));
        assert!(!i.contains(id(10)));
        assert!(i.contains(id(11)));
        assert!(i.contains(id(20)));
        assert!(!i.contains(id(21)));
        assert!(!i.contains(id(5)));
    }

    #[test]
    fn membership_wraps_around_zero() {
        let i = Interval::open_closed(id(u64::MAX - 2), id(3));
        assert!(!i.contains(id(u64::MAX - 2)));
        assert!(i.contains(id(u64::MAX)));
        assert!(i.contains(id(0)));
        assert!(i.contains(id(3)));
        assert!(!i.contains(id(4)));
        assert!(!i.contains(id(1000)));
    }

    #[test]
    fn degenerate_intervals() {
        // (a, a] is the whole ring.
        let full = Interval::open_closed(id(42), id(42));
        assert!(full.contains(id(42)));
        assert!(full.contains(id(0)));
        assert!(full.contains(id(u64::MAX)));
        // [a, a] is exactly {a}.
        let point = Interval::closed_closed(id(42), id(42));
        assert!(point.contains(id(42)));
        assert!(!point.contains(id(43)));
        // (a, a) is everything but a.
        let punct = Interval::open_open(id(42), id(42));
        assert!(!punct.contains(id(42)));
        assert!(punct.contains(id(43)));
        assert!(punct.contains(id(41)));
        // [a, a) is the whole ring including a (dx=0 passes the closed lo,
        // and is strictly below the promoted full-ring dh).
        let half = Interval::closed_open(id(42), id(42));
        assert!(half.contains(id(42)));
        assert!(half.contains(id(0)));
    }

    #[test]
    fn closed_open_basics() {
        let i = Interval::closed_open(id(10), id(20));
        assert!(i.contains(id(10)));
        assert!(!i.contains(id(20)));
        assert!(i.contains(id(19)));
    }

    proptest! {
        /// Every point is in the full-ring degenerate `(a, a]` interval.
        #[test]
        fn prop_full_ring(a: u64, x: u64) {
            prop_assert!(Interval::open_closed(id(a), id(a)).contains(id(x)));
        }

        /// `(a,b]` and `(b,a]` partition the ring when `a != b`:
        /// every `x` is in exactly one of the two.
        #[test]
        fn prop_partition(a: u64, b: u64, x: u64) {
            prop_assume!(a != b);
            let ab = Interval::open_closed(id(a), id(b)).contains(id(x));
            let ba = Interval::open_closed(id(b), id(a)).contains(id(x));
            prop_assert!(ab ^ ba, "x must be in exactly one half");
        }

        /// Closed endpoints are members; the matching open interval
        /// excludes them.
        #[test]
        fn prop_endpoints(a: u64, b: u64) {
            prop_assume!(a != b);
            prop_assert!(Interval::closed_closed(id(a), id(b)).contains(id(a)));
            prop_assert!(Interval::closed_closed(id(a), id(b)).contains(id(b)));
            prop_assert!(!Interval::open_open(id(a), id(b)).contains(id(a)));
            prop_assert!(!Interval::open_open(id(a), id(b)).contains(id(b)));
        }

        /// Membership in `(a,b]` agrees with a model using 128-bit
        /// unwrapped coordinates.
        #[test]
        fn prop_model_check(a: u64, b: u64, x: u64) {
            prop_assume!(a != b);
            let da = 0u128;
            let db = id(a).distance_to(id(b)) as u128;
            let dx = id(a).distance_to(id(x)) as u128;
            let model = dx > da && dx <= db;
            prop_assert_eq!(
                Interval::open_closed(id(a), id(b)).contains(id(x)),
                model
            );
        }

        /// Distances compose: d(a,b) + d(b,c) == d(a,c) (mod 2^64).
        #[test]
        fn prop_distance_additive(a: u64, b: u64, c: u64) {
            let lhs = id(a).distance_to(id(b)).wrapping_add(id(b).distance_to(id(c)));
            prop_assert_eq!(lhs, id(a).distance_to(id(c)));
        }
    }
}
