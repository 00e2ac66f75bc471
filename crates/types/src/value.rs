//! Dynamically-typed values.
//!
//! OverLog is dynamically typed: a tuple field can hold an address, a ring
//! identifier, a number, a string, a boolean, a timestamp, a list (the
//! paper's quickstart rule builds paths with `[B,A] + P`), or opaque bytes
//! (runtime-only: shipped archive frames). [`Value`] is the
//! closed set of those types together with the arithmetic and comparison
//! semantics the paper's rules rely on:
//!
//! * `Id` arithmetic **wraps** on the 2^64 ring (`D := K - FID - 1` in
//!   lookup rule `l2` is a ring distance);
//! * `Int / Int` produces a `Float` (rule `cs9` divides two counts to get
//!   a consistency metric in `[0, 1]` that is then compared against
//!   `0.5`);
//! * `Str + Str` concatenates (rule `sr10` builds channel keys as
//!   `Remote + E`), and mixed `+` with a string on either side coerces the
//!   other operand to its display form;
//! * `List + List` concatenates, and `List + x` / `x + List`
//!   appends/prepends;
//! * comparison is a **total order** across all variants (variant rank
//!   first, then value; floats via `f64::total_cmp`) so values can key
//!   tables deterministically.

use crate::addr::Addr;
use crate::error::ValueError;
use crate::ring::RingId;
use crate::time::Time;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single OverLog value.
#[derive(Clone, Debug)]
pub enum Value {
    /// Boolean (comparison results, flags such as `ruleExec`'s is-event).
    Bool(bool),
    /// Signed integer (counts, thresholds, wrap counters).
    Int(i64),
    /// Floating point (consistency metrics, rates).
    Float(f64),
    /// Ring identifier (node IDs, keys; arithmetic wraps mod 2^64).
    Id(RingId),
    /// Timestamp (produced by `f_now()`, consumed by profiling rules).
    Time(Time),
    /// Interned string.
    Str(Arc<str>),
    /// Node address (field 0 of every tuple).
    Addr(Addr),
    /// Immutable list (paths in the quickstart example).
    List(Arc<[Value]>),
    /// Opaque bytes (shipped archive frames). No OverLog literal and no
    /// arithmetic: programs can only carry, compare and store them.
    Bytes(Arc<[u8]>),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for addresses.
    pub fn addr(s: impl AsRef<str>) -> Value {
        Value::Addr(Addr::new(s))
    }

    /// Convenience constructor for ring IDs.
    pub fn id(v: u64) -> Value {
        Value::Id(RingId(v))
    }

    /// Convenience constructor for lists.
    pub fn list(vs: impl IntoIterator<Item = Value>) -> Value {
        Value::List(vs.into_iter().collect())
    }

    /// A short name of this value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Id(_) => "id",
            Value::Time(_) => "time",
            Value::Str(_) => "str",
            Value::Addr(_) => "addr",
            Value::List(_) => "list",
            Value::Bytes(_) => "bytes",
        }
    }

    /// Rank used for the cross-variant total order.
    fn rank(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Id(_) => 3,
            Value::Time(_) => 4,
            Value::Str(_) => 5,
            Value::Addr(_) => 6,
            Value::List(_) => 7,
            Value::Bytes(_) => 8,
        }
    }

    /// Coerce to an address, accepting strings. `Str` and `Addr` compare
    /// and hash identically (rules match address fields against string
    /// literals like `"-"`), so address-valued strings flow through
    /// programs freely; Rust-side extractors use this to read them.
    pub fn to_addr(&self) -> Option<Addr> {
        match self {
            Value::Addr(a) => Some(a.clone()),
            Value::Str(s) => Some(Addr::new(&**s)),
            _ => None,
        }
    }

    /// Extract a ring identifier, accepting non-negative ints as IDs
    /// (OverLog literals like `0` are parsed as ints).
    pub fn as_ring_id(&self) -> Result<RingId, ValueError> {
        match self {
            Value::Id(i) => Ok(*i),
            Value::Int(n) if *n >= 0 => Ok(RingId(*n as u64)),
            other => Err(ValueError::type_mismatch("id", other)),
        }
    }

    /// Extract an integer.
    pub fn as_int(&self) -> Result<i64, ValueError> {
        match self {
            Value::Int(n) => Ok(*n),
            other => Err(ValueError::type_mismatch("int", other)),
        }
    }

    /// Extract a boolean.
    pub fn as_bool(&self) -> Result<bool, ValueError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ValueError::type_mismatch("bool", other)),
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Result<&str, ValueError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(ValueError::type_mismatch("str", other)),
        }
    }

    /// Numeric view used by mixed int/float arithmetic.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Addition / concatenation. See module docs for the full semantics.
    pub fn add(&self, rhs: &Value) -> Result<Value, ValueError> {
        use Value::*;
        Ok(match (self, rhs) {
            (Int(a), Int(b)) => Int(a.wrapping_add(*b)),
            (Id(a), Id(b)) => Id(RingId(a.0.wrapping_add(b.0))),
            (Id(a), Int(b)) => Id(RingId(a.0.wrapping_add(*b as u64))),
            (Int(a), Id(b)) => Id(RingId((*a as u64).wrapping_add(b.0))),
            // Time ± Int treats the integer as WHOLE SECONDS: the paper's
            // rules write `T < f_now() - 20` meaning twenty seconds (rule
            // cs9). Raw-microsecond arithmetic uses Time - Time -> Int.
            (Time(a), Int(b)) => Time(crate::time::Time(
                a.0.wrapping_add((*b as u64).wrapping_mul(1_000_000)),
            )),
            (Int(a), Time(b)) => Time(crate::time::Time(
                (*a as u64).wrapping_mul(1_000_000).wrapping_add(b.0),
            )),
            (List(a), List(b)) => List(a.iter().chain(b.iter()).cloned().collect()),
            (List(a), b) => List(
                a.iter()
                    .cloned()
                    .chain(std::iter::once(b.clone()))
                    .collect(),
            ),
            (a, List(b)) => List(
                std::iter::once(a.clone())
                    .chain(b.iter().cloned())
                    .collect(),
            ),
            (Str(a), Str(b)) => Value::str(format!("{a}{b}")),
            (Str(a), b) => Value::str(format!("{a}{b}")),
            (a, Str(b)) => Value::str(format!("{a}{b}")),
            // Mixed string-ish concatenation used by sr10 (`Remote + E`):
            // addr + anything coerces through display.
            (Addr(a), b) => Value::str(format!("{a}{b}")),
            (a, Addr(b)) => Value::str(format!("{a}{b}")),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Float(x + y),
                _ => return Err(ValueError::bad_op("+", a, b)),
            },
        })
    }

    /// Subtraction. `Id - Id` and `Id - Int` wrap on the ring; `Time -
    /// Time` yields the difference in microseconds as an `Int` (profiling
    /// rules `ep3`/`ep4` subtract timestamps and sum the results).
    pub fn sub(&self, rhs: &Value) -> Result<Value, ValueError> {
        use Value::*;
        Ok(match (self, rhs) {
            (Int(a), Int(b)) => Int(a.wrapping_sub(*b)),
            (Id(a), Id(b)) => Id(RingId(a.0.wrapping_sub(b.0))),
            (Id(a), Int(b)) => Id(RingId(a.0.wrapping_sub(*b as u64))),
            (Time(a), Time(b)) => Int(a.0.wrapping_sub(b.0) as i64),
            // Int interpreted as seconds; see `add`.
            (Time(a), Int(b)) => Time(crate::time::Time(
                a.0.wrapping_sub((*b as u64).wrapping_mul(1_000_000)),
            )),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Float(x - y),
                _ => return Err(ValueError::bad_op("-", a, b)),
            },
        })
    }

    /// Multiplication.
    pub fn mul(&self, rhs: &Value) -> Result<Value, ValueError> {
        use Value::*;
        Ok(match (self, rhs) {
            (Int(a), Int(b)) => Int(a.wrapping_mul(*b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Float(x * y),
                _ => return Err(ValueError::bad_op("*", a, b)),
            },
        })
    }

    /// Division. `Int / Int` deliberately yields a `Float`: the paper's
    /// rule `cs9` computes `RespCount / LookupCount` as a ratio in
    /// `[0, 1]`. Division by zero is a typed error, not a panic.
    pub fn div(&self, rhs: &Value) -> Result<Value, ValueError> {
        match (self.as_f64(), rhs.as_f64()) {
            (Some(_), Some(0.0)) => Err(ValueError::DivisionByZero),
            (Some(x), Some(y)) => Ok(Value::Float(x / y)),
            _ => Err(ValueError::bad_op("/", self, rhs)),
        }
    }

    /// Remainder on integers.
    pub fn rem(&self, rhs: &Value) -> Result<Value, ValueError> {
        match (self, rhs) {
            (Value::Int(_), Value::Int(0)) => Err(ValueError::DivisionByZero),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_rem(*b))),
            (a, b) => Err(ValueError::bad_op("%", a, b)),
        }
    }

    /// Total-order comparison across all variants.
    ///
    /// Numeric variants (`Int`/`Float`) compare by value against each
    /// other; otherwise different variants order by rank. `Id` vs `Int`
    /// also compares numerically (OverLog literals are ints, ring fields
    /// are IDs, and rules like `os4` compare them: `Count >= 3`).
    pub fn total_cmp(&self, rhs: &Value) -> Ordering {
        use Value::*;
        match (self, rhs) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Id(a), Id(b)) => a.cmp(b),
            (Id(a), Int(b)) if *b >= 0 => a.0.cmp(&(*b as u64)),
            (Int(a), Id(b)) if *a >= 0 => (*a as u64).cmp(&b.0),
            (Time(a), Time(b)) => a.cmp(b),
            (Time(a), Int(b)) if *b >= 0 => a.0.cmp(&(*b as u64)),
            (Int(a), Time(b)) if *a >= 0 => (*a as u64).cmp(&b.0),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Addr(a), Addr(b)) => a.cmp(b),
            // Str vs Addr compare textually: rules match address fields
            // against string literals like "-" (rule rp1).
            (Str(a), Addr(b)) => (**a).cmp(b.as_str()),
            (Addr(a), Str(b)) => a.as_str().cmp(&**b),
            (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.total_cmp(y) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                a.len().cmp(&b.len())
            }
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash must agree with the Eq above: numeric variants that can
        // compare equal across variants hash through a canonical form.
        match self {
            Value::Bool(b) => {
                state.write_u8(0);
                b.hash(state);
            }
            Value::Int(n) => {
                if *n >= 0 {
                    // Non-negative ints may equal Ids/Times: canonical u64.
                    state.write_u8(100);
                    state.write_u64(*n as u64);
                } else {
                    state.write_u8(1);
                    state.write_i64(*n);
                }
            }
            Value::Float(f) => {
                state.write_u8(2);
                state.write_u64(f.to_bits());
            }
            Value::Id(i) => {
                state.write_u8(100);
                state.write_u64(i.0);
            }
            Value::Time(t) => {
                state.write_u8(100);
                state.write_u64(t.0);
            }
            Value::Str(s) => {
                state.write_u8(101);
                s.hash(state);
            }
            Value::Addr(a) => {
                state.write_u8(101);
                a.as_str().hash(state);
            }
            Value::List(l) => {
                state.write_u8(7);
                for v in l.iter() {
                    v.hash(state);
                }
                state.write_usize(l.len());
            }
            Value::Bytes(b) => {
                state.write_u8(8);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Id(i) => write!(f, "{i}"),
            Value::Time(t) => write!(f, "{t}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Addr(a) => write!(f, "{a}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            // Bounded: a shipped chunk is tens of KiB, and Display feeds
            // string coercion and dumps.
            Value::Bytes(b) => {
                write!(f, "bytes[{}]:", b.len())?;
                for x in b.iter().take(8) {
                    write!(f, "{x:02x}")?;
                }
                if b.len() > 8 {
                    write!(f, "..")?;
                }
                Ok(())
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<RingId> for Value {
    fn from(i: RingId) -> Self {
        Value::Id(i)
    }
}
impl From<Time> for Value {
    fn from(t: Time) -> Self {
        Value::Time(t)
    }
}
impl From<Addr> for Value {
    fn from(a: Addr) -> Self {
        Value::Addr(a)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn int_arithmetic() {
        let a = Value::Int(7);
        let b = Value::Int(3);
        assert_eq!(a.add(&b).unwrap(), Value::Int(10));
        assert_eq!(a.sub(&b).unwrap(), Value::Int(4));
        assert_eq!(a.mul(&b).unwrap(), Value::Int(21));
        assert_eq!(a.rem(&b).unwrap(), Value::Int(1));
    }

    #[test]
    fn int_division_yields_float() {
        // cs9: RespCount / LookupCount must be a ratio, not truncated.
        let r = Value::Int(3).div(&Value::Int(4)).unwrap();
        assert_eq!(r, Value::Float(0.75));
        assert!(r.total_cmp(&Value::Float(0.5)) == Ordering::Greater);
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(matches!(
            Value::Int(1).div(&Value::Int(0)),
            Err(ValueError::DivisionByZero)
        ));
        assert!(matches!(
            Value::Int(1).rem(&Value::Int(0)),
            Err(ValueError::DivisionByZero)
        ));
    }

    #[test]
    fn id_arithmetic_wraps() {
        // l2: D := K - FID - 1 is a ring distance.
        let k = Value::id(5);
        let fid = Value::id(10);
        let d = k.sub(&fid).unwrap().sub(&Value::Int(1)).unwrap();
        assert_eq!(d, Value::Id(RingId(5u64.wrapping_sub(10).wrapping_sub(1))));
    }

    #[test]
    fn time_subtraction_gives_micros() {
        let a = Value::Time(Time::from_secs(2));
        let b = Value::Time(Time::from_secs(1));
        assert_eq!(a.sub(&b).unwrap(), Value::Int(1_000_000));
    }

    #[test]
    fn time_int_arithmetic_is_in_seconds() {
        // cs9: `T < f_now() - 20` subtracts twenty SECONDS.
        let now = Value::Time(Time::from_secs(100));
        assert_eq!(
            now.sub(&Value::Int(20)).unwrap(),
            Value::Time(Time::from_secs(80))
        );
        assert_eq!(
            now.add(&Value::Int(5)).unwrap(),
            Value::Time(Time::from_secs(105))
        );
    }

    #[test]
    fn list_concat_and_append() {
        // Quickstart: [B,A] + P prepends the new hop list to the path.
        let ba = Value::list([Value::str("b"), Value::str("a")]);
        let p = Value::list([Value::str("a"), Value::str("c")]);
        let got = ba.add(&p).unwrap();
        assert_eq!(
            got,
            Value::list([
                Value::str("b"),
                Value::str("a"),
                Value::str("a"),
                Value::str("c")
            ])
        );
        let appended = p.add(&Value::Int(9)).unwrap();
        assert_eq!(
            appended,
            Value::list([Value::str("a"), Value::str("c"), Value::Int(9)])
        );
    }

    #[test]
    fn string_concat_coerces() {
        // sr10 builds channel keys as Remote + E.
        let got = Value::addr("n3").add(&Value::Int(7)).unwrap();
        assert_eq!(got, Value::str("n37"));
    }

    #[test]
    fn addr_equals_str() {
        // rp1 compares a predecessor address against the literal "-".
        assert_eq!(Value::addr("-"), Value::str("-"));
        assert_ne!(Value::addr("n1"), Value::str("-"));
    }

    #[test]
    fn id_int_cross_compare() {
        assert_eq!(Value::id(3), Value::Int(3));
        assert!(Value::id(3) > Value::Int(2));
        assert!(Value::Int(2) < Value::id(3));
        assert_ne!(Value::id(3), Value::Int(-3));
    }

    #[test]
    fn eq_implies_same_hash() {
        let pairs = [
            (Value::id(3), Value::Int(3)),
            (Value::addr("-"), Value::str("-")),
            (Value::Time(Time(5)), Value::Int(5)),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(h(&a), h(&b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn accessors_reject_wrong_types() {
        assert!(Value::str("x").as_int().is_err());
        assert!(Value::Int(1).as_bool().is_err());
        assert!(Value::Int(1).as_str().is_err());
        assert!(Value::str("x").as_ring_id().is_err());
        // Coercions that are allowed:
        assert_eq!(Value::Int(7).as_ring_id().unwrap(), RingId(7));
        assert_eq!(Value::str("n").to_addr().unwrap().as_str(), "n");
        assert_eq!(Value::addr("n").to_addr().unwrap().as_str(), "n");
        assert!(Value::Int(1).to_addr().is_none());
    }

    #[test]
    fn type_errors_are_typed() {
        let e = Value::Bool(true).add(&Value::Bool(false)).unwrap_err();
        assert!(e.to_string().contains('+'));
    }

    #[test]
    fn bytes_are_structural_ranked_last_and_inert() {
        let b = |x: &[u8]| Value::Bytes(Arc::from(x));
        assert_eq!(b(&[1, 2]), b(&[1, 2]));
        assert_eq!(h(&b(&[1, 2])), h(&b(&[1, 2])));
        assert_ne!(b(&[1, 2]), b(&[1, 3]));
        assert!(b(&[1, 2]) < b(&[1, 2, 0]));
        // After every other variant, so no existing order moves; equal
        // to none of them, whatever the content.
        assert!(b(&[]) > Value::list([Value::Int(9)]));
        assert_ne!(b(b"n1"), Value::str("n1"));
        assert_eq!(b(&[]).type_name(), "bytes");
        // Arithmetic is a type error, like any mismatched operand.
        for rhs in [Value::Int(1), b(&[1])] {
            assert!(b(&[1]).add(&rhs).is_err());
            assert!(b(&[1]).sub(&rhs).is_err());
            assert!(b(&[1]).mul(&rhs).is_err());
            assert!(b(&[1]).div(&rhs).is_err());
            assert!(b(&[1]).rem(&rhs).is_err());
        }
        // Display stays short however long the payload.
        assert_eq!(b(&[0xde, 0xad]).to_string(), "bytes[2]:dead");
        let big = b(&[0xab; 48 * 1024]);
        assert_eq!(big.to_string(), "bytes[49152]:abababababababab..");
    }

    fn arb_scalar() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            any::<u64>().prop_map(Value::id),
            any::<u64>().prop_map(|t| Value::Time(Time(t))),
            "[a-z0-9:]{0,8}".prop_map(Value::str),
            "[a-z0-9:]{0,8}".prop_map(Value::addr),
            proptest::collection::vec(any::<u8>(), 0..8).prop_map(|b| Value::Bytes(b.into())),
        ]
    }

    proptest! {
        /// total_cmp is reflexive-equal and antisymmetric.
        #[test]
        fn prop_total_order(a in arb_scalar(), b in arb_scalar()) {
            prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
            let ab = a.total_cmp(&b);
            let ba = b.total_cmp(&a);
            prop_assert_eq!(ab, ba.reverse());
        }

        /// Eq values hash identically.
        #[test]
        fn prop_hash_consistent(a in arb_scalar(), b in arb_scalar()) {
            if a == b {
                prop_assert_eq!(h(&a), h(&b));
            }
        }

        /// Int addition is commutative.
        #[test]
        fn prop_add_commutes(a: i64, b: i64) {
            let x = Value::Int(a).add(&Value::Int(b)).unwrap();
            let y = Value::Int(b).add(&Value::Int(a)).unwrap();
            prop_assert_eq!(x, y);
        }
    }
}
