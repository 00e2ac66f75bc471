//! Immutable tuples.
//!
//! Tuples are the universal currency of P2: table rows, inter-node
//! messages, and internal events are all tuples (§2 of the paper). A tuple
//! is a relation name plus a vector of [`Value`]s; **field 0 is the
//! address of the node where the tuple lives** (the `@` location specifier
//! of OverLog desugars to field 0).
//!
//! Tuples are immutable and cheaply cloneable (`Arc` payloads). Tuple
//! *identity* for tracing purposes — the node-unique [`TupleId`] of
//! §2.1.3 — is assigned by the node runtime when a tuple is first created
//! there, and lives outside the tuple itself so that the same content
//! received on two nodes gets two distinct local IDs, as in the paper's
//! `tupleTable` example.

use crate::addr::Addr;
use crate::error::ValueError;
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A node-local tuple identifier (§2.1.3).
///
/// IDs are unique *per node*; the `tupleTable` relates a local ID to the
/// (source address, source ID) pair for tuples that crossed the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TupleId(pub u64);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An immutable, named tuple.
#[derive(Clone, Eq, PartialOrd, Ord)]
pub struct Tuple {
    name: Arc<str>,
    vals: Arc<[Value]>,
}

/// Structural equality, short-circuited per field when both sides share
/// one allocation: a memo hit on a table row and the store's refresh
/// check compare clones of one tuple, and `Arc`'s own `==` only takes
/// that shortcut for sized payloads.
impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        (Arc::ptr_eq(&self.name, &other.name) || self.name == other.name)
            && (Arc::ptr_eq(&self.vals, &other.vals) || self.vals == other.vals)
    }
}

/// What `#[derive(Hash)]` would write; by hand because `eq` is.
impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.vals.hash(state);
    }
}

impl Tuple {
    /// Build a tuple from a relation name and its field values.
    ///
    /// By convention `vals[0]` should be the location address, but the
    /// constructor does not enforce it: introspection tuples and test
    /// fixtures sometimes omit it, and the network layer checks locations
    /// where it matters.
    pub fn new(name: impl AsRef<str>, vals: impl IntoIterator<Item = Value>) -> Tuple {
        Tuple::with_name(Arc::from(name.as_ref()), vals)
    }

    /// [`Tuple::new`] around an already-interned relation name: callers
    /// that build many rows of one relation (the tracer, the segment
    /// decoder) share one name allocation across all of them.
    pub fn with_name(name: Arc<str>, vals: impl IntoIterator<Item = Value>) -> Tuple {
        Tuple {
            name,
            vals: vals.into_iter().collect(),
        }
    }

    /// A tuple around an interned relation name and an already-built
    /// value slice: a decoder that fills the slice in place hands it
    /// over as it is.
    pub fn with_values(name: Arc<str>, vals: Arc<[Value]>) -> Tuple {
        Tuple { name, vals }
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned relation name (cheap to clone).
    pub fn name_arc(&self) -> Arc<str> {
        self.name.clone()
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.vals.len()
    }

    /// All field values.
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// The shared field-value slice (cheap to clone, like
    /// [`Tuple::name_arc`]). Lets callers that need an owned copy of
    /// every field share the tuple's own allocation.
    pub fn values_arc(&self) -> Arc<[Value]> {
        self.vals.clone()
    }

    /// Field accessor.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.vals.get(i)
    }

    /// The location field (field 0), if it is an address.
    pub fn location(&self) -> Result<&Addr, ValueError> {
        match self.vals.first() {
            Some(Value::Addr(a)) => Ok(a),
            Some(other) => Err(ValueError::type_mismatch("addr", other)),
            None => Err(ValueError::MissingField { index: 0 }),
        }
    }

    /// Rough in-memory footprint in bytes, used by the memory-utilization
    /// benchmarks (Figures 4–7 plot process memory / live tuples; we
    /// report live-tuple bytes from this estimate).
    pub fn approx_bytes(&self) -> usize {
        fn val_bytes(v: &Value) -> usize {
            std::mem::size_of::<Value>()
                + match v {
                    Value::Str(s) => s.len(),
                    Value::Addr(a) => a.as_str().len(),
                    Value::List(l) => l.iter().map(val_bytes).sum(),
                    Value::Bytes(b) => b.len(),
                    _ => 0,
                }
        }
        std::mem::size_of::<Tuple>()
            + self.name.len()
            + self.vals.iter().map(val_bytes).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, v) in self.vals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn t() -> Tuple {
        Tuple::new("link", [Value::addr("a"), Value::addr("b"), Value::Int(3)])
    }

    #[test]
    fn accessors() {
        let t = t();
        assert_eq!(t.name(), "link");
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(2), Some(&Value::Int(3)));
        assert_eq!(t.get(3), None);
        assert_eq!(t.location().unwrap().as_str(), "a");
    }

    #[test]
    fn location_requires_addr() {
        let bad = Tuple::new("x", [Value::Int(1)]);
        assert!(bad.location().is_err());
        let empty = Tuple::new("x", []);
        assert!(matches!(
            empty.location(),
            Err(ValueError::MissingField { index: 0 })
        ));
    }

    #[test]
    fn display_format() {
        assert_eq!(t().to_string(), "link(a, b, 3)");
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(t(), t());
        let other = Tuple::new("link", [Value::addr("a"), Value::addr("b"), Value::Int(4)]);
        assert_ne!(t(), other);
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let small = Tuple::new("x", [Value::Int(1)]);
        let big = Tuple::new("x", [Value::str("a".repeat(100))]);
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    /// The field-by-field equality and hash `#[derive]` used to write.
    fn structural_eq(a: &Tuple, b: &Tuple) -> bool {
        a.name() == b.name() && a.values() == b.values()
    }

    fn structural_hash(t: &Tuple) -> u64 {
        let mut s = DefaultHasher::new();
        t.name().hash(&mut s);
        t.values().hash(&mut s);
        s.finish()
    }

    fn hash_of(t: &Tuple) -> u64 {
        let mut s = DefaultHasher::new();
        t.hash(&mut s);
        s.finish()
    }

    fn arb_tuple() -> impl Strategy<Value = Tuple> {
        let val = prop_oneof![
            (0i64..4).prop_map(Value::Int),
            (0u64..4).prop_map(Value::id),
            "[ab]{0,2}".prop_map(Value::str),
            "[ab]{0,2}".prop_map(Value::addr),
        ];
        ("[xy]{1,2}", proptest::collection::vec(val, 0..4))
            .prop_map(|(name, vals)| Tuple::new(name, vals))
    }

    proptest! {
        /// The hand-written `eq`/`hash` are the structural ones, whether
        /// the two sides share allocations (a clone), share none (rebuilt
        /// from the same parts), share only the name, or differ.
        #[test]
        fn prop_eq_and_hash_are_structural(a in arb_tuple(), b in arb_tuple()) {
            let rebuilt = Tuple::new(a.name(), a.values().iter().cloned());
            let renamed = Tuple::with_name(a.name_arc(), b.values().iter().cloned());
            for other in [&a.clone(), &rebuilt, &renamed, &b] {
                prop_assert_eq!(a == *other, structural_eq(&a, other));
                prop_assert_eq!(hash_of(other), structural_hash(other));
                if a == *other {
                    prop_assert_eq!(hash_of(&a), hash_of(other));
                }
            }
            prop_assert!(a == a.clone() && a == rebuilt);
        }
    }
}
