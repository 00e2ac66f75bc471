//! Message envelopes.

use p2_types::{Addr, Tuple, TupleId};

/// A same-relation run of tuples in flight between two nodes.
///
/// The envelope is the "network postamble" output of Figure 1: the
/// payload plus the routing and tracing metadata the paper's §2.1.3
/// correlation requires — the sender's node-local tuple IDs ride along so
/// the receiver's `tupleTable` rows can name them.
///
/// The router coalesces consecutive same-destination, same-relation
/// outputs of one pump into a single envelope. Mixing relations in one
/// envelope is not allowed: the receiver classifies an envelope by its
/// one relation ([`Envelope::relation`]) before unpacking it tuple by
/// tuple, and the wire codec rejects mixed batches
/// ([`crate::wire::WireError::MixedBatch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The payload tuples, all of the same relation (field 0 of each
    /// names `dst` by convention).
    pub tuples: Vec<Tuple>,
    /// Sending node.
    pub src: Addr,
    /// Destination node.
    pub dst: Addr,
    /// The sender's per-tuple IDs (parallel to `tuples`) when the sender
    /// traces execution. The canonical *untraced* form is an **empty**
    /// vector, never a vector of `None`s — [`Envelope::set_tuple_ids`]
    /// normalizes, and the codec round-trips the canonical form exactly.
    pub src_tuple_ids: Vec<Option<TupleId>>,
    /// `true` when this is a remote `delete`: the receiver removes the
    /// matching rows instead of raising insertions/events.
    pub delete: bool,
}

impl Envelope {
    /// Convenience constructor for a plain single-tuple (non-delete,
    /// untraced) send.
    pub fn new(tuple: Tuple, src: Addr, dst: Addr) -> Envelope {
        Envelope {
            tuples: vec![tuple],
            src,
            dst,
            src_tuple_ids: Vec::new(),
            delete: false,
        }
    }

    /// Number of payload tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the envelope carries no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The shared relation name (`None` for an empty envelope).
    pub fn relation(&self) -> Option<&str> {
        self.tuples.first().map(|t| t.name())
    }

    /// The sender-side ID of tuple `i` (`None` when untraced).
    pub fn tuple_id(&self, i: usize) -> Option<TupleId> {
        self.src_tuple_ids.get(i).copied().flatten()
    }

    /// Install per-tuple IDs, normalizing the all-`None` case to the
    /// canonical empty vector.
    pub fn set_tuple_ids(&mut self, ids: Vec<Option<TupleId>>) {
        if ids.iter().all(Option::is_none) {
            self.src_tuple_ids.clear();
        } else {
            self.src_tuple_ids = ids;
        }
    }

    /// Append one tuple (and its optional trace ID) to the batch,
    /// keeping the ID vector canonical: it stays empty until the first
    /// `Some` ID arrives, at which point it is back-filled with `None`s.
    pub fn push(&mut self, tuple: Tuple, id: Option<TupleId>) {
        debug_assert!(
            self.relation().is_none_or(|r| r == tuple.name()),
            "envelope batches must be same-relation runs"
        );
        if id.is_some() && self.src_tuple_ids.is_empty() {
            self.src_tuple_ids = vec![None; self.tuples.len()];
        }
        self.tuples.push(tuple);
        if id.is_some() || !self.src_tuple_ids.is_empty() {
            self.src_tuple_ids.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_types::Value;

    #[test]
    fn construction() {
        let t = Tuple::new("m", [Value::addr("b"), Value::Int(1)]);
        let e = Envelope::new(t.clone(), Addr::new("a"), Addr::new("b"));
        assert_eq!(e.tuples, vec![t]);
        assert_eq!(e.len(), 1);
        assert_eq!(e.relation(), Some("m"));
        assert!(!e.delete);
        assert!(e.tuple_id(0).is_none());
    }

    #[test]
    fn tuple_ids_normalize() {
        let t = Tuple::new("m", [Value::addr("b")]);
        let mut e = Envelope::new(t, Addr::new("a"), Addr::new("b"));
        e.set_tuple_ids(vec![None]);
        assert!(e.src_tuple_ids.is_empty(), "all-None normalizes to empty");
        e.set_tuple_ids(vec![Some(TupleId(7))]);
        assert_eq!(e.tuple_id(0), Some(TupleId(7)));
        // Out-of-range lookups are just None.
        assert_eq!(e.tuple_id(5), None);
    }

    #[test]
    fn push_keeps_ids_parallel() {
        let t = |i| Tuple::new("m", [Value::addr("b"), Value::Int(i)]);
        // First pushed tuple already traced: the ID must survive.
        let mut e = Envelope {
            tuples: Vec::new(),
            src: Addr::new("a"),
            dst: Addr::new("b"),
            src_tuple_ids: Vec::new(),
            delete: false,
        };
        e.push(t(0), Some(TupleId(10)));
        assert_eq!(e.tuple_id(0), Some(TupleId(10)));
        e.push(t(1), None);
        e.push(t(2), Some(TupleId(12)));
        assert_eq!(e.src_tuple_ids.len(), e.tuples.len());
        assert_eq!(e.tuple_id(1), None);
        assert_eq!(e.tuple_id(2), Some(TupleId(12)));
        // Untraced prefix back-fills when the first Some arrives late.
        let mut u = Envelope::new(t(0), Addr::new("a"), Addr::new("b"));
        u.push(t(1), None);
        assert!(u.src_tuple_ids.is_empty(), "all-untraced stays canonical");
        u.push(t(2), Some(TupleId(5)));
        assert_eq!(u.src_tuple_ids, vec![None, None, Some(TupleId(5))]);
    }
}
