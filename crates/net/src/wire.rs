//! Binary marshaling for tuples and envelopes.
//!
//! The dataflow's network preamble/postamble (Figure 1) marshal and
//! unmarshal tuples. The simulated network passes envelopes by value, but
//! the threaded transport round-trips every message through this codec so
//! that crossing a node boundary is honest — and so that the "malformed
//! remote input must never panic a node" property is actually exercised:
//! decoding returns typed [`WireError`]s for every truncation and tag
//! corruption.
//!
//! Format: little-endian, length-prefixed. One byte of tag per value.

use crate::envelope::Envelope;
use p2_types::{Addr, RingId, Time, Tuple, TupleId, Value};
use std::fmt;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended mid-field.
    Truncated,
    /// Unknown value tag byte.
    BadTag(u8),
    /// A string field was not UTF-8.
    BadUtf8,
    /// Nesting deeper than the decoder permits (stack safety on hostile
    /// input).
    TooDeep,
    /// An envelope batch mixed tuples of different relations; an
    /// envelope carries one relation's tuples, so this frame is invalid.
    MixedBatch,
    /// A frame field decoded to a value of the wrong type or range.
    BadField(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown value tag {t:#x}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::TooDeep => write!(f, "value nesting too deep"),
            WireError::MixedBatch => {
                write!(f, "envelope batch mixes tuples of different relations")
            }
            WireError::BadField(what) => write!(f, "field '{what}' has wrong type"),
        }
    }
}

impl std::error::Error for WireError {}

const MAX_DEPTH: usize = 16;

// Value tags: one byte ahead of every value.
const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_ID: u8 = 3;
const TAG_TIME: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_ADDR: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_BYTES: u8 = 8;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The one bounds-checked cursor over bytes from outside (datagrams,
/// ship frames, segment frames): every read is checked against the
/// buffer, every offset sum is a `checked_add`, and every failure is a
/// typed [`WireError`] — never a panic, never a wrap. The small reads
/// are `#[inline]`: the segment walk in `p2-store` makes several per
/// value, across the crate boundary.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed; a decoder that must account for every
    /// byte checks this is zero when it is done.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// One raw byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// A `u32` item count. Every counted item costs at least one byte,
    /// so a count beyond the buffer's length is an absurd prefix on
    /// hostile input and is rejected before anything allocates for it.
    pub fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// A `u32` length prefix, then that many raw bytes.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// One tagged value (the tag-per-value format of this module).
    pub fn value(&mut self) -> Result<Value, WireError> {
        decode_value(self, 0, None)
    }

    /// [`Reader::value`], sharing `prev`'s allocation when the value
    /// decodes to the same string or address. A segment's columns repeat
    /// row after row (`ruleExec`'s location is constant, its rule nearly
    /// so): handed the previous row's value, a decoded history holds one
    /// copy of each run instead of one per row.
    pub fn value_sharing(&mut self, prev: Option<&Value>) -> Result<Value, WireError> {
        decode_value(self, 0, prev)
    }

    /// Step over one tagged value, checking it exactly as
    /// [`Reader::value`] would — tag, lengths, UTF-8, nesting, same
    /// error first — without building it: a reader that wants only some
    /// of a frame's values still validates every byte of it. Scalars
    /// are stepped inline; only a list recurses.
    #[inline]
    pub fn skip_value(&mut self) -> Result<(), WireError> {
        match self.u8()? {
            TAG_LIST => skip_items(self, 0),
            tag => self.skip_scalar(tag),
        }
    }

    /// Step over the payload of a value whose non-list `tag` was just
    /// read (an unknown tag is the error).
    #[inline]
    fn skip_scalar(&mut self, tag: u8) -> Result<(), WireError> {
        match tag {
            TAG_BOOL => self.take(1).map(drop),
            // Int, Float, Id, Time: one 8-byte word.
            TAG_INT..=TAG_TIME => self.take(8).map(drop),
            TAG_STR | TAG_ADDR => {
                // ASCII text (every name and address the engine
                // writes) is UTF-8 without a call into the validator.
                let s = self.bytes()?;
                if s.is_ascii() || std::str::from_utf8(s).is_ok() {
                    Ok(())
                } else {
                    Err(WireError::BadUtf8)
                }
            }
            TAG_BYTES => self.bytes().map(drop),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// A value that must be a string; `what` names the field in the
    /// error.
    pub fn str_field(&mut self, what: &'static str) -> Result<String, WireError> {
        match self.value()? {
            Value::Str(s) => Ok(s.to_string()),
            _ => Err(WireError::BadField(what)),
        }
    }

    /// A value that must be a time.
    #[inline]
    pub fn time_field(&mut self, what: &'static str) -> Result<Time, WireError> {
        self.word_field(TAG_TIME, what).map(Time)
    }

    /// A full `u64` riding an `Int` as a lossless two's-complement cast
    /// (encoders write `u64 as i64`), so any `Int` is acceptable.
    #[inline]
    pub fn u64_field(&mut self, what: &'static str) -> Result<u64, WireError> {
        self.word_field(TAG_INT, what)
    }

    /// The 8-byte payload of a value that must carry `tag`: one fixed
    /// 9-byte read. Anything else is stepped over as
    /// [`Reader::skip_value`] would — so its own error comes first, as
    /// it would from a decode — and then refused as `BadField(what)`.
    #[inline]
    fn word_field(&mut self, tag: u8, what: &'static str) -> Result<u64, WireError> {
        match self.buf.get(self.pos..).and_then(<[u8]>::first_chunk::<9>) {
            Some([t, word @ ..]) if *t == tag => {
                self.pos += 9;
                Ok(u64::from_le_bytes(*word))
            }
            _ => {
                self.skip_value()?;
                Err(WireError::BadField(what))
            }
        }
    }

    /// An `Int` that must fit a `u32`.
    pub fn u32_field(&mut self, what: &'static str) -> Result<u32, WireError> {
        u32::try_from(self.u64_field(what)?).map_err(|_| WireError::BadField(what))
    }

    /// An `Int` that must be 0 or 1.
    pub fn bool_field(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u64_field(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadField(what)),
        }
    }
}

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int(n) => {
            out.push(TAG_INT);
            put_u64(out, *n as u64);
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            put_u64(out, x.to_bits());
        }
        Value::Id(i) => {
            out.push(TAG_ID);
            put_u64(out, i.0);
        }
        Value::Time(t) => {
            out.push(TAG_TIME);
            put_u64(out, t.0);
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Addr(a) => {
            out.push(TAG_ADDR);
            put_str(out, a.as_str());
        }
        Value::List(items) => {
            out.push(TAG_LIST);
            put_u32(out, items.len() as u32);
            for i in items.iter() {
                encode_value(out, i);
            }
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
    }
}

fn decode_value(
    r: &mut Reader<'_>,
    depth: usize,
    prev: Option<&Value>,
) -> Result<Value, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::TooDeep);
    }
    Ok(match r.u8()? {
        TAG_BOOL => Value::Bool(r.u8()? != 0),
        TAG_INT => Value::Int(r.u64()? as i64),
        TAG_FLOAT => Value::Float(f64::from_bits(r.u64()?)),
        TAG_ID => Value::Id(RingId(r.u64()?)),
        TAG_TIME => Value::Time(Time(r.u64()?)),
        TAG_STR => match (r.str()?, prev) {
            (s, Some(Value::Str(p))) if **p == *s => Value::Str(p.clone()),
            (s, _) => Value::str(s),
        },
        TAG_ADDR => match (r.str()?, prev) {
            (s, Some(Value::Addr(p))) if p.as_str() == s => Value::Addr(p.clone()),
            (s, _) => Value::addr(s),
        },
        TAG_LIST => {
            let n = r.count()?;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_value(r, depth + 1, None)?);
            }
            Value::list(items)
        }
        TAG_BYTES => Value::Bytes(r.bytes()?.into()),
        t => return Err(WireError::BadTag(t)),
    })
}

/// The items of a list at nesting `depth`, past its tag: what
/// [`decode_value`] checks for them, in its order, with nothing built.
fn skip_items(r: &mut Reader<'_>, depth: usize) -> Result<(), WireError> {
    for _ in 0..r.count()? {
        if depth + 1 > MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        match r.u8()? {
            TAG_LIST => skip_items(r, depth + 1)?,
            tag => r.skip_scalar(tag)?,
        }
    }
    Ok(())
}

/// Encode one value into `out` (the tag-per-value format above).
///
/// Public so other storage layers — notably the archive's segment
/// codec in `p2-store` — reuse the one binary value format instead of
/// inventing a second, with the same hostile-input guarantees.
pub fn encode_value_into(out: &mut Vec<u8>, v: &Value) {
    encode_value(out, v);
}

/// Encode a tuple.
pub fn encode_tuple(t: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_str(&mut out, t.name());
    put_u32(&mut out, t.arity() as u32);
    for v in t.values() {
        encode_value(&mut out, v);
    }
    out
}

/// Decode a tuple.
pub fn decode_tuple(buf: &[u8]) -> Result<Tuple, WireError> {
    decode_tuple_inner(&mut Reader::new(buf))
}

fn decode_tuple_inner(r: &mut Reader<'_>) -> Result<Tuple, WireError> {
    let name = r.str()?;
    let n = r.count()?;
    let mut vals = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        vals.push(decode_value(r, 0, None)?);
    }
    Ok(Tuple::new(name, vals))
}

/// Encode an envelope (a same-relation tuple batch + routing/tracing
/// metadata). Frame layout: src, dst, delete flag, tuple count, then per
/// tuple an ID-presence flag (plus the 8-byte ID when present) and the
/// tuple itself.
pub fn encode_envelope(e: &Envelope) -> Vec<u8> {
    debug_assert!(
        e.tuples.windows(2).all(|w| w[0].name() == w[1].name()),
        "envelope batches must be same-relation runs"
    );
    let mut out = Vec::with_capacity(96);
    put_str(&mut out, e.src.as_str());
    put_str(&mut out, e.dst.as_str());
    out.push(e.delete as u8);
    put_u32(&mut out, e.tuples.len() as u32);
    for (i, t) in e.tuples.iter().enumerate() {
        match e.tuple_id(i) {
            Some(id) => {
                out.push(1);
                put_u64(&mut out, id.0);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&encode_tuple(t));
    }
    out
}

/// Decode an envelope. Rejects batches that mix relations
/// ([`WireError::MixedBatch`]); an untraced batch (no IDs at all) decodes
/// to the canonical empty `src_tuple_ids`.
pub fn decode_envelope(buf: &[u8]) -> Result<Envelope, WireError> {
    let mut r = Reader::new(buf);
    let src = Addr::new(r.str()?);
    let dst = Addr::new(r.str()?);
    let delete = r.u8()? != 0;
    let count = r.count()?;
    let mut tuples = Vec::with_capacity(count.min(1024));
    let mut ids = Vec::with_capacity(count.min(1024));
    let mut any_id = false;
    for _ in 0..count {
        let id = match r.u8()? {
            0 => None,
            _ => {
                any_id = true;
                Some(TupleId(r.u64()?))
            }
        };
        let tuple = decode_tuple_inner(&mut r)?;
        if let Some(first) = tuples.first() {
            let first: &Tuple = first;
            if first.name() != tuple.name() {
                return Err(WireError::MixedBatch);
            }
        }
        ids.push(id);
        tuples.push(tuple);
    }
    let src_tuple_ids = if any_id { ids } else { Vec::new() };
    Ok(Envelope {
        tuples,
        src,
        dst,
        src_tuple_ids,
        delete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rt(t: &Tuple) -> Tuple {
        decode_tuple(&encode_tuple(t)).unwrap()
    }

    #[test]
    fn tuple_round_trip_all_types() {
        let t = Tuple::new(
            "mix",
            [
                Value::addr("n1:7"),
                Value::Bool(true),
                Value::Int(-17),
                Value::Float(0.5),
                Value::id(u64::MAX),
                Value::Time(Time(123)),
                Value::str("hello \u{1F980}"),
                Value::list([Value::Int(1), Value::list([Value::str("x")])]),
                Value::Bytes([0u8, 0xFF, 0x80].into()),
                Value::Bytes([].into()),
            ],
        );
        assert_eq!(rt(&t), t);
    }

    #[test]
    fn envelope_round_trip() {
        let e = Envelope {
            tuples: vec![Tuple::new("m", [Value::addr("b"), Value::Int(9)])],
            src: Addr::new("a"),
            dst: Addr::new("b"),
            src_tuple_ids: vec![Some(TupleId(42))],
            delete: true,
        };
        let got = decode_envelope(&encode_envelope(&e)).unwrap();
        assert_eq!(got, e);
    }

    #[test]
    fn batched_envelope_round_trip_mixed_ids() {
        // Some tuples traced, some not: per-tuple flags must survive.
        let e = Envelope {
            tuples: (0..5)
                .map(|i| Tuple::new("m", [Value::addr("b"), Value::Int(i)]))
                .collect(),
            src: Addr::new("a"),
            dst: Addr::new("b"),
            src_tuple_ids: vec![Some(TupleId(1)), None, Some(TupleId(3)), None, None],
            delete: false,
        };
        let got = decode_envelope(&encode_envelope(&e)).unwrap();
        assert_eq!(got, e);
    }

    #[test]
    fn empty_envelope_round_trips() {
        let e = Envelope {
            tuples: Vec::new(),
            src: Addr::new("a"),
            dst: Addr::new("b"),
            src_tuple_ids: Vec::new(),
            delete: false,
        };
        let got = decode_envelope(&encode_envelope(&e)).unwrap();
        assert_eq!(got, e);
    }

    #[test]
    fn mixed_relation_batch_rejected() {
        // Hand-craft a frame that splices two different relations into
        // one batch (the encoder refuses to build one).
        let a = Envelope::new(
            Tuple::new("m", [Value::addr("b")]),
            Addr::new("a"),
            Addr::new("b"),
        );
        let mut bytes = encode_envelope(&a);
        // Bump the count to 2 and append a second (different-relation)
        // id-flag + tuple.
        let count_pos = (4 + 1) + (4 + 1) + 1; // "a", "b", delete flag
        bytes[count_pos..count_pos + 4].copy_from_slice(&2u32.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&encode_tuple(&Tuple::new("other", [Value::Int(1)])));
        assert_eq!(decode_envelope(&bytes), Err(WireError::MixedBatch));
    }

    #[test]
    fn hostile_envelope_count_rejected() {
        let e = Envelope::new(
            Tuple::new("m", [Value::addr("b")]),
            Addr::new("a"),
            Addr::new("b"),
        );
        let mut bytes = encode_envelope(&e);
        let count_pos = (4 + 1) + (4 + 1) + 1;
        bytes[count_pos..count_pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_envelope(&bytes).is_err());
    }

    #[test]
    fn envelope_truncation_is_error_not_panic() {
        let e = Envelope {
            tuples: (0..3)
                .map(|i| Tuple::new("m", [Value::addr("b"), Value::Int(i)]))
                .collect(),
            src: Addr::new("a"),
            dst: Addr::new("b"),
            src_tuple_ids: vec![Some(TupleId(9)), None, None],
            delete: false,
        };
        let bytes = encode_envelope(&e);
        for cut in 0..bytes.len() {
            assert!(
                decode_envelope(&bytes[..cut]).is_err(),
                "decoding a {cut}-byte prefix must fail cleanly"
            );
        }
    }

    #[test]
    fn truncation_is_error_not_panic() {
        let t = Tuple::new("m", [Value::addr("b"), Value::str("payload")]);
        let bytes = encode_tuple(&t);
        for cut in 0..bytes.len() {
            let r = decode_tuple(&bytes[..cut]);
            assert!(r.is_err(), "decoding a {cut}-byte prefix must fail cleanly");
        }
    }

    #[test]
    fn bad_tag_is_error() {
        let t = Tuple::new("m", [Value::Int(1)]);
        let mut bytes = encode_tuple(&t);
        // Corrupt the value tag (after name len+name and arity).
        let tag_pos = 4 + 1 + 4;
        bytes[tag_pos] = 0xFF;
        assert_eq!(decode_tuple(&bytes), Err(WireError::BadTag(0xFF)));
    }

    #[test]
    fn bad_utf8_is_error() {
        let t = Tuple::new("m", [Value::str("abcd")]);
        let mut bytes = encode_tuple(&t);
        let len = bytes.len();
        bytes[len - 2] = 0xFF; // corrupt a UTF-8 byte inside the string
        assert_eq!(decode_tuple(&bytes), Err(WireError::BadUtf8));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let t = Tuple::new("m", [Value::list([Value::Int(1)])]);
        let mut bytes = encode_tuple(&t);
        // Blow up the list length prefix.
        let pos = 4 + 1 + 4 + 1; // name, arity, list tag
        bytes[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_tuple(&bytes).is_err());
    }

    #[test]
    fn hostile_bytes_length_rejected() {
        let t = Tuple::new("m", [Value::Bytes([1u8, 2, 3].into())]);
        let mut bytes = encode_tuple(&t);
        let pos = 4 + 1 + 4 + 1; // name, arity, bytes tag
        for claimed in [4u32, u32::MAX] {
            bytes[pos..pos + 4].copy_from_slice(&claimed.to_le_bytes());
            assert_eq!(decode_tuple(&bytes), Err(WireError::Truncated));
        }
    }

    #[test]
    fn deep_nesting_rejected() {
        let mut v = Value::Int(0);
        for _ in 0..40 {
            v = Value::list([v]);
        }
        let t = Tuple::new("deep", [v]);
        let bytes = encode_tuple(&t);
        assert_eq!(decode_tuple(&bytes), Err(WireError::TooDeep));
    }

    /// Reads `bytes` as a run of values twice, decoding and skipping, and
    /// checks the two readers agree value by value — same verdict, same
    /// position — up to the first error, which must be the same error.
    fn skip_agrees_with_decode(bytes: &[u8]) -> Result<(), TestCaseError> {
        let (mut dec, mut skip) = (Reader::new(bytes), Reader::new(bytes));
        loop {
            let (d, s) = (dec.value().map(|_| ()), skip.skip_value());
            prop_assert_eq!(&d, &s);
            prop_assert_eq!(dec.remaining(), skip.remaining());
            if d.is_err() || dec.remaining() == 0 {
                return Ok(());
            }
        }
    }

    #[test]
    fn skip_steps_over_every_value_kind_and_rejects_what_decode_rejects() {
        let t = Tuple::new(
            "mix",
            [
                Value::addr("n1:7"),
                Value::Bool(true),
                Value::Int(-17),
                Value::Float(0.5),
                Value::id(u64::MAX),
                Value::Time(Time(123)),
                Value::str("hello \u{1F980}"),
                Value::list([Value::Int(1), Value::list([Value::str("x")])]),
                Value::Bytes([0u8, 0xFF, 0x80].into()),
            ],
        );
        let mut body = Vec::new();
        for v in t.values() {
            encode_value_into(&mut body, v);
        }
        let mut r = Reader::new(&body);
        for _ in t.values() {
            r.skip_value().unwrap();
        }
        assert_eq!(r.remaining(), 0);
        for cut in 0..body.len() {
            skip_agrees_with_decode(&body[..cut]).unwrap();
        }
        let mut deep = Value::Int(0);
        for _ in 0..40 {
            deep = Value::list([deep]);
        }
        let mut deep_bytes = Vec::new();
        encode_value_into(&mut deep_bytes, &deep);
        assert_eq!(
            Reader::new(&deep_bytes).skip_value(),
            Err(WireError::TooDeep)
        );
        skip_agrees_with_decode(&[5, 2, 0, 0, 0, 0xC3, 0x28]).unwrap(); // bad UTF-8
        skip_agrees_with_decode(&[0xFF]).unwrap(); // bad tag
    }

    proptest! {
        /// Skipping a value is decoding it without the value: on any
        /// bytes the two agree on every verdict and every position.
        #[test]
        fn prop_skip_agrees_with_decode(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            skip_agrees_with_decode(&bytes)?;
            // The soup behind a list header, so nesting gets exercised.
            let mut listed = vec![7, 3, 0, 0, 0];
            listed.extend_from_slice(&bytes);
            skip_agrees_with_decode(&listed)?;
        }

        /// Arbitrary flat tuples round-trip.
        #[test]
        fn prop_round_trip(
            name in "[a-z]{1,12}",
            ints in proptest::collection::vec(any::<i64>(), 0..8),
            strs in proptest::collection::vec("[ -~]{0,20}", 0..4),
            blobs in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40),
                0..3,
            ),
        ) {
            let vals: Vec<Value> = ints
                .into_iter()
                .map(Value::Int)
                .chain(strs.into_iter().map(Value::str))
                .chain(blobs.into_iter().map(|b| Value::Bytes(b.into())))
                .collect();
            let t = Tuple::new(&name, vals);
            prop_assert_eq!(rt(&t), t);
        }

        /// No byte soup panics the decoder.
        #[test]
        fn prop_no_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_tuple(&bytes);
            let _ = decode_envelope(&bytes);
            // The same soup read as the body of a bytes value.
            let mut framed = encode_tuple(&Tuple::new("m", [Value::Bool(false)]));
            framed.truncate(4 + 1 + 4);
            framed.push(8);
            framed.extend_from_slice(&bytes);
            let _ = decode_tuple(&framed);
        }

        /// Arbitrary same-relation batches — including the empty batch
        /// and batches at the coalescing cap — round-trip exactly,
        /// per-tuple trace IDs included.
        #[test]
        fn prop_envelope_batch_round_trip(
            name in "[a-z]{1,12}",
            rows in proptest::collection::vec(
                (any::<i64>(), any::<u64>(), any::<bool>()),
                0..65,
            ),
            delete in any::<bool>(),
        ) {
            let tuples: Vec<Tuple> = rows
                .iter()
                .map(|(x, _, _)| Tuple::new(&name, [Value::addr("b"), Value::Int(*x)]))
                .collect();
            let mut e = Envelope {
                tuples,
                src: Addr::new("a"),
                dst: Addr::new("b"),
                src_tuple_ids: Vec::new(),
                delete,
            };
            e.set_tuple_ids(
                rows.iter()
                    .map(|(_, id, traced)| traced.then_some(TupleId(*id)))
                    .collect(),
            );
            let got = decode_envelope(&encode_envelope(&e)).unwrap();
            prop_assert_eq!(got, e);
        }

        /// A frame spliced together from two different relations is
        /// always rejected as a mixed batch, never mis-dispatched.
        #[test]
        fn prop_mixed_relations_rejected(
            n1 in "[a-z]{1,8}",
            n2 in "[A-Z]{1,8}", // disjoint alphabet: always a different name
            vals in proptest::collection::vec(any::<i64>(), 1..8),
        ) {
            let mut e = Envelope::new(
                Tuple::new(&n1, [Value::addr("b"), Value::Int(0)]),
                Addr::new("a"),
                Addr::new("b"),
            );
            for v in &vals {
                e.tuples.push(Tuple::new(&n2, [Value::addr("b"), Value::Int(*v)]));
            }
            // Bypass the encoder's same-relation debug_assert by
            // splicing frames manually.
            let count_pos = (4 + 1) + (4 + 1) + 1;
            let mut bytes = encode_envelope(&Envelope::new(
                e.tuples[0].clone(),
                e.src.clone(),
                e.dst.clone(),
            ));
            bytes[count_pos..count_pos + 4]
                .copy_from_slice(&(1 + vals.len() as u32).to_le_bytes());
            for t in &e.tuples[1..] {
                bytes.push(0);
                bytes.extend_from_slice(&encode_tuple(t));
            }
            prop_assert_eq!(decode_envelope(&bytes), Err(WireError::MixedBatch));
        }
    }
}
