//! Wire messages for cross-node archive shipping (DESIGN.md §2.12).
//!
//! Distributed forensics moves **sealed segment frames** — the
//! immutable `P2AR` byte frames of `p2-store`'s archive tier — between
//! nodes, and it does so with one message: the chunked [`Shipment`].
//! An origin *pushes* shipments to the collectors subscribed to it; a
//! collector that cannot wait for the next push sends a
//! [`ShipMsg::Request`], which solicits one more shipment addressed to
//! the requester alone. This module defines only the message codec and
//! the chunking/reassembly machinery; the store stays ignorant of
//! transport and the net layer stays ignorant of segment contents
//! (frames ride through here as opaque bytes — `p2-core` validates them
//! against the segment codec on arrival).
//!
//! Ship messages travel **inside ordinary envelopes** as tuples of the
//! reserved relation [`SHIP_RELATION`], so they share the simulated
//! network's per-link FIFO clamp, loss/jitter model, and message
//! accounting with every other tuple — no second transport, and the
//! determinism argument for the sharded harness carries over verbatim.
//!
//! Hostile input never panics: every decode path returns a typed
//! [`ShipError`].

use crate::wire::{encode_value_into, Reader, WireError};
use p2_types::{Addr, Tuple, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Reserved relation name carrying ship messages through envelopes.
/// `p2-core` intercepts it on delivery, before tracing — ship frames
/// never appear in traces or tables.
pub const SHIP_RELATION: &str = "sysShip";

/// One chunk of a history shipment for `relation`: `chunk` of `chunks`
/// slices of an encoded segment-frame batch (see [`encode_batch`]).
/// `gen` is the origin's monotonically increasing shipment generation;
/// a receiver applies a shipment only when every chunk of the
/// generation has arrived, and a newer generation supersedes a partial
/// older one. An empty single-chunk shipment means "I archive, but hold
/// no history of that relation" — an answer, distinct from silence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shipment {
    /// Origin's shipment generation (monotone per relation).
    pub gen: u64,
    /// The relation shipped.
    pub relation: String,
    /// Zero-based chunk index.
    pub chunk: u32,
    /// Total chunks in this shipment.
    pub chunks: u32,
    /// Whether a [`ShipMsg::Request`] asked for this shipment (it went
    /// to the requester alone) rather than the origin pushing it to
    /// every subscriber.
    pub solicited: bool,
    /// `None`: the payload is the origin's full history. `Some(hi)`: a
    /// delta carrying only segments sealed *after* epoch `hi` (plus the
    /// open tail); it applies only on a receiver whose held baseline
    /// already covers `hi`, which must otherwise request a full one.
    pub base: Option<u64>,
    /// Epoch-hi of the origin's newest sealed segment once this
    /// shipment applies (`u64::MAX` when none are sealed) — the
    /// baseline a later delta may extend.
    pub watermark: u64,
    /// Epoch-lo of the origin's oldest sealed segment (`u64::MAX` when
    /// none).
    pub oldest_lo: u64,
    /// This chunk's slice of the encoded batch.
    pub bytes: Vec<u8>,
}

/// One archive-shipping protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipMsg {
    /// "Send me — and only me — your complete history of `relation`."
    /// Answered with a solicited full [`Shipment`] or a [`ShipMsg::Nack`].
    Request {
        /// The relation asked about.
        relation: String,
    },
    /// One chunk of history, pushed or solicited.
    Shipment(Shipment),
    /// "I cannot serve that request" — archiving disabled at the
    /// origin, typically. Lets the requester distinguish a peer that
    /// answered "no history available" from one that never answered.
    Nack {
        /// The relation asked about.
        relation: String,
        /// Human-readable refusal reason (also lands in `sysDiag`).
        reason: String,
    },
}

/// Typed ship-codec errors. Mirrors [`WireError`]'s philosophy: every
/// malformed frame maps onto one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipError {
    /// The frame ended early, or a value or typed field in it failed
    /// to decode.
    Wire(WireError),
    /// Unknown message tag byte.
    BadTag(u8),
    /// The carrier tuple is not shaped `sysShip(dst, Bytes(frame))`.
    BadField(&'static str),
    /// Bytes remained after the message was decoded.
    TrailingBytes(usize),
    /// A chunk index was out of range, or chunk counts disagreed
    /// across one reassembly.
    BadChunk {
        /// The offending zero-based chunk index.
        chunk: u32,
        /// The total the frame claimed.
        chunks: u32,
    },
}

impl From<WireError> for ShipError {
    fn from(e: WireError) -> ShipError {
        ShipError::Wire(e)
    }
}

impl fmt::Display for ShipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShipError::Wire(e) => write!(f, "ship value: {e}"),
            ShipError::BadTag(t) => write!(f, "unknown ship message tag {t:#x}"),
            ShipError::BadField(what) => write!(f, "ship field '{what}' has wrong type"),
            ShipError::TrailingBytes(n) => write!(f, "{n} trailing bytes after ship message"),
            ShipError::BadChunk { chunk, chunks } => {
                write!(f, "bad chunk {chunk} of {chunks}")
            }
        }
    }
}

impl std::error::Error for ShipError {}

const TAG_REQUEST: u8 = 1;
const TAG_SHIPMENT: u8 = 2;
const TAG_NACK: u8 = 3;

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

// Generations and epochs are full u64s; they ride the Int value as a
// lossless two's-complement cast ([`Reader::u64_field`] reads it back).
fn put_u64(out: &mut Vec<u8>, n: u64) {
    encode_value_into(out, &Value::Int(n as i64));
}

impl ShipMsg {
    /// Encode to the tag-byte + wire-value frame format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            ShipMsg::Request { relation } => {
                out.push(TAG_REQUEST);
                encode_value_into(&mut out, &Value::str(relation));
            }
            ShipMsg::Shipment(s) => {
                out.push(TAG_SHIPMENT);
                put_u64(&mut out, s.gen);
                encode_value_into(&mut out, &Value::str(&s.relation));
                put_u64(&mut out, u64::from(s.chunk));
                put_u64(&mut out, u64::from(s.chunks));
                put_u64(&mut out, u64::from(s.solicited));
                put_u64(&mut out, u64::from(s.base.is_some()));
                put_u64(&mut out, s.base.unwrap_or(0));
                put_u64(&mut out, s.watermark);
                put_u64(&mut out, s.oldest_lo);
                put_bytes(&mut out, &s.bytes);
            }
            ShipMsg::Nack { relation, reason } => {
                out.push(TAG_NACK);
                encode_value_into(&mut out, &Value::str(relation));
                encode_value_into(&mut out, &Value::str(reason));
            }
        }
        out
    }

    /// Decode a frame, validating every byte (chunk bounds included).
    pub fn decode(buf: &[u8]) -> Result<ShipMsg, ShipError> {
        let mut r = Reader::new(buf);
        let msg = match r.u8()? {
            TAG_REQUEST => ShipMsg::Request {
                relation: r.str_field("relation")?,
            },
            TAG_SHIPMENT => {
                let gen = r.u64_field("gen")?;
                let relation = r.str_field("relation")?;
                let chunk = r.u32_field("chunk")?;
                let chunks = r.u32_field("chunks")?;
                if chunks == 0 || chunk >= chunks {
                    return Err(ShipError::BadChunk { chunk, chunks });
                }
                let solicited = r.bool_field("solicited")?;
                let delta = r.bool_field("delta")?;
                let prev_hi = r.u64_field("prev_hi")?;
                ShipMsg::Shipment(Shipment {
                    gen,
                    relation,
                    chunk,
                    chunks,
                    solicited,
                    base: delta.then_some(prev_hi),
                    watermark: r.u64_field("watermark")?,
                    oldest_lo: r.u64_field("oldest_lo")?,
                    bytes: r.bytes()?.to_vec(),
                })
            }
            TAG_NACK => ShipMsg::Nack {
                relation: r.str_field("relation")?,
                reason: r.str_field("reason")?,
            },
            t => return Err(ShipError::BadTag(t)),
        };
        match r.remaining() {
            0 => Ok(msg),
            n => Err(ShipError::TrailingBytes(n)),
        }
    }

    /// Wrap for transport: one tuple of the reserved [`SHIP_RELATION`],
    /// shaped `sysShip(dst, Bytes(frame))` so it routes like any located
    /// tuple.
    pub fn to_tuple(&self, dst: &Addr) -> Tuple {
        Tuple::new(
            SHIP_RELATION,
            [Value::Addr(dst.clone()), Value::Bytes(self.encode().into())],
        )
    }

    /// Unwrap a carrier tuple produced by [`ShipMsg::to_tuple`].
    pub fn from_tuple(tuple: &Tuple) -> Result<ShipMsg, ShipError> {
        if tuple.name() != SHIP_RELATION {
            return Err(ShipError::BadField("relation_name"));
        }
        let Some(Value::Bytes(frame)) = tuple.get(1) else {
            return Err(ShipError::BadField("payload"));
        };
        ShipMsg::decode(frame)
    }
}

/// Encode a batch of frames (each an opaque byte string, in practice
/// encoded segments) as one payload: count, then per frame a length
/// prefix and the bytes. Little-endian u32s, like the value codec.
pub fn encode_batch(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + frames.iter().map(|f| 4 + f.len()).sum::<usize>());
    out.extend_from_slice(&(frames.len() as u32).to_le_bytes());
    for f in frames {
        put_bytes(&mut out, f);
    }
    out
}

/// Decode a batch payload back into its frames.
pub fn decode_batch(buf: &[u8]) -> Result<Vec<Vec<u8>>, ShipError> {
    let mut r = Reader::new(buf);
    // Every frame costs at least its 4-byte length prefix.
    let count = r.count()?;
    let mut frames = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        frames.push(r.bytes()?.to_vec());
    }
    match r.remaining() {
        0 => Ok(frames),
        n => Err(ShipError::TrailingBytes(n)),
    }
}

/// Slice a payload into `ceil(len / chunk_bytes)` chunks (at least
/// one: the empty payload ships as a single empty chunk, which is how
/// "I have no history" stays distinguishable from silence).
pub fn chunk_payload(payload: &[u8], chunk_bytes: usize) -> Vec<Vec<u8>> {
    let size = chunk_bytes.max(1);
    if payload.is_empty() {
        return vec![Vec::new()];
    }
    payload.chunks(size).map(|c| c.to_vec()).collect()
}

/// Reassembles one chunked shipment. Chunks may arrive in any order;
/// duplicates overwrite idempotently. Returns the whole payload once
/// every index is present.
#[derive(Debug, Default)]
pub struct Reassembly {
    chunks: BTreeMap<u32, Vec<u8>>,
    total: Option<u32>,
}

impl Reassembly {
    /// Fresh, empty reassembly buffer.
    pub fn new() -> Reassembly {
        Reassembly::default()
    }

    /// Offer one chunk. `Ok(Some(payload))` when complete, `Ok(None)`
    /// while chunks are missing, `Err` if the frame disagrees with the
    /// shipment's established chunk count or index range.
    pub fn offer(
        &mut self,
        chunk: u32,
        chunks: u32,
        bytes: Vec<u8>,
    ) -> Result<Option<Vec<u8>>, ShipError> {
        if chunks == 0 || chunk >= chunks {
            return Err(ShipError::BadChunk { chunk, chunks });
        }
        match self.total {
            Some(t) if t != chunks => {
                return Err(ShipError::BadChunk { chunk, chunks });
            }
            None => self.total = Some(chunks),
            _ => {}
        }
        self.chunks.insert(chunk, bytes);
        if self.chunks.len() as u32 == chunks {
            let mut out = Vec::new();
            for (_, part) in std::mem::take(&mut self.chunks) {
                out.extend_from_slice(&part);
            }
            self.total = None;
            Ok(Some(out))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn shipment(gen: u64, chunk: u32, chunks: u32, bytes: Vec<u8>) -> Shipment {
        Shipment {
            gen,
            relation: "bestSucc".into(),
            chunk,
            chunks,
            solicited: false,
            base: None,
            watermark: 11,
            oldest_lo: 2,
            bytes,
        }
    }

    fn sample_msgs() -> Vec<ShipMsg> {
        vec![
            ShipMsg::Request {
                relation: "bestSucc".into(),
            },
            ShipMsg::Shipment(Shipment {
                solicited: true,
                ..shipment(7, 1, 3, vec![0xDE, 0xAD, 0xBE, 0xEF])
            }),
            ShipMsg::Shipment(Shipment {
                relation: "ruleExec".into(),
                base: Some(9),
                watermark: 12,
                oldest_lo: u64::MAX,
                ..shipment(42, 0, 1, Vec::new())
            }),
            ShipMsg::Nack {
                relation: "seen".into(),
                reason: "archiving disabled".into(),
            },
        ]
    }

    #[test]
    fn round_trip_all_variants() {
        for msg in sample_msgs() {
            let enc = msg.encode();
            assert_eq!(ShipMsg::decode(&enc).unwrap(), msg);
        }
    }

    #[test]
    fn tuple_carrier_round_trips() {
        let dst = Addr::new("collector:1");
        for msg in sample_msgs() {
            let t = msg.to_tuple(&dst);
            assert_eq!(t.name(), SHIP_RELATION);
            assert_eq!(t.get(0), Some(&Value::Addr(dst.clone())));
            assert_eq!(ShipMsg::from_tuple(&t).unwrap(), msg);
        }
        // Anything but bytes in the payload slot is refused, typed.
        let hexed = Tuple::new(SHIP_RELATION, [Value::Addr(dst), Value::str("01ff")]);
        assert_eq!(
            ShipMsg::from_tuple(&hexed),
            Err(ShipError::BadField("payload"))
        );
    }

    #[test]
    fn truncation_is_error_not_panic() {
        for msg in sample_msgs() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    ShipMsg::decode(&bytes[..cut]).is_err(),
                    "decoding a {cut}-byte prefix of {msg:?} must fail cleanly"
                );
            }
        }
    }

    #[test]
    fn bad_tag_and_trailing_bytes_are_typed() {
        let mut bytes = sample_msgs()[0].encode();
        bytes[0] = 0x7F;
        assert_eq!(ShipMsg::decode(&bytes), Err(ShipError::BadTag(0x7F)));
        let mut bytes = sample_msgs()[0].encode();
        bytes.push(0);
        assert_eq!(ShipMsg::decode(&bytes), Err(ShipError::TrailingBytes(1)));
    }

    #[test]
    fn zero_or_out_of_range_chunks_rejected() {
        let ok = ShipMsg::Shipment(shipment(1, 0, 1, vec![1])).encode();
        assert!(ShipMsg::decode(&ok).is_ok());
        for (chunk, chunks) in [(5, 2), (2, 2), (0, 0)] {
            let bad = ShipMsg::Shipment(shipment(1, chunk, chunks, vec![1])).encode();
            assert_eq!(
                ShipMsg::decode(&bad),
                Err(ShipError::BadChunk { chunk, chunks })
            );
        }
    }

    #[test]
    fn chunk_and_reassemble_identity() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let chunks = chunk_payload(&payload, 999);
        assert_eq!(chunks.len(), 11);
        let total = chunks.len() as u32;
        let mut r = Reassembly::new();
        // Deliver out of order.
        let mut got = None;
        for (i, c) in chunks.into_iter().enumerate().rev() {
            got = r.offer(i as u32, total, c).unwrap();
        }
        assert_eq!(got.unwrap(), payload);
    }

    #[test]
    fn empty_payload_ships_as_one_chunk() {
        let chunks = chunk_payload(&[], 1024);
        assert_eq!(chunks, vec![Vec::<u8>::new()]);
        let mut r = Reassembly::new();
        assert_eq!(r.offer(0, 1, Vec::new()).unwrap(), Some(Vec::new()));
    }

    #[test]
    fn reassembly_rejects_disagreeing_totals() {
        let mut r = Reassembly::new();
        r.offer(0, 3, vec![1]).unwrap();
        assert!(matches!(
            r.offer(1, 4, vec![2]),
            Err(ShipError::BadChunk { .. })
        ));
    }

    #[test]
    fn batch_round_trip() {
        let frames = vec![vec![1u8, 2, 3], Vec::new(), vec![0xFF; 300]];
        let enc = encode_batch(&frames);
        assert_eq!(decode_batch(&enc).unwrap(), frames);
        assert_eq!(
            decode_batch(&encode_batch(&[])).unwrap(),
            Vec::<Vec<u8>>::new()
        );
    }

    proptest! {
        /// Arbitrary well-formed messages round-trip exactly.
        #[test]
        fn prop_ship_round_trip(
            gen in any::<u64>(),
            relation in "[a-zA-Z][a-zA-Z0-9]{0,16}",
            watermark in any::<u64>(),
            oldest_lo in any::<u64>(),
            chunk in 0u32..8,
            extra in 0u32..8,
            solicited in any::<bool>(),
            delta in any::<bool>(),
            prev_hi in any::<u64>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
            reason in "[ -~]{0,40}",
            which in 0usize..3,
        ) {
            let msg = match which {
                0 => ShipMsg::Request { relation },
                1 => ShipMsg::Shipment(Shipment {
                    gen, relation, chunk, chunks: chunk + extra + 1,
                    solicited, base: delta.then_some(prev_hi), watermark, oldest_lo, bytes,
                }),
                _ => ShipMsg::Nack { relation, reason },
            };
            prop_assert_eq!(ShipMsg::decode(&msg.encode()).unwrap(), msg.clone());
            let dst = Addr::new("n1");
            prop_assert_eq!(ShipMsg::from_tuple(&msg.to_tuple(&dst)).unwrap(), msg);
        }

        /// No byte soup panics the decoder.
        #[test]
        fn prop_no_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = ShipMsg::decode(&bytes);
            let _ = decode_batch(&bytes);
        }

        /// Single-byte corruption of a valid frame either still decodes
        /// (the flip hit payload bytes) or fails with a typed error —
        /// never a panic.
        #[test]
        fn prop_bit_flips_never_panic(
            seed in any::<u64>(),
            pos in any::<u64>(),
            flip in 1u8..255,
        ) {
            let msg = ShipMsg::Shipment(Shipment {
                base: seed.is_multiple_of(2).then_some(seed),
                ..shipment(seed, 0, 1, seed.to_le_bytes().to_vec())
            });
            let mut bytes = msg.encode();
            let idx = (pos % bytes.len() as u64) as usize;
            bytes[idx] ^= flip;
            let _ = ShipMsg::decode(&bytes);
        }

        /// Chunking then reassembling (any delivery order) is identity.
        #[test]
        fn prop_chunk_reassemble_identity(
            payload in proptest::collection::vec(any::<u8>(), 0..4096),
            chunk_bytes in 1usize..700,
        ) {
            let chunks = chunk_payload(&payload, chunk_bytes);
            let total = chunks.len() as u32;
            let mut r = Reassembly::new();
            let mut done = None;
            for (i, c) in chunks.into_iter().enumerate().rev() {
                prop_assert!(done.is_none());
                done = r.offer(i as u32, total, c).unwrap();
            }
            prop_assert_eq!(done.unwrap(), payload);
        }

        /// Batch framing round-trips arbitrary frame sets.
        #[test]
        fn prop_batch_round_trip(
            frames in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..128),
                0..12,
            ),
        ) {
            prop_assert_eq!(decode_batch(&encode_batch(&frames)).unwrap(), frames);
        }
    }
}
