//! The new segment walk is the old one.
//!
//! [`model`] is [`Segment::walk`] as it stood before the walk stopped
//! building values it does not keep: every interval time and arity was
//! a whole [`Value`] decoded through [`Reader::value`] and matched, and
//! every skipped value went through a recursive skipper with a depth
//! check at each call. The tests below drive both over random frames —
//! every value tag, strings with multi-byte UTF-8, lists nested past
//! the decoder's depth limit — and over the same frames cut short,
//! overwritten, bit-flipped and given absurd counts, and compare what a
//! caller can observe: the `Ok` segment or the first error, the rows
//! emitted on the way, [`Segment::rows`], and [`scan_segments`]' hits
//! and prune count for random windows and equalities.

use super::*;
use p2_types::DetRng;

/// The walk and the reads it was built on, before the change.
mod model {
    use super::super::{eqs_hold, in_window, Segment, SegmentError, SpilledRow, Wanted};
    use super::super::{SEGMENT_MAGIC, SEGMENT_VERSION};
    use p2_net::wire::{Reader, WireError};
    use p2_types::{Time, Tuple, Value};
    use std::sync::Arc;

    const MAX_DEPTH: usize = 16;

    fn time_field(r: &mut Reader<'_>, what: &'static str) -> Result<Time, WireError> {
        match r.value()? {
            Value::Time(t) => Ok(t),
            _ => Err(WireError::BadField(what)),
        }
    }

    fn u64_field(r: &mut Reader<'_>, what: &'static str) -> Result<u64, WireError> {
        match r.value()? {
            Value::Int(n) => Ok(n as u64),
            _ => Err(WireError::BadField(what)),
        }
    }

    fn skip_value(r: &mut Reader<'_>, depth: usize) -> Result<(), WireError> {
        if depth > MAX_DEPTH {
            return Err(WireError::TooDeep);
        }
        match r.u8()? {
            0 => {
                r.u8()?;
            }
            1..=4 => {
                r.take(8)?;
            }
            5 | 6 => {
                std::str::from_utf8(r.bytes()?).map_err(|_| WireError::BadUtf8)?;
            }
            7 => {
                for _ in 0..r.count()? {
                    skip_value(r, depth + 1)?;
                }
            }
            8 => {
                r.bytes()?;
            }
            t => return Err(WireError::BadTag(t)),
        }
        Ok(())
    }

    pub fn walk(
        buf: &[u8],
        want: Option<Wanted<'_>>,
        mut emit: impl FnMut(SpilledRow),
    ) -> Result<Segment, SegmentError> {
        let mut r = Reader::new(buf);
        let magic: [u8; 4] = r.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        if magic != SEGMENT_MAGIC {
            return Err(SegmentError::BadMagic(magic));
        }
        let version = r.u8()?;
        if version != SEGMENT_VERSION {
            return Err(SegmentError::BadVersion(version));
        }
        let count = |r: &mut Reader<'_>, what| match u64_field(r, what)? {
            n if n > buf.len() as u64 => Err(WireError::Truncated),
            n => Ok(n as usize),
        };
        let relation = r.str_field("relation")?;
        let epoch_lo = u64_field(&mut r, "epoch_lo")?;
        let epoch_hi = u64_field(&mut r, "epoch_hi")?;
        let row_count = count(&mut r, "row_count")?;
        let min_inserted = time_field(&mut r, "min_inserted")?;
        let max_dropped = time_field(&mut r, "max_dropped")?;
        let ncols = count(&mut r, "col_count")?;
        let mut col_min = Vec::with_capacity(ncols);
        let mut col_max = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            col_min.push(r.value()?);
            col_max.push(r.value()?);
        }
        let name: Arc<str> = Arc::from(relation.as_str());
        let mut above: Option<Tuple> = None;
        let mut vals: Vec<Value> = Vec::new();
        for _ in 0..row_count {
            let inserted_at = time_field(&mut r, "inserted_at")?;
            let dropped_at = time_field(&mut r, "dropped_at")?;
            let arity = count(&mut r, "arity")?;
            let eqs = match want {
                Some((t0, t1, eqs)) if in_window(inserted_at, dropped_at, t0, t1) => eqs,
                _ => {
                    for _ in 0..arity {
                        skip_value(&mut r, 0)?;
                    }
                    continue;
                }
            };
            vals.clear();
            for col in 0..arity {
                let prev = above.as_ref().and_then(|t| t.get(col));
                vals.push(r.value_sharing(prev)?);
            }
            if !eqs_hold(&vals, eqs) {
                continue;
            }
            let tuple = Tuple::with_name(name.clone(), vals.drain(..));
            above = Some(tuple.clone());
            emit(SpilledRow {
                tuple,
                inserted_at,
                dropped_at,
            });
        }
        if r.remaining() != 0 {
            return Err(SegmentError::TrailingBytes(r.remaining()));
        }
        Ok(Segment {
            relation,
            epoch_lo,
            epoch_hi,
            row_count: row_count as u64,
            min_inserted,
            max_dropped,
            col_min,
            col_max,
            bytes: Vec::new(),
        })
    }
}

/// The old `scan_segments`, over the model walk.
fn model_scan(
    seg: &Segment,
    t0: Time,
    t1: Time,
    eqs: &[(usize, Value)],
    out: &mut Vec<ArchivedRow>,
) -> Result<u64, SegmentError> {
    if seg.min_inserted() > t1 || seg.max_dropped() < t0 || !seg.may_match_eqs(eqs) {
        return Ok(1);
    }
    model::walk(&seg.bytes, Some((t0, t1, eqs)), |row| {
        out.push(archived(row))
    })?;
    Ok(0)
}

const TEXTS: [&str; 6] = ["", "r1", "n1", "héllo", "\u{1F980}x", "sb2"];

/// One random value of any tag; lists nest, now and then past the
/// decoder's depth limit.
fn value(rng: &mut DetRng, depth: usize) -> Value {
    let text = |rng: &mut DetRng| TEXTS[rng.below(TEXTS.len() as u64) as usize];
    match rng.below(if depth < 3 { 10 } else { 8 }) {
        0 => Value::Bool(rng.below(2) == 1),
        1 => Value::Int(rng.next_u64() as i64),
        2 => Value::Float(rng.below(1000) as f64 / 7.0),
        3 => Value::id(rng.next_u64()),
        4 => Value::Time(Time(rng.below(100))),
        5 => Value::str(text(rng)),
        6 => Value::addr(text(rng)),
        7 => {
            let n = rng.below(5) as usize;
            Value::Bytes((0..n).map(|_| rng.below(256) as u8).collect())
        }
        8 => Value::list((0..rng.below(3)).map(|_| value(rng, depth + 1))),
        _ => {
            // A chain around the limit (16 nested lists decode, 17 not).
            let mut v = value(rng, 3);
            for _ in 0..14 + rng.below(5) {
                v = Value::list([v]);
            }
            v
        }
    }
}

/// A random frame: up to 8 rows of arity up to 5 (short rows shrink the
/// column summary), columns that repeat often enough to share, drop
/// times now and then the live sentinel.
fn frame(rng: &mut DetRng) -> Vec<u8> {
    let arity = rng.below(5) as usize;
    let mut above: Vec<Value> = Vec::new();
    let rows: Vec<SpilledRow> = (0..rng.below(9))
        .map(|_| {
            let n = arity - rng.below(2).min(arity as u64) as usize;
            let vals: Vec<Value> = (0..n)
                .map(|i| match above.get(i) {
                    Some(v) if rng.below(2) == 0 => v.clone(),
                    _ => value(rng, 0),
                })
                .collect();
            above = vals.clone();
            let inserted_at = Time(rng.below(100));
            let dropped_at = match rng.below(6) {
                0 => LIVE_SENTINEL,
                _ => Time(inserted_at.0 + rng.below(50)),
            };
            SpilledRow {
                tuple: Tuple::new("ruleExec", vals),
                inserted_at,
                dropped_at,
            }
        })
        .collect();
    Segment::build("ruleExec", rng.below(4), 4 + rng.below(4), &rows).bytes
}

/// `buf` damaged one way: cut short, a byte overwritten (with a random
/// byte, a value tag, or a byte no UTF-8 string may hold), one bit
/// flipped, or a 4- or 8-byte field overwritten with an absurd count.
fn mutate(rng: &mut DetRng, buf: &[u8]) -> Vec<u8> {
    let mut out = buf.to_vec();
    let Some(pos) = (!out.is_empty()).then(|| rng.below(out.len() as u64) as usize) else {
        return out;
    };
    match rng.below(5) {
        0 => out.truncate(pos),
        1 => {
            out[pos] = match rng.below(3) {
                0 => rng.below(256) as u8,
                1 => rng.below(10) as u8,
                _ => [0xFF, 0xC3, 0x80][rng.below(3) as usize],
            }
        }
        2 => out[pos] ^= 1 << rng.below(8),
        3 => {
            let end = (pos + 4).min(out.len());
            out[pos..end].copy_from_slice(&u32::MAX.to_le_bytes()[..end - pos]);
        }
        _ => {
            let end = (pos + 8).min(out.len());
            out[pos..end].copy_from_slice(&(u64::MAX >> 1).to_le_bytes()[..end - pos]);
        }
    }
    out
}

/// What a scan of `rows` might ask: a window and up to two equalities
/// drawn from the rows themselves, so some rows hit.
fn wanted(rng: &mut DetRng, rows: &[SpilledRow]) -> (Time, Time, Vec<(usize, Value)>) {
    let t0 = Time(rng.below(120));
    let t1 = Time(t0.0 + rng.below(60));
    let mut eqs = Vec::new();
    if let Some(row) = rows.get(rng.below(rows.len() as u64 + 1) as usize) {
        for _ in 0..rng.below(3) {
            if row.tuple.arity() > 0 {
                let i = rng.below(row.tuple.arity() as u64) as usize;
                eqs.push((i, row.tuple.values()[i].clone()));
            }
        }
    }
    (t0, t1, eqs)
}

/// Both walks over `buf` under `want`: the same result and the same
/// rows emitted on the way (compared as `Debug` text, so a value of
/// another variant that merely compares equal still differs). The
/// segment, when the frame is valid, and the rows.
fn same_walk(buf: &[u8], want: Option<Wanted<'_>>) -> (Option<Segment>, Vec<SpilledRow>) {
    let (mut new_rows, mut old_rows) = (Vec::new(), Vec::new());
    let new = Segment::walk(buf, want, |r| new_rows.push(r));
    let old = model::walk(buf, want, |r| old_rows.push(r));
    assert_eq!(
        format!("{new:?}"),
        format!("{old:?}"),
        "walk result, {want:?}"
    );
    assert_eq!(
        format!("{new_rows:?}"),
        format!("{old_rows:?}"),
        "rows, {want:?}"
    );
    (new.ok(), new_rows)
}

#[test]
fn new_walk_is_the_old_walk_on_random_and_damaged_frames() {
    let (mut ok, mut failed) = (0, 0);
    for seed in 0..1500 {
        let mut rng = DetRng::new(seed);
        let whole = frame(&mut rng);
        let damaged: Vec<Vec<u8>> = (0..4).map(|_| mutate(&mut rng, &whole)).collect();
        for buf in std::iter::once(whole).chain(damaged) {
            let everything = (Time::ZERO, Time(u64::MAX), &[][..]);
            let (found, _) = same_walk(&buf, None);
            let (_, all) = same_walk(&buf, Some(everything));
            for _ in 0..3 {
                let (t0, t1, eqs) = wanted(&mut rng, &all);
                same_walk(&buf, Some((t0, t1, &eqs)));
            }
            let Some(mut seg) = found else {
                failed += 1;
                continue;
            };
            ok += 1;
            seg.bytes = buf.clone();
            let back = Segment::from_bytes(&buf);
            assert_eq!(format!("{back:?}"), format!("{:?}", Ok::<_, ()>(&seg)));
            assert_eq!(
                format!("{:?}", seg.rows()),
                format!("{:?}", Ok::<_, ()>(&all))
            );
            for _ in 0..4 {
                let (t0, t1, eqs) = wanted(&mut rng, &all);
                let (mut new, mut old) = (Vec::new(), Vec::new());
                let pruned = scan_segments([&seg], t0, t1, &eqs, &mut new);
                let model_pruned = model_scan(&seg, t0, t1, &eqs, &mut old);
                assert_eq!(pruned, model_pruned);
                assert_eq!(format!("{new:?}"), format!("{old:?}"));
            }
        }
    }
    // Both sides of the comparison were exercised.
    assert!(ok > 1500 && failed > 1500, "ok {ok}, failed {failed}");
}
