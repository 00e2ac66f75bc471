//! The new segment walk is the old one.
//!
//! [`model`] is [`Segment::walk`] as it stood before the walk stopped
//! building values it does not keep and started decoding through a
//! per-segment dictionary: every interval time and arity was a whole
//! [`Value`] decoded through [`Reader::value`] and matched, every value
//! was decoded afresh into a scratch `Vec` and then copied into its
//! tuple, and every skipped value went through a recursive skipper with
//! a depth check at each call. The tests below drive both over random
//! frames — every value tag, strings with multi-byte UTF-8, lists
//! nested past the decoder's depth limit — and over the same frames cut
//! short, overwritten, bit-flipped and given absurd counts, and compare
//! what a caller can observe: the `Ok` segment or the first error, the
//! rows emitted on the way, [`Segment::rows`], and [`scan_segments`]'
//! hits and prune count for random windows and equalities. Frames built
//! to stress the dictionary (more distinct texts than it keeps, a
//! string and an address of the same bytes, UTF-8 damaged in a later
//! row) and a [`Catalog`](crate::Catalog) history over sealed, open and
//! live rows get the same comparison.

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
            for _ in 0..arity {
                vals.push(r.value()?);
            }
            if !eqs_hold(&vals, eqs) {
                continue;
            }
            emit(SpilledRow {
                tuple: Tuple::with_name(name.clone(), vals.drain(..)),
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

/// Rows as text that tells every value's variant apart: `==` on values
/// and a tuple's own `Debug` both take a string and an address of the
/// same text for one another, each value's `Debug` does not.
fn seen<'a>(rows: impl IntoIterator<Item = (&'a Tuple, Time, Option<Time>)>) -> String {
    let row = |(t, ins, drop): (&Tuple, Time, Option<Time>)| {
        format!("{}{:?} {ins:?} {drop:?}\n", t.name(), t.values())
    };
    rows.into_iter().map(row).collect()
}

/// [`seen`] over spilled rows.
fn spilled(rows: &[SpilledRow]) -> String {
    seen(
        rows.iter()
            .map(|r| (&r.tuple, r.inserted_at, Some(r.dropped_at))),
    )
}

/// [`seen`] over scan results, or the error.
fn hits(rows: Result<&[ArchivedRow], &SegmentError>) -> String {
    match rows {
        Ok(rows) => seen(rows.iter().map(|r| (&r.tuple, r.inserted_at, r.dropped_at))),
        Err(e) => format!("{e:?}"),
    }
}

/// Both walks over `buf` under `want`: the same result and the same
/// rows emitted on the way ([`seen`], so a value of another variant
/// that merely compares equal still differs). The segment, when the
/// frame is valid, and the rows.
fn same_walk(buf: &[u8], want: Option<Wanted<'_>>) -> (Option<Segment>, Vec<SpilledRow>) {
    let (mut new_rows, mut old_rows) = (Vec::new(), Vec::new());
    let new = Segment::walk(buf, want, &mut Texts::default(), |r| new_rows.push(r));
    let old = model::walk(buf, want, |r| old_rows.push(r));
    assert_eq!(
        format!("{new:?}"),
        format!("{old:?}"),
        "walk result, {want:?}"
    );
    assert_eq!(spilled(&new_rows), spilled(&old_rows), "rows, {want:?}");
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
            assert_eq!(spilled(&seg.rows().unwrap()), spilled(&all));
            for _ in 0..4 {
                let (t0, t1, eqs) = wanted(&mut rng, &all);
                let new = scan_segments([&seg], t0, t1, &eqs, 0);
                let mut old = Vec::new();
                let model = model_scan(&seg, t0, t1, &eqs, &mut old);
                assert_eq!(new.as_ref().map(|r| r.1), model.as_ref().copied());
                assert_eq!(hits(new.as_ref().map(|r| &r.0[..])), hits(Ok(&old)));
            }
        }
    }
    // Both sides of the comparison were exercised.
    assert!(ok > 1500 && failed > 1500, "ok {ok}, failed {failed}");
}

/// Every string and address in `v`, lists walked into, as
/// `(is_address, text, allocation)`.
fn texts_in(v: &Value, out: &mut Vec<(bool, String, *const u8)>) {
    match v {
        Value::Str(s) => out.push((false, s.to_string(), s.as_ptr())),
        Value::Addr(a) => out.push((true, a.to_string(), a.as_str().as_ptr())),
        Value::List(items) => items.iter().for_each(|i| texts_in(i, out)),
        _ => {}
    }
}

/// Whether every two equal texts (same variant, same text) among
/// `values` are one allocation.
fn equal_texts_share<'a>(values: impl IntoIterator<Item = &'a Value>) -> bool {
    let mut all = Vec::new();
    values.into_iter().for_each(|v| texts_in(v, &mut all));
    let mut first: BTreeMap<(bool, String), *const u8> = BTreeMap::new();
    all.into_iter()
        .all(|(addr, text, ptr)| *first.entry((addr, text)).or_insert(ptr) == ptr)
}

/// `buf` walked by both sides under no window, every row, and, for up
/// to a dozen of `rows` spread over the frame, a window of just that
/// row's insertion instant and an equality on its first column.
fn same_walks(buf: &[u8], rows: &[SpilledRow]) {
    let everything = (Time::ZERO, Time(u64::MAX), &[][..]);
    same_walk(buf, None);
    same_walk(buf, Some(everything));
    for row in rows.iter().step_by(rows.len().div_ceil(12).max(1)) {
        same_walk(buf, Some((row.inserted_at, row.inserted_at, &[])));
        let eq = [(1, row.tuple.values()[1].clone())];
        same_walk(buf, Some((Time::ZERO, Time(u64::MAX), &eq)));
    }
}

/// A row at second `i`: the location, then `cols`.
fn text_row(i: u64, cols: Vec<Value>) -> SpilledRow {
    SpilledRow {
        tuple: Tuple::new("ruleExec", std::iter::once(Value::addr("n1")).chain(cols)),
        inserted_at: Time::from_secs(i),
        dropped_at: Time::from_secs(i + 60),
    }
}

#[test]
fn more_distinct_texts_than_the_dictionary_holds_decode_as_the_model_does() {
    // Three labels up front, then a unique string (and the same text as
    // an address inside a list) per row, well past the cap.
    let n = TEXTS_CAP as u64 + 200;
    let rows: Vec<SpilledRow> = (0..n)
        .map(|i| {
            let unique = format!("u{i}");
            text_row(
                i,
                vec![
                    Value::str(["r1", "r2", "r3"][i as usize % 3]),
                    Value::str(&unique),
                    Value::list([Value::addr(&unique), Value::str("r1")]),
                    Value::Bytes(vec![i as u8; (i % 4) as usize].into()),
                ],
            )
        })
        .collect();
    let seg = Segment::build("ruleExec", 0, 0, &rows);
    same_walks(seg.as_bytes(), &rows);
    let back = seg.rows().unwrap();
    assert_eq!(spilled(&back), spilled(&rows));
    // The labels, kept first, are shared everywhere, lists included;
    // a text past the cap is decoded afresh, equal but not shared.
    let labels = back
        .iter()
        .flat_map(|r| [&r.tuple.values()[1], &r.tuple.values()[3]]);
    assert!(equal_texts_share(labels));
    let late = |i: usize| match (back[i].tuple.get(2), back[i].tuple.get(3)) {
        (Some(Value::Str(s)), Some(Value::List(l))) => match &l[0] {
            Value::Addr(a) => std::ptr::eq(s.as_ptr(), a.as_str().as_ptr()),
            _ => true,
        },
        _ => true,
    };
    assert!(
        (0..back.len()).all(|i| !late(i)),
        "a string never aliases an address"
    );
    for seed in 0..20 {
        let mut rng = DetRng::new(seed);
        let damaged = mutate(&mut rng, seg.as_bytes());
        same_walks(&damaged, &rows);
    }
}

#[test]
fn a_string_and_an_address_of_the_same_bytes_never_alias() {
    let rows: Vec<SpilledRow> = (0..12)
        .map(|i| {
            let (a, b) = (Value::str("n1"), Value::addr("n1"));
            let (x, y) = if i % 2 == 0 { (a, b) } else { (b, a) };
            text_row(i, vec![x.clone(), Value::list([y, x])])
        })
        .collect();
    let seg = Segment::build("ruleExec", 0, 0, &rows);
    same_walks(seg.as_bytes(), &rows);
    let back = seg.rows().unwrap();
    assert_eq!(spilled(&back), spilled(&rows));
    assert!(equal_texts_share(
        back.iter().flat_map(|r| r.tuple.values())
    ));
}

#[test]
fn utf8_damaged_in_a_later_row_fails_first_as_the_model_does() {
    // Multi-byte text throughout; row 5 holds a string, then a list
    // holding one, whose bytes are overwritten into invalid UTF-8 — the
    // same length as a valid text seen in every earlier row.
    let texts = ["h\u{e9}llo", "\u{1F980}x", "zz\u{e9}zz"];
    for (col, marker) in [(1, "yy\u{e9}yy"), (2, "xx\u{e9}xx")] {
        let rows: Vec<SpilledRow> = (0..8)
            .map(|i| {
                let mut cols = vec![
                    Value::str(texts[i as usize % 2]),
                    Value::list([Value::addr(texts[2]), Value::Bytes(vec![0xFF].into())]),
                ];
                if i == 5 {
                    cols[col - 1] = match col {
                        1 => Value::str(marker),
                        _ => Value::list([Value::addr(marker)]),
                    };
                }
                text_row(i, cols)
            })
            .collect();
        let mut buf = Segment::build("ruleExec", 0, 0, &rows).bytes;
        // The last copy: the column summary may hold the first.
        let at = buf
            .windows(marker.len())
            .rposition(|w| w == marker.as_bytes())
            .unwrap();
        buf[at + 3] = 0x28; // é's continuation byte: C3 28 is not UTF-8
        same_walks(&buf, &rows);
        let everything = (Time::ZERO, Time(u64::MAX), &[][..]);
        let (found, emitted) = same_walk(&buf, Some(everything));
        assert!(found.is_none());
        assert_eq!(emitted.len(), 5, "rows before the damage are emitted");
        assert_eq!(
            Segment::from_bytes(&buf),
            Err(SegmentError::Wire(WireError::BadUtf8))
        );
    }
}

#[test]
fn equal_texts_in_one_decoded_segment_share_one_allocation() {
    for seed in 0..300 {
        let mut rng = DetRng::new(seed);
        let buf = frame(&mut rng);
        let Ok(seg) = Segment::from_bytes(&buf) else {
            continue; // a list nested past the limit
        };
        let rows = seg.rows().unwrap();
        let values = rows.iter().flat_map(|r| r.tuple.values());
        assert!(equal_texts_share(values), "seed {seed}");
        // A scan shares within a segment too.
        let (hits, _) = scan_segments([&seg], Time::ZERO, Time(u64::MAX), &[], 0).unwrap();
        let values = hits.iter().flat_map(|r| r.tuple.values());
        assert!(equal_texts_share(values), "seed {seed}");
    }
}

/// A history scan as [`model`] answers it: the catalog's export — its
/// sealed segments, its open buffer and its live rows, each as a frame,
/// in scan order — walked by the model.
fn model_history(
    c: &mut crate::Catalog,
    t0: Time,
    t1: Time,
    now: Time,
    eqs: &[(usize, Value)],
) -> Vec<ArchivedRow> {
    let mut out = Vec::new();
    let Some(export) = c.export_history("h", now).filter(|_| t0 <= t1) else {
        return out;
    };
    for seg in &export.frames {
        model_scan(seg, t0, t1, eqs, &mut out).unwrap();
    }
    out
}

#[test]
fn a_catalog_history_scan_over_sealed_open_and_live_rows_is_the_models() {
    use crate::table::TableSpec;
    let mut c = crate::Catalog::new();
    c.enable_archive(ArchiveConfig {
        epoch: TimeDelta::from_secs(5),
        compact_min_bytes: 256,
        ..ArchiveConfig::default()
    });
    // Keyed on `k`, rows live 12 s: rows replaced or expired spill.
    let spec = TableSpec::new("h", Some(TimeDelta::from_secs(12)), Some(40), vec![1]);
    c.register(spec).unwrap();
    c.enroll_archive("h").unwrap();
    let mut rng = DetRng::new(43);
    let mut now = Time::ZERO;
    for i in 0..400u64 {
        now += TimeDelta::from_millis(250);
        let k = rng.below(30) as i64;
        let label = TEXTS[rng.below(TEXTS.len() as u64) as usize];
        let row = Tuple::new(
            "h",
            [
                Value::addr("n1"),
                Value::Int(k),
                Value::str(label),
                Value::addr(TEXTS[(i % 3) as usize]),
                Value::list([Value::str(label), Value::Int(i as i64)]),
            ],
        );
        c.insert(row, now).unwrap();
    }
    let stats = c.archive_stats()[0].1;
    let live = c.table("h").map(crate::Table::raw_len).unwrap_or(0);
    assert!(
        stats.segments > 1 && stats.open_rows > 0 && live > 0,
        "{stats:?}, {live} live"
    );
    let end = now.0 / 1_000_000;
    for (a, b, eqs) in [
        (0, end, vec![]),
        (0, end, vec![(0, Value::addr("n1"))]),
        (20, 60, vec![]),
        (30, end, vec![(2, Value::str(TEXTS[1]))]),
        (0, end, vec![(3, Value::addr(TEXTS[2]))]),
        (end - 5, end, vec![(1, Value::Int(7))]),
        (60, 20, vec![]),
    ] {
        let (t0, t1) = (Time::from_secs(a), Time::from_secs(b));
        let want = model_history(&mut c, t0, t1, now, &eqs);
        let got = c.archive_scan("h", t0, t1, now, &eqs).unwrap();
        assert_eq!(hits(Ok(&got)), hits(Ok(&want)), "[{a}, {b}] {eqs:?}");
        let rows = got.len();
        assert!(rows > 0 || a > b, "[{a}, {b}] {eqs:?} matched nothing");
    }
}
