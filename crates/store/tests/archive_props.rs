//! Property tests for the archive segment codec (DESIGN.md §2.11).
//!
//! Two properties, mirroring the wire-codec suite in `p2-net`:
//!
//! * **Round-trip**: any run of spilled rows freezes into a segment
//!   whose decoded rows are exactly the input — content, arity, and
//!   validity intervals;
//! * **No panics on hostile bytes**: arbitrary byte soup, truncations
//!   of valid frames, and single-byte corruptions must all come back
//!   as typed [`SegmentError`]s, never a panic.
//!
//! The file-backed log's recovery is held to the same standard, and
//! one small log is flipped at every bit it has.

use p2_store::{DurableStore, Segment, SegmentError, SpilledRow};
use p2_types::{Time, Tuple, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch directory per proptest case (cases run concurrently).
fn scratch_dir() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "p2-archive-props-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// `n` distinct sealed segments, as a fresh file-backed log on disk.
/// Returns the originals and the total log length in bytes.
fn seeded_log(dir: &std::path::Path, n: usize) -> (Vec<Segment>, usize) {
    let segs: Vec<Segment> = (0..n)
        .map(|i| {
            let rows: Vec<SpilledRow> = (0..3)
                .map(|j| row("r", vec![i as i64, j], vec![], i as u64 * 30, 5))
                .collect();
            Segment::build("r", i as u64, i as u64, &rows)
        })
        .collect();
    let mut store = DurableStore::dir(dir, false);
    for seg in &segs {
        store.append("r", seg.as_bytes());
    }
    store.barrier();
    let len = log_path(dir).metadata().map_or(0, |m| m.len() as usize);
    (segs, len)
}

/// The log file of `r`, the only relation a seeded log holds.
fn log_path(dir: &std::path::Path) -> std::path::PathBuf {
    dir.join("rel-0.seglog")
}

/// Edit the on-disk log of `r` in place, as a crash or the media would.
fn edit_log(dir: &std::path::Path, edit: impl FnOnce(&mut Vec<u8>)) {
    let mut bytes = std::fs::read(log_path(dir)).expect("seeded log exists");
    edit(&mut bytes);
    std::fs::write(log_path(dir), bytes).expect("log is writable");
}

/// The valid segments a fresh boot rebuilds from `dir`'s log of `r`.
fn reboot(dir: &std::path::Path) -> (Vec<Segment>, u64, u64) {
    let mut store = DurableStore::dir(dir, false);
    let rec = store.recover();
    let segs = rec
        .relations
        .into_iter()
        .find(|(name, _)| name == "r")
        .map(|(_, s)| s)
        .unwrap_or_default();
    (segs, rec.truncated_tail_bytes, rec.quarantined)
}

fn row(name: &str, ints: Vec<i64>, strs: Vec<String>, at: u64, dropped: u64) -> SpilledRow {
    let vals: Vec<Value> = ints
        .into_iter()
        .map(Value::Int)
        .chain(strs.into_iter().map(Value::str))
        .collect();
    SpilledRow {
        tuple: Tuple::new(name, vals),
        inserted_at: Time(at),
        dropped_at: Time(at.saturating_add(dropped)),
    }
}

proptest! {
    /// Arbitrary spill runs round-trip through the segment codec.
    #[test]
    fn prop_segment_round_trip(
        name in "[a-z]{1,12}",
        specs in proptest::collection::vec(
            (
                proptest::collection::vec(any::<i64>(), 0..6),
                proptest::collection::vec("[ -~]{0,16}", 0..3),
                0u64..1_000_000_000,
                0u64..1_000_000,
            ),
            0..12,
        ),
    ) {
        let rows: Vec<SpilledRow> = specs
            .into_iter()
            .map(|(ints, strs, at, d)| row(&name, ints, strs, at, d))
            .collect();
        let seg = Segment::build(&name, 3, 7, &rows);
        let decoded = Segment::from_bytes(seg.as_bytes()).expect("own frame decodes");
        prop_assert_eq!(decoded.relation(), name.as_str());
        prop_assert_eq!(decoded.row_count(), rows.len() as u64);
        prop_assert_eq!(decoded.rows().expect("rows decode"), rows);
    }

    /// Raw byte soup never panics the decoder.
    #[test]
    fn prop_no_panic_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Segment::from_bytes(&bytes);
    }

    /// Every truncation of a valid frame is a typed error, not a panic
    /// and not a silent partial decode.
    #[test]
    fn prop_truncations_are_typed_errors(
        cut in 0usize..200,
        n in 1usize..6,
    ) {
        let rows: Vec<SpilledRow> = (0..n)
            .map(|i| row("succ", vec![i as i64], vec![], i as u64 * 10, 5))
            .collect();
        let seg = Segment::build("succ", 0, 0, &rows);
        let full = seg.as_bytes();
        prop_assume!(cut < full.len());
        let err = Segment::from_bytes(&full[..cut]);
        prop_assert!(err.is_err(), "truncated frame decoded: cut={cut}");
    }

    /// Single-byte corruption either still decodes (the flip landed in
    /// a value payload that stays well-formed) or fails typed — and a
    /// corrupted magic/version always fails with the right variant.
    #[test]
    fn prop_bit_flips_never_panic(pos in 0usize..200, flip in 1u8..255) {
        let rows: Vec<SpilledRow> =
            (0..4).map(|i| row("succ", vec![i], vec!["x".into()], i as u64, 3)).collect();
        let seg = Segment::build("succ", 1, 2, &rows);
        let mut bytes = seg.as_bytes().to_vec();
        prop_assume!(pos < bytes.len());
        bytes[pos] ^= flip;
        match Segment::from_bytes(&bytes) {
            Ok(_) => {}
            Err(SegmentError::BadMagic(_)) => prop_assert!(pos < 4),
            Err(SegmentError::BadVersion(_)) => prop_assert_eq!(pos, 4),
            Err(_) => {}
        }
    }

    /// File-backed recovery after a crash that truncated the log at ANY
    /// byte offset never panics and always rebuilds a clean *prefix* of
    /// the appended segments — and a second boot sees no damage at all,
    /// because the first rewrote the log clean.
    #[test]
    fn prop_file_recovery_after_any_truncation_is_a_valid_prefix(
        cut in 0usize..8192,
        n in 1usize..6,
    ) {
        let dir = scratch_dir();
        let (segs, len) = seeded_log(&dir, n);
        let cut = cut % (len + 1);
        edit_log(&dir, |log| log.truncate(cut));
        let (got, torn, quarantined) = reboot(&dir);
        prop_assert!(got.len() <= n);
        for (g, want) in got.iter().zip(&segs) {
            prop_assert_eq!(g.as_bytes(), want.as_bytes(), "prefix byte-match");
        }
        if cut < len {
            prop_assert!(
                torn > 0 || quarantined > 0 || got.len() < n,
                "lost bytes must be accounted for: cut={cut} len={len}"
            );
        } else {
            prop_assert_eq!(got.len(), n, "uncut log recovers whole");
        }
        let (again, torn2, q2) = reboot(&dir);
        prop_assert_eq!(again.len(), got.len(), "clean rewrite is stable");
        prop_assert_eq!((torn2, q2), (0, 0), "damage is counted once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping ANY single bit of the on-disk log never panics
    /// recovery: records before the flip survive byte-identically,
    /// every recovered segment is one of the originals in order, and
    /// the flipped record is either quarantined or (if the flip tore
    /// the framing) truncated away with everything after it.
    #[test]
    fn prop_file_recovery_after_any_bit_flip_never_panics(
        pos in 0usize..8192,
        bit in 0u8..8,
        n in 1usize..6,
    ) {
        let dir = scratch_dir();
        let (segs, len) = seeded_log(&dir, n);
        let pos = pos % len;
        edit_log(&dir, |log| log[pos] ^= 1 << bit);
        // Which record the flip landed in: every record ahead of it
        // must recover untouched.
        let mut off = 0usize;
        let mut hit = 0usize;
        for s in &segs {
            let record_bytes = 12 + s.as_bytes().len();
            if pos < off + record_bytes {
                break;
            }
            off += record_bytes;
            hit += 1;
        }
        let (got, _, _) = reboot(&dir);
        prop_assert!(got.len() >= hit, "records before the flip survive");
        prop_assert!(got.len() <= n);
        for (g, want) in got.iter().take(hit).zip(&segs) {
            prop_assert_eq!(g.as_bytes(), want.as_bytes(), "clean prefix");
        }
        // Everything recovered is an original, in order (no invented
        // or reordered frames, whatever the flip did).
        let mut next = 0usize;
        for g in &got {
            let found = segs[next..]
                .iter()
                .position(|w| w.as_bytes() == g.as_bytes());
            prop_assert!(found.is_some(), "recovered frame is an original");
            next += found.unwrap_or(0) + 1;
        }
        let (again, torn2, q2) = reboot(&dir);
        prop_assert_eq!(again.len(), got.len(), "clean rewrite is stable");
        prop_assert_eq!((torn2, q2), (0, 0), "damage is counted once");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every single-bit flip of a small file log is caught, with none left
/// out: each bit of each record — length, checksum and frame — flipped
/// alone, then a boot. The flip is always counted, as a quarantined
/// frame or a torn tail, and the flipped record is never served: what
/// comes back is the records ahead of it, byte for byte, then
/// originals from after it, in order.
#[test]
fn every_bit_flip_of_a_small_file_log_is_caught_and_never_served() {
    let dir = scratch_dir();
    let (segs, len) = seeded_log(&dir, 3);
    let starts: Vec<usize> = segs
        .iter()
        .scan(0, |off, s| {
            let start = *off;
            *off += 12 + s.as_bytes().len();
            Some(start)
        })
        .collect();
    for pos in 0..len {
        let hit = starts.iter().rposition(|&start| start <= pos).unwrap_or(0);
        for bit in 0..8 {
            let _ = std::fs::remove_dir_all(&dir);
            seeded_log(&dir, 3);
            edit_log(&dir, |log| log[pos] ^= 1 << bit);
            let (got, torn, quarantined) = reboot(&dir);
            let at = format!("byte {pos} bit {bit}");
            assert!(torn > 0 || quarantined > 0, "{at}: flip not counted");
            assert!(got.len() >= hit, "{at}: records ahead of the flip lost");
            for (g, want) in got.iter().zip(&segs[..hit]) {
                assert_eq!(g.as_bytes(), want.as_bytes(), "{at}: clean prefix");
            }
            let mut after = segs[hit + 1..].iter();
            for g in &got[hit..] {
                assert!(
                    after.any(|w| w.as_bytes() == g.as_bytes()),
                    "{at}: served a frame that is not an original after the flip"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
