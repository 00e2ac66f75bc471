//! The frozen tier: an epoch-segmented archive of expired soft state.
//!
//! Live tables (DESIGN.md §2.7) forget: rows expire, get evicted,
//! replaced, or deleted, and with them goes everything a forensic query
//! (§3 of the paper) could have asked after the fact. For
//! archive-enrolled relations the store spills every dropped row here
//! instead, stamped with its **validity interval** `[inserted_at,
//! dropped_at]`, and freezes runs of spilled rows into immutable,
//! compactly-encoded [`Segment`]s bucketed by the virtual-time *epoch*
//! their drop time falls in (DESIGN.md §2.11).
//!
//! Three properties matter:
//!
//! * **Determinism.** Per-table drop order is deterministic (expiry
//!   pops ascend in due time and run as the prologue of every
//!   mutation), and a relation's archive is a pure function of its
//!   spill stream — independent of when the catalog drains spill
//!   buffers. The sharded harness therefore produces bit-identical
//!   archives at any shard count.
//! * **Bounded memory.** Sealed bytes per relation are capped by a
//!   retention budget (oldest segments dropped first), and adjacent
//!   undersized segments are compacted into one, so a chatty relation
//!   cannot grow the archive without bound.
//! * **No panics on hostile bytes.** Segment encode/decode reuses the
//!   `p2_net::wire` value codec; truncation, tag corruption, and absurd
//!   length prefixes all surface as typed [`SegmentError`]s.

use crate::durable::{DurableStats, DurableStore};
use p2_net::wire::{encode_value_into, Reader, Text, WireError};
use p2_types::{Time, TimeDelta, Tuple, Value};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Leading bytes of every encoded segment.
pub const SEGMENT_MAGIC: [u8; 4] = *b"P2AR";
/// Format version byte (bumped on incompatible layout changes).
/// Version 2 added the per-column min/max summary used for equality
/// pruning.
pub const SEGMENT_VERSION: u8 = 2;

/// Drop-time sentinel marking a row that was **still live** when its
/// segment frame was built. Export uses it so a shipped history covers
/// live rows too; import maps it back onto an open validity interval.
/// `u64::MAX` microseconds is ~585 millennia of virtual time — no real
/// expiry deadline reaches it.
pub const LIVE_SENTINEL: Time = Time(u64::MAX);

/// Archive tuning knobs (per node; see `NodeConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveConfig {
    /// Epoch width: spilled rows whose drop times fall in the same
    /// epoch seal into the same segment.
    pub epoch: TimeDelta,
    /// Per-relation budget for sealed segment bytes; the oldest
    /// segments are dropped once it is exceeded (the newest segment is
    /// always kept, even oversized).
    pub retention_bytes: usize,
    /// Adjacent sealed segments both smaller than this are merged, so
    /// sparse relations don't fragment into per-epoch crumbs.
    pub compact_min_bytes: usize,
    /// Age-based retention: sealed segments whose newest drop epoch
    /// trails the relation's newest sealed epoch by more than this many
    /// epochs are dropped, independent of the byte budget. `None`
    /// disables age retention (the default).
    pub max_age_epochs: Option<u64>,
}

impl Default for ArchiveConfig {
    fn default() -> ArchiveConfig {
        ArchiveConfig {
            epoch: TimeDelta::from_secs(30),
            retention_bytes: 1 << 20,
            compact_min_bytes: 1024,
            max_age_epochs: None,
        }
    }
}

/// A row that left the live tier, with its closed validity interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SpilledRow {
    /// The archived tuple.
    pub tuple: Tuple,
    /// When the row entered the live table.
    pub inserted_at: Time,
    /// When it left (expiry deadline, eviction/replacement/delete time).
    pub dropped_at: Time,
}

/// A row returned by a history scan: archived rows carry their drop
/// time, rows still live in the table don't have one yet.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchivedRow {
    /// The tuple.
    pub tuple: Tuple,
    /// When the row entered the live table.
    pub inserted_at: Time,
    /// When it left the live table; `None` while still live.
    pub dropped_at: Option<Time>,
}

impl ArchivedRow {
    /// Whether the row was valid at instant `t` (half-open interval:
    /// a row replaced at `t` is no longer the valid version at `t`).
    pub fn valid_at(&self, t: Time) -> bool {
        self.inserted_at <= t && self.dropped_at.map(|d| t < d).unwrap_or(true)
    }
}

/// Typed decoding errors for segment bytes. Hostile input must never
/// panic a node: every malformed frame maps onto one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// A value failed to decode (truncation, bad tag, bad UTF-8, a
    /// header or row field of the wrong type, …).
    Wire(WireError),
    /// The frame does not start with [`SEGMENT_MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown format version byte.
    BadVersion(u8),
    /// Bytes remained after the declared rows were decoded.
    TrailingBytes(usize),
}

impl From<WireError> for SegmentError {
    fn from(e: WireError) -> SegmentError {
        SegmentError::Wire(e)
    }
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Wire(e) => write!(f, "segment value: {e}"),
            SegmentError::BadMagic(m) => write!(f, "bad segment magic {m:02x?}"),
            SegmentError::BadVersion(v) => write!(f, "unknown segment version {v}"),
            SegmentError::TrailingBytes(n) => write!(f, "{n} trailing bytes after segment rows"),
        }
    }
}

impl std::error::Error for SegmentError {}

/// An immutable frozen run of spilled rows of one relation.
///
/// The segment *is* its encoded byte frame; the parsed header fields
/// are cached beside it so range pruning never touches the body.
/// Frame layout: [`SEGMENT_MAGIC`], [`SEGMENT_VERSION`], then wire
/// values — relation name, epoch range, row count, interval bounds,
/// column summary (count, then per-column min/max) — then per row its
/// validity interval, arity, and values.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    relation: String,
    epoch_lo: u64,
    epoch_hi: u64,
    row_count: u64,
    min_inserted: Time,
    max_dropped: Time,
    /// Per-column minimum over the first `col_min.len()` fields shared
    /// by every row (`Value` is totally ordered). Equality predicates
    /// outside `[col_min[i], col_max[i]]` cannot match any row, so the
    /// body never gets decoded.
    col_min: Vec<Value>,
    col_max: Vec<Value>,
    bytes: Vec<u8>,
}

impl Segment {
    /// Freeze `rows` (all of `relation`, drop epochs within
    /// `[epoch_lo, epoch_hi]`) into an encoded segment.
    pub fn build(relation: &str, epoch_lo: u64, epoch_hi: u64, rows: &[SpilledRow]) -> Segment {
        let min_inserted = rows
            .iter()
            .map(|r| r.inserted_at)
            .min()
            .unwrap_or(Time::ZERO);
        let max_dropped = rows
            .iter()
            .map(|r| r.dropped_at)
            .max()
            .unwrap_or(Time::ZERO);
        // Column summary over the arity prefix every row shares (trace
        // relations can in principle vary arity; the common prefix is
        // what an equality predicate can safely be tested against).
        let ncols = rows.iter().map(|r| r.tuple.arity()).min().unwrap_or(0);
        let mut col_min: Vec<Value> = Vec::with_capacity(ncols);
        let mut col_max: Vec<Value> = Vec::with_capacity(ncols);
        for i in 0..ncols {
            let mut lo: Option<&Value> = None;
            let mut hi: Option<&Value> = None;
            for row in rows {
                if let Some(v) = row.tuple.get(i) {
                    if lo.map(|l| v < l).unwrap_or(true) {
                        lo = Some(v);
                    }
                    if hi.map(|h| v > h).unwrap_or(true) {
                        hi = Some(v);
                    }
                }
            }
            match (lo, hi) {
                (Some(l), Some(h)) => {
                    col_min.push(l.clone());
                    col_max.push(h.clone());
                }
                _ => break,
            }
        }
        let mut out = Vec::with_capacity(64 + rows.len() * 32);
        out.extend_from_slice(&SEGMENT_MAGIC);
        out.push(SEGMENT_VERSION);
        encode_value_into(&mut out, &Value::str(relation));
        encode_value_into(&mut out, &Value::Int(epoch_lo as i64));
        encode_value_into(&mut out, &Value::Int(epoch_hi as i64));
        encode_value_into(&mut out, &Value::Int(rows.len() as i64));
        encode_value_into(&mut out, &Value::Time(min_inserted));
        encode_value_into(&mut out, &Value::Time(max_dropped));
        encode_value_into(&mut out, &Value::Int(col_min.len() as i64));
        for (lo, hi) in col_min.iter().zip(&col_max) {
            encode_value_into(&mut out, lo);
            encode_value_into(&mut out, hi);
        }
        for row in rows {
            encode_value_into(&mut out, &Value::Time(row.inserted_at));
            encode_value_into(&mut out, &Value::Time(row.dropped_at));
            encode_value_into(&mut out, &Value::Int(row.tuple.arity() as i64));
            for v in row.tuple.values() {
                encode_value_into(&mut out, v);
            }
        }
        Segment {
            relation: relation.to_string(),
            epoch_lo,
            epoch_hi,
            row_count: rows.len() as u64,
            min_inserted,
            max_dropped,
            col_min,
            col_max,
            bytes: out,
        }
    }

    /// Decode and fully validate an encoded segment frame. Every byte
    /// is checked: header, each row, and that nothing trails.
    pub fn from_bytes(buf: &[u8]) -> Result<Segment, SegmentError> {
        let mut seg = Segment::walk(buf, None, &mut Texts::default(), |_| {})?;
        seg.bytes = buf.to_vec();
        Ok(seg)
    }

    /// Decode the segment's rows.
    pub fn rows(&self) -> Result<Vec<SpilledRow>, SegmentError> {
        let mut rows = Vec::with_capacity(self.row_count as usize);
        let everything = (Time::ZERO, Time(u64::MAX), &[][..]);
        let texts = &mut Texts::default();
        Segment::walk(&self.bytes, Some(everything), texts, |row| rows.push(row))?;
        Ok(rows)
    }

    /// The one pass over a frame: parse and check the header, then every
    /// row, then that nothing trails. A row is built — its values
    /// decoded into a tuple — only when `want` holds a window its
    /// interval meets; then it is handed to `emit` if its values also
    /// satisfy `want`'s equalities. Every other row's values are stepped
    /// over with [`Reader::skip_value`], which checks exactly what a
    /// decode would: a frame walked for a few rows is as validated as
    /// one decoded whole. `want` `None` builds nothing (validation only).
    /// Strings and addresses are decoded through `texts`, which the
    /// walk empties first: equal ones within the frame share one
    /// allocation.
    fn walk<'a>(
        buf: &'a [u8],
        want: Option<Wanted<'_>>,
        texts: &mut Texts<'a>,
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
        // Guard against absurd counts on hostile input (each counted
        // item costs at least one byte), exactly as the envelope
        // decoder does.
        let count = |r: &mut Reader<'_>, what| match r.u64_field(what)? {
            n if n > buf.len() as u64 => Err(WireError::Truncated),
            n => Ok(n as usize),
        };
        let relation = r.str_field("relation")?;
        let epoch_lo = r.u64_field("epoch_lo")?;
        let epoch_hi = r.u64_field("epoch_hi")?;
        let row_count = count(&mut r, "row_count")?;
        let min_inserted = r.time_field("min_inserted")?;
        let max_dropped = r.time_field("max_dropped")?;
        let ncols = count(&mut r, "col_count")?;
        let mut col_min = Vec::with_capacity(ncols);
        let mut col_max = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            col_min.push(r.value()?);
            col_max.push(r.value()?);
        }
        // One relation-name allocation per segment, one per distinct
        // string or address.
        let name: Arc<str> = Arc::from(relation.as_str());
        texts.seen.clear();
        let text = &mut |t| texts.value(t);
        for _ in 0..row_count {
            let inserted_at = r.time_field("inserted_at")?;
            let dropped_at = r.time_field("dropped_at")?;
            let arity = count(&mut r, "arity")?;
            let eqs = match want {
                Some((t0, t1, eqs)) if in_window(inserted_at, dropped_at, t0, t1) => eqs,
                _ => {
                    for _ in 0..arity {
                        r.skip_value()?;
                    }
                    continue;
                }
            };
            // Each value is decoded straight into the row's own slice,
            // allocated once at its arity; after a failure the rest are
            // placeholders, nothing more is read, and the error returns.
            let mut failed = None;
            let vals: Arc<[Value]> = (0..arity)
                .map(|_| match failed {
                    None => r.value_with(text).unwrap_or_else(|e| {
                        failed = Some(e);
                        Value::Bool(false)
                    }),
                    Some(_) => Value::Bool(false),
                })
                .collect();
            if let Some(e) = failed {
                return Err(e.into());
            }
            if !eqs_hold(&vals, eqs) {
                continue;
            }
            emit(SpilledRow {
                tuple: Tuple::with_values(name.clone(), vals),
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

    /// The relation this segment holds rows of.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Lowest drop epoch covered.
    pub fn epoch_lo(&self) -> u64 {
        self.epoch_lo
    }

    /// Highest drop epoch covered.
    pub fn epoch_hi(&self) -> u64 {
        self.epoch_hi
    }

    /// Number of rows frozen in the segment.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Earliest `inserted_at` among the rows.
    pub fn min_inserted(&self) -> Time {
        self.min_inserted
    }

    /// Latest `dropped_at` among the rows.
    pub fn max_dropped(&self) -> Time {
        self.max_dropped
    }

    /// `[min, max]` over column `i`, if the summary covers it.
    fn col_range(&self, i: usize) -> Option<(&Value, &Value)> {
        Some((self.col_min.get(i)?, self.col_max.get(i)?))
    }

    /// Whether any row could satisfy every equality predicate in `eqs`
    /// (`(field, value)` pairs), judged from the column summary alone.
    /// Fields past the summary are conservatively assumed to match.
    pub fn may_match_eqs(&self, eqs: &[(usize, Value)]) -> bool {
        eqs.iter().all(|(i, v)| match self.col_range(*i) {
            Some((lo, hi)) => v >= lo && v <= hi,
            None => true,
        })
    }

    /// Encoded size in bytes (what the retention budget counts).
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw encoded frame.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

p2_types::counters! {
    /// Point-in-time counters for one relation's archive, surfaced as
    /// `archive.*` sysStat rows by `core::introspect`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ArchiveStats {
        /// Sealed segments currently held.
        pub segments: u64 = "segments",
        /// Bytes across sealed segments currently held.
        pub sealed_bytes: u64 = "sealedBytes",
        /// Rows waiting in the open (not yet sealed) buffer.
        pub open_rows: u64 = "openRows",
        /// Rows ever spilled into this relation's archive.
        pub spilled_rows: u64 = "spilledRows",
        /// History scans served.
        pub scans: u64 = "scans",
        /// Rows returned across all history scans.
        pub scan_hits: u64 = "scanHits",
        /// Segments dropped by the retention budget.
        pub dropped_segments: u64 = "droppedSegments",
        /// Compaction merges performed.
        pub compactions: u64 = "compactions",
        /// Segments skipped without body decode during scans (header time
        /// range or column-summary equality miss).
        pub pruned_segments: u64 = "prunedSegments",
        /// Segments dropped by age retention (`max_age_epochs`).
        pub age_dropped_segments: u64 = "ageDroppedSegments",
    }
}

p2_types::counters! {
    /// Point-in-time counters for one origin's shipped history of one
    /// relation, surfaced as `archive.ship.in.*` sysStat rows by
    /// `core::introspect` — the collector-side mirror of the origin's
    /// `archive.*` rows.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ImportedStats {
        /// Segments held.
        pub segments: u64 = "segments",
        /// Bytes across the segments held.
        pub bytes: u64 = "bytes",
        /// Segments dropped by the holder's age policy.
        pub age_dropped_segments: u64 = "ageDroppedSegments",
    }
}

#[derive(Debug, Default)]
struct RelationArchive {
    sealed: VecDeque<Segment>,
    open: Vec<SpilledRow>,
    open_epoch: u64,
    /// The monotonic counters; the three point-in-time ones (segments,
    /// sealed bytes, open rows) are read off the buffers by `stats`.
    stats: ArchiveStats,
}

fn seal_open(
    relation: &str,
    ra: &mut RelationArchive,
    config: &ArchiveConfig,
    durable: Option<&mut DurableStore>,
) {
    if ra.open.is_empty() {
        return;
    }
    let seg = Segment::build(relation, ra.open_epoch, ra.open_epoch, &ra.open);
    ra.open.clear();
    // The durability barrier sits exactly here: the freshly built frame
    // is logged (and made crash-safe) *before* it becomes visible in
    // memory, so the log is always a superset of the sealed state and
    // recovery replays it through `enforce` to the identical in-memory
    // archive. Compacted/merged frames are deliberately NOT re-logged:
    // the append-only log keeps pre-compaction frames and the replay
    // re-derives every merge (DESIGN.md §2.14).
    if let Some(store) = durable {
        store.append(relation, seg.as_bytes());
        store.barrier();
    }
    ra.sealed.push_back(seg);
    enforce(relation, ra, config);
}

/// Compaction and retention over `ra.sealed` — the enforcement half of
/// [`seal_open`], shared with durable recovery so replaying logged
/// frames reproduces the exact segmentation the live run had.
fn enforce(relation: &str, ra: &mut RelationArchive, config: &ArchiveConfig) {
    let compact_min = config.compact_min_bytes;
    // Compact: merge the trailing pair while both are undersized. The
    // merged segment keeps the combined epoch range.
    while ra.sealed.len() >= 2 {
        let n = ra.sealed.len();
        if ra.sealed[n - 1].len_bytes() >= compact_min
            || ra.sealed[n - 2].len_bytes() >= compact_min
        {
            break;
        }
        let (Some(b), Some(a)) = (ra.sealed.pop_back(), ra.sealed.pop_back()) else {
            break;
        };
        match (a.rows(), b.rows()) {
            (Ok(mut rows), Ok(more)) => {
                rows.extend(more);
                ra.sealed
                    .push_back(Segment::build(relation, a.epoch_lo(), b.epoch_hi(), &rows));
                ra.stats.compactions += 1;
            }
            // Own bytes never fail to decode; if they somehow did,
            // restore both rather than lose history.
            _ => {
                ra.sealed.push_back(a);
                ra.sealed.push_back(b);
                break;
            }
        }
    }
    // Retention: oldest segments go first; the newest always stays.
    let mut total: usize = ra.sealed.iter().map(Segment::len_bytes).sum();
    while total > config.retention_bytes && ra.sealed.len() > 1 {
        if let Some(seg) = ra.sealed.pop_front() {
            total -= seg.len_bytes();
            ra.stats.dropped_segments += 1;
        }
    }
    // Age retention: measured in epochs behind the newest sealed drop
    // epoch, so it is a pure function of the spill stream (no wall
    // clock involved). The newest segment always stays.
    if let Some(max_age) = config.max_age_epochs {
        let newest = ra.sealed.back().map(Segment::epoch_hi).unwrap_or(0);
        while ra.sealed.len() > 1 {
            let Some(front) = ra.sealed.front() else {
                break;
            };
            if front.epoch_hi().saturating_add(max_age) >= newest {
                break;
            }
            ra.sealed.pop_front();
            ra.stats.age_dropped_segments += 1;
        }
    }
}

/// What a history scan asks of a row: a window `[t0, t1]` its validity
/// interval must meet, and `(field, value)` equalities.
type Wanted<'a> = (Time, Time, &'a [(usize, Value)]);

/// Whether `row`'s validity interval intersects `[t0, t1]` and it
/// satisfies every `(field, value)` equality predicate.
fn scan_hit(row: &SpilledRow, t0: Time, t1: Time, eqs: &[(usize, Value)]) -> bool {
    in_window(row.inserted_at, row.dropped_at, t0, t1) && eqs_hold(row.tuple.values(), eqs)
}

/// Whether the interval `[inserted_at, dropped_at]` meets `[t0, t1]`.
fn in_window(inserted_at: Time, dropped_at: Time, t0: Time, t1: Time) -> bool {
    inserted_at <= t1 && dropped_at >= t0
}

/// Whether `vals` satisfies every `(field, value)` equality predicate.
pub(crate) fn eqs_hold(vals: &[Value], eqs: &[(usize, Value)]) -> bool {
    eqs.iter().all(|(i, v)| vals.get(*i) == Some(v))
}

/// A scan result. A row frozen while still live at its origin (drop
/// time [`LIVE_SENTINEL`]) comes back with an open interval, exactly as
/// the origin's own live rows would.
fn archived(row: SpilledRow) -> ArchivedRow {
    ArchivedRow {
        tuple: row.tuple,
        inserted_at: row.inserted_at,
        dropped_at: (row.dropped_at != LIVE_SENTINEL).then_some(row.dropped_at),
    }
}

/// Most distinct strings and addresses one segment walk keeps
/// ([`Texts`]); a frame with more decodes the rest afresh.
const TEXTS_CAP: usize = 1024;

/// The strings and addresses one segment walk has decoded, keyed by
/// their tag and encoded bytes ([`Text`]): each distinct one is UTF-8
/// checked and allocated once per segment and shared by `Arc` after. A
/// hashed lookup under a cap, so a column of unique strings costs one
/// hash per value, not a search, and the map stays small. The keys are
/// frame bytes, which may come from a peer or a log file, so the map
/// keeps the standard keyed hasher: no crafted frame makes every
/// lookup collide.
#[derive(Default)]
struct Texts<'a> {
    seen: HashMap<Text<'a>, Value>,
}

impl<'a> Texts<'a> {
    /// `text`'s value: the one decoded before, or a fresh decode (kept
    /// while there is room). A text that fails to decode is never kept,
    /// so it fails again wherever it recurs.
    fn value(&mut self, text: Text<'a>) -> Result<Value, WireError> {
        if let Some(v) = self.seen.get(&text) {
            return Ok(v.clone());
        }
        let v = text.decode()?;
        if self.seen.len() < TEXTS_CAP {
            self.seen.insert(text, v.clone());
        }
        Ok(v)
    }
}

/// Whether a scan of `[t0, t1]` under `eqs` must walk `seg`: its header
/// bounds meet the window and its per-column summary admits `eqs`.
fn walked(seg: &Segment, t0: Time, t1: Time, eqs: &[(usize, Value)]) -> bool {
    seg.min_inserted() <= t1 && seg.max_dropped() >= t0 && seg.may_match_eqs(eqs)
}

/// The one segment walk behind every history scan, own tier or
/// imported: segments a scan need not walk ([`walked`]) are pruned
/// without decoding; the rest are walked whole (every byte validated)
/// and their [`scan_hit`]s — the only rows built — returned in frame
/// order, in a `Vec` reserved once for every row the walked segments
/// hold plus `room` more. Also returns the number pruned.
fn scan_segments<'a, S>(
    segments: S,
    t0: Time,
    t1: Time,
    eqs: &[(usize, Value)],
    room: usize,
) -> Result<(Vec<ArchivedRow>, u64), SegmentError>
where
    S: IntoIterator<Item = &'a Segment>,
    S::IntoIter: Clone,
{
    let segments = segments.into_iter();
    let walk = segments.clone().filter(|s| walked(s, t0, t1, eqs));
    let rows: u64 = walk.clone().map(Segment::row_count).sum();
    let mut out = Vec::with_capacity(rows as usize + room);
    let mut texts = Texts::default();
    let mut n = 0;
    for seg in walk {
        Segment::walk(&seg.bytes, Some((t0, t1, eqs)), &mut texts, |row| {
            out.push(archived(row))
        })?;
        n += 1;
    }
    Ok((out, segments.count() as u64 - n))
}

/// The per-node frozen tier: one epoch-segmented history per enrolled
/// relation. Owned by the catalog; fed by table spill buffers.
#[derive(Debug)]
pub struct Archive {
    config: ArchiveConfig,
    relations: BTreeMap<String, RelationArchive>,
    /// Crash-surviving sink for sealed frames (DESIGN.md §2.14); `None`
    /// — the default — costs the seal path nothing and leaves behavior
    /// byte-identical to the pre-durability engine.
    durable: Option<DurableStore>,
}

impl Archive {
    /// An empty archive.
    pub fn new(config: ArchiveConfig) -> Archive {
        Archive {
            config,
            relations: BTreeMap::new(),
            durable: None,
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &ArchiveConfig {
        &self.config
    }

    /// Boot (or re-boot) this archive from a durable store: run the
    /// store's recovery pass, replay every recovered frame through the
    /// same push-and-enforce pipeline the live seal path uses — which
    /// re-derives compaction and retention decisions and therefore the
    /// exact in-memory segmentation the pre-crash node held for its
    /// sealed epochs — then adopt the store as this archive's sink.
    ///
    /// Rows that were still in open (unsealed) buffers at the crash are
    /// gone: the durability contract covers the clean prefix of *sealed*
    /// epochs, nothing more. Soft counters (`spilled_rows`, scans, …)
    /// restart from the replay.
    pub fn recover_from(&mut self, mut store: DurableStore) {
        let recovery = store.recover();
        let config = self.config;
        for (relation, segments) in recovery.relations {
            let ra = self.relations.entry(relation.clone()).or_default();
            for seg in segments {
                ra.sealed.push_back(seg);
                enforce(&relation, ra, &config);
            }
        }
        self.durable = Some(store);
    }

    /// Detach the durable store (crash teardown: the harness moves it to
    /// the node's next incarnation). Open buffers are *not* sealed first
    /// — a crash loses them, by contract.
    pub fn take_durable(&mut self) -> Option<DurableStore> {
        self.durable.take()
    }

    /// Durable-tier counters, when durability is on.
    pub fn durable_stats(&self) -> Option<DurableStats> {
        self.durable.as_ref().map(|d| d.stats())
    }

    /// Append spilled rows to `relation`'s history. Rows must arrive in
    /// non-decreasing `dropped_at` order per relation (the table spill
    /// paths guarantee this); crossing an epoch boundary seals the open
    /// buffer into a segment and applies compaction and retention.
    pub fn spill(&mut self, relation: &str, rows: impl IntoIterator<Item = SpilledRow>) {
        let epoch_len = self.config.epoch.0.max(1);
        let config = self.config;
        let durable = &mut self.durable;
        let ra = self.relations.entry(relation.to_string()).or_default();
        for row in rows {
            let epoch = row.dropped_at.0 / epoch_len;
            if !ra.open.is_empty() && epoch > ra.open_epoch {
                seal_open(relation, ra, &config, durable.as_mut());
            }
            if ra.open.is_empty() {
                ra.open_epoch = epoch;
            }
            ra.open.push(row);
            ra.stats.spilled_rows += 1;
        }
    }

    /// [`spill`](Archive::spill), but adopting an owned buffer. When the
    /// whole run lands in one epoch (the common case: a maintenance
    /// drain runs far more often than an epoch rolls over) the buffer is
    /// moved — or bulk-appended — without per-row work. This is the
    /// write-through hot path from
    /// [`Catalog::archive_maintain`](crate::Catalog::archive_maintain);
    /// the per-row path only runs
    /// when the drain itself straddles an epoch boundary.
    pub fn spill_vec(&mut self, relation: &str, rows: Vec<SpilledRow>) {
        let epoch_len = self.config.epoch.0.max(1);
        let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
            return;
        };
        let e0 = first.dropped_at.0 / epoch_len;
        let e1 = last.dropped_at.0 / epoch_len;
        if e0 == e1 {
            let ra = self.relations.entry(relation.to_string()).or_default();
            if ra.open.is_empty() || ra.open_epoch == e0 {
                if ra.open.is_empty() {
                    ra.open_epoch = e0;
                }
                ra.stats.spilled_rows += rows.len() as u64;
                if ra.open.is_empty() {
                    ra.open = rows;
                } else {
                    ra.open.extend(rows);
                }
                return;
            }
        }
        self.spill(relation, rows);
    }

    /// Seal every open buffer whose epoch is strictly older than
    /// `now`'s epoch. Rows spill in non-decreasing drop order per
    /// relation, so once the clock has left an epoch no further row can
    /// land in it — sealing it produces exactly the segment the next
    /// spill would have sealed anyway, just earlier. This is the
    /// durability checkpoint's hook: expired history becomes crash-safe
    /// at every sweep instead of waiting for the next epoch-crossing
    /// spill. The current epoch stays open (sealing it early would
    /// split an epoch across segments and diverge from the no-crash
    /// segmentation).
    pub fn seal_aged(&mut self, now: Time) {
        let epoch_len = self.config.epoch.0.max(1);
        let current = now.0 / epoch_len;
        let config = self.config;
        let durable = &mut self.durable;
        for (relation, ra) in self.relations.iter_mut() {
            if !ra.open.is_empty() && ra.open_epoch < current {
                seal_open(relation, ra, &config, durable.as_mut());
            }
        }
    }

    /// Seal every open buffer, freezing all spilled rows into segments,
    /// the current epoch's included. The engine never does (it seals
    /// through [`Archive::seal_aged`]); tests call this to read a
    /// history from segments alone.
    pub fn seal_all(&mut self) {
        let config = self.config;
        let durable = &mut self.durable;
        for (relation, ra) in self.relations.iter_mut() {
            seal_open(relation, ra, &config, durable.as_mut());
        }
    }

    /// All archived rows of `relation` whose validity interval
    /// intersects `[t0, t1]` and that satisfy every `(field, value)`
    /// equality predicate in `eqs`, in spill order: the sealed segments
    /// (one whose header bounds miss the window, or whose per-column
    /// summary rules out `eqs`, is pruned unread), then the open buffer.
    /// An inverted window (`t0 > t1`) is empty: nothing is scanned. The
    /// `Vec` is reserved once, for every row the walked segments and the
    /// open buffer hold plus `room` more (the caller's live rows).
    pub fn scan_range(
        &mut self,
        relation: &str,
        t0: Time,
        t1: Time,
        eqs: &[(usize, Value)],
        room: usize,
    ) -> Result<Vec<ArchivedRow>, SegmentError> {
        let Some(ra) = self.relations.get_mut(relation).filter(|_| t0 <= t1) else {
            return Ok(Vec::with_capacity(room));
        };
        ra.stats.scans += 1;
        let (mut out, pruned) = scan_segments(&ra.sealed, t0, t1, eqs, ra.open.len() + room)?;
        ra.stats.pruned_segments += pruned;
        for row in &ra.open {
            if scan_hit(row, t0, t1, eqs) {
                out.push(archived(row.clone()));
            }
        }
        ra.stats.scan_hits += out.len() as u64;
        Ok(out)
    }

    /// Snapshot `relation`'s entire archived history as encoded segment
    /// frames: clones of every sealed segment (oldest first) followed
    /// by a synthetic segment freezing the open buffer. A **pure read**
    /// — the relation's own segmentation (and therefore every later
    /// local scan, compaction, and retention decision) is untouched, so
    /// exporting never perturbs the origin node's determinism.
    pub fn export_frames(&self, relation: &str) -> Vec<Segment> {
        let Some(ra) = self.relations.get(relation) else {
            return Vec::new();
        };
        let mut out: Vec<Segment> = ra.sealed.iter().cloned().collect();
        if !ra.open.is_empty() {
            out.push(Segment::build(
                relation,
                ra.open_epoch,
                ra.open_epoch,
                &ra.open,
            ));
        }
        out
    }

    /// Sealed segments of one relation, oldest first.
    pub fn segments(&self, relation: &str) -> Vec<&Segment> {
        self.relations
            .get(relation)
            .map(|ra| ra.sealed.iter().collect())
            .unwrap_or_default()
    }

    /// Per-relation counters, sorted by relation name.
    pub fn stats(&self) -> Vec<(String, ArchiveStats)> {
        self.relations
            .iter()
            .map(|(name, ra)| {
                (
                    name.clone(),
                    ArchiveStats {
                        segments: ra.sealed.len() as u64,
                        sealed_bytes: ra.sealed.iter().map(|s| s.len_bytes() as u64).sum(),
                        open_rows: ra.open.len() as u64,
                        ..ra.stats
                    },
                )
            })
            .collect()
    }
}

/// Shipped history, indexed by origin node: per `(origin, relation)`
/// the validated segment frames received from that node, byte-identical
/// to the origin's own export as of its latest shipment. `BTreeMap`
/// keys give scans a deterministic origin order independent of arrival
/// order.
#[derive(Debug, Default)]
pub struct ImportedHistory {
    by_origin: BTreeMap<String, BTreeMap<String, Vec<Segment>>>,
    /// Cumulative segments age-dropped per `(origin, relation)` —
    /// survives wholesale replacement, like any monotone counter.
    age_dropped: BTreeMap<(String, String), u64>,
}

impl ImportedHistory {
    /// Install a shipment for `(origin, relation)`. A full snapshot
    /// (`keep` `None`) replaces whatever was held. A **delta** names the
    /// epoch range `oldest..=prev_hi` of sealed frames the origin
    /// promises are unchanged since its last shipment (no compaction
    /// crossed `prev_hi` — it ships a full snapshot otherwise): the
    /// holder keeps its frames inside that range, drops everything
    /// newer (the previous shipment's open-buffer and live-row tail,
    /// now re-frozen into the incoming sealed segments) and everything
    /// older (mirroring the origin's front retention), and appends the
    /// incoming frames — byte-identical to the full export the origin
    /// would have shipped.
    ///
    /// Then the holder's age policy: with `max_age_epochs` set, sealed
    /// segments whose newest epoch trails the newest sealed epoch held
    /// by more than that many epochs are dropped — the same predicate
    /// the origin's own frozen tier uses (`seal_open`), so a collector
    /// with the policy holds no more history than the origin itself
    /// would. The newest sealed segment always stays, and the live-row
    /// frame (epoch `u64::MAX`, not a seal) neither drops nor ages
    /// anything out.
    pub fn import(
        &mut self,
        origin: &str,
        relation: &str,
        keep: Option<RangeInclusive<u64>>,
        segments: Vec<Segment>,
        max_age_epochs: Option<u64>,
    ) {
        let held = self
            .by_origin
            .entry(origin.to_string())
            .or_default()
            .entry(relation.to_string())
            .or_default();
        match keep {
            Some(keep) => {
                held.retain(|s| keep.contains(&s.epoch_lo()) && keep.contains(&s.epoch_hi()))
            }
            None => held.clear(),
        }
        held.extend(segments);
        let Some(max_age) = max_age_epochs else {
            return;
        };
        let newest = held
            .iter()
            .map(Segment::epoch_hi)
            .filter(|&e| e != u64::MAX)
            .max();
        if let Some(newest) = newest {
            let before = held.len() as u64;
            held.retain(|s| s.epoch_hi().saturating_add(max_age) >= newest);
            let dropped = before - held.len() as u64;
            if dropped > 0 {
                *self
                    .age_dropped
                    .entry((origin.to_string(), relation.to_string()))
                    .or_default() += dropped;
            }
        }
    }

    /// The frames held for `(origin, relation)`; `None` when no import
    /// (possibly empty) was ever recorded — "we asked and the origin
    /// answered", as distinct from "never heard from them".
    pub fn frames(&self, origin: &str, relation: &str) -> Option<&[Segment]> {
        Some(self.by_origin.get(origin)?.get(relation)?.as_slice())
    }

    /// Origins holding history for `relation`, sorted.
    pub fn origins(&self, relation: &str) -> Vec<String> {
        self.by_origin
            .iter()
            .filter(|(_, rels)| rels.contains_key(relation))
            .map(|(o, _)| o.clone())
            .collect()
    }

    /// `(origin, relation, counters)`, sorted by origin then relation.
    pub fn stats(&self) -> Vec<(String, String, ImportedStats)> {
        let mut out = Vec::new();
        for (origin, rels) in &self.by_origin {
            for (relation, segs) in rels {
                let key = (origin.clone(), relation.clone());
                let stats = ImportedStats {
                    segments: segs.len() as u64,
                    bytes: segs.iter().map(|s| s.len_bytes() as u64).sum(),
                    age_dropped_segments: self.age_dropped.get(&key).copied().unwrap_or(0),
                };
                out.push((key.0, key.1, stats));
            }
        }
        out
    }

    /// Scan one origin's shipped history of `relation` for rows whose
    /// validity interval intersects `[t0, t1]` and that satisfy `eqs`
    /// (none when `t0 > t1`).
    pub fn scan(
        &self,
        origin: &str,
        relation: &str,
        t0: Time,
        t1: Time,
        eqs: &[(usize, Value)],
    ) -> Result<Vec<ArchivedRow>, SegmentError> {
        let frames = self.frames(origin, relation).filter(|_| t0 <= t1);
        Ok(scan_segments(frames.unwrap_or_default(), t0, t1, eqs, 0)?.0)
    }
}

#[cfg(test)]
mod walk_tests;

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64, ins: u64, dropd: u64) -> SpilledRow {
        SpilledRow {
            tuple: Tuple::new("t", [Value::addr("n1"), Value::Int(i)]),
            inserted_at: Time::from_secs(ins),
            dropped_at: Time::from_secs(dropd),
        }
    }

    #[test]
    fn segment_round_trip() {
        let rows: Vec<SpilledRow> = (0..10).map(|i| row(i, i as u64, 100 + i as u64)).collect();
        let seg = Segment::build("t", 3, 3, &rows);
        let back = Segment::from_bytes(seg.as_bytes()).unwrap();
        assert_eq!(back, seg);
        assert_eq!(back.rows().unwrap(), rows);
        assert_eq!(back.relation(), "t");
        assert_eq!(back.row_count(), 10);
        assert_eq!(back.min_inserted(), Time::ZERO);
        assert_eq!(back.max_dropped(), Time::from_secs(109));
    }

    #[test]
    fn repeated_column_strings_decode_equal_and_shared() {
        // ruleExec-shaped rows: the location never changes, the rule
        // label runs and comes back; a string also turns up where the
        // row above held the same text as an address, and the other way
        // round.
        let rule = ["r1", "r1", "r2", "r2", "r1"];
        let rows: Vec<SpilledRow> = (0..5)
            .map(|i| SpilledRow {
                tuple: Tuple::new(
                    "ruleExec",
                    [
                        Value::addr("n1"),
                        Value::str(rule[i]),
                        if i % 2 == 0 {
                            Value::str("n1")
                        } else {
                            Value::addr("n1")
                        },
                        Value::Int(i as i64),
                    ],
                ),
                inserted_at: Time::from_secs(i as u64),
                dropped_at: Time::from_secs(120 + i as u64),
            })
            .collect();
        let back = Segment::build("ruleExec", 4, 4, &rows).rows().unwrap();
        assert_eq!(back, rows);
        let shares =
            |a: usize, b: usize, col: usize| match (back[a].tuple.get(col), back[b].tuple.get(col))
            {
                (Some(Value::Str(x)), Some(Value::Str(y))) => Arc::ptr_eq(x, y),
                (Some(Value::Addr(x)), Some(Value::Addr(y))) => {
                    std::ptr::eq(x.as_str(), y.as_str())
                }
                _ => false,
            };
        assert!((1..5).all(|i| shares(0, i, 0)), "constant column: one copy");
        assert!(shares(0, 1, 1) && shares(2, 3, 1), "a run shares");
        assert!(shares(0, 4, 1), "a label seen before shares, run or not");
        assert!(!shares(1, 2, 1), "another label does not");
        for i in 0..5 {
            // Same text, other variant: decoded as written, never shared.
            let written = matches!(rows[i].tuple.get(2), Some(Value::Str(_)));
            assert_eq!(matches!(back[i].tuple.get(2), Some(Value::Str(_))), written);
            assert!(Arc::ptr_eq(
                &back[0].tuple.name_arc(),
                &back[i].tuple.name_arc()
            ));
        }
    }

    #[test]
    fn segment_truncation_is_error_not_panic() {
        let rows: Vec<SpilledRow> = (0..4).map(|i| row(i, 0, 10)).collect();
        let seg = Segment::build("t", 0, 0, &rows);
        let bytes = seg.as_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Segment::from_bytes(&bytes[..cut]).is_err(),
                "decoding a {cut}-byte prefix must fail cleanly"
            );
        }
    }

    #[test]
    fn segment_bad_magic_version_tag() {
        let seg = Segment::build("t", 0, 0, &[row(1, 0, 10)]);
        let mut bytes = seg.as_bytes().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            Segment::from_bytes(&bytes),
            Err(SegmentError::BadMagic(_))
        ));
        let mut bytes = seg.as_bytes().to_vec();
        bytes[4] = 99;
        assert_eq!(
            Segment::from_bytes(&bytes),
            Err(SegmentError::BadVersion(99))
        );
        let mut bytes = seg.as_bytes().to_vec();
        bytes[5] = 0xFF; // relation-name value tag
        assert_eq!(
            Segment::from_bytes(&bytes),
            Err(SegmentError::Wire(WireError::BadTag(0xFF)))
        );
        let mut bytes = seg.as_bytes().to_vec();
        bytes.push(0);
        assert_eq!(
            Segment::from_bytes(&bytes),
            Err(SegmentError::TrailingBytes(1))
        );
    }

    #[test]
    fn epoch_boundary_seals() {
        let mut a = Archive::new(ArchiveConfig {
            epoch: TimeDelta::from_secs(10),
            ..ArchiveConfig::default()
        });
        a.spill("t", vec![row(1, 0, 5), row(2, 0, 9)]);
        assert_eq!(a.stats()[0].1.segments, 0);
        assert_eq!(a.stats()[0].1.open_rows, 2);
        // Crossing into epoch 1 seals epoch 0.
        a.spill("t", vec![row(3, 0, 11)]);
        let s = a.stats()[0].1;
        assert_eq!(s.segments, 1);
        assert_eq!(s.open_rows, 1);
        assert_eq!(s.spilled_rows, 3);
        assert_eq!(a.segments("t")[0].row_count(), 2);
    }

    #[test]
    fn scan_range_filters_on_validity_interval() {
        let mut a = Archive::new(ArchiveConfig {
            epoch: TimeDelta::from_secs(10),
            ..ArchiveConfig::default()
        });
        a.spill("t", vec![row(1, 0, 5), row(2, 3, 15), row(3, 20, 25)]);
        a.seal_all();
        let hits = a
            .scan_range("t", Time::from_secs(6), Time::from_secs(14), &[], 0)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].tuple.get(1), Some(&Value::Int(2)));
        // Unknown relations scan empty, not error.
        assert!(a
            .scan_range("nope", Time::ZERO, Time::from_secs(99), &[], 0)
            .unwrap()
            .is_empty());
        let s = a.stats()[0].1;
        assert_eq!(s.scans, 1);
        assert_eq!(s.scan_hits, 1);
    }

    #[test]
    fn retention_drops_oldest_segments() {
        let mut a = Archive::new(ArchiveConfig {
            epoch: TimeDelta::from_secs(1),
            retention_bytes: 400,
            compact_min_bytes: 0, // no merging: isolate retention
            max_age_epochs: None,
        });
        for e in 0..50u64 {
            a.spill("t", vec![row(e as i64, 0, e)]);
        }
        a.seal_all();
        let s = a.stats()[0].1;
        assert!(s.dropped_segments > 0, "budget must have evicted segments");
        assert!(
            s.sealed_bytes <= 400,
            "sealed bytes {} over budget",
            s.sealed_bytes
        );
        // The newest rows survive; the oldest are gone.
        let hits = a
            .scan_range("t", Time::ZERO, Time::from_secs(100), &[], 0)
            .unwrap();
        assert!(hits
            .iter()
            .any(|r| r.dropped_at == Some(Time::from_secs(49))));
        assert!(!hits.iter().any(|r| r.dropped_at == Some(Time::ZERO)));
    }

    #[test]
    fn eq_predicate_pushdown_prunes_segments() {
        // Three sealed segments, disjoint key ranges. An equality hint
        // on the key column must skip the non-matching segments via
        // their per-column min/max summaries — without decoding them —
        // and still return exactly the matching rows.
        let mut a = Archive::new(ArchiveConfig {
            epoch: TimeDelta::from_secs(10),
            compact_min_bytes: 0,
            ..ArchiveConfig::default()
        });
        a.spill("t", vec![row(1, 0, 5), row(2, 1, 6)]);
        a.spill("t", vec![row(10, 11, 15), row(11, 12, 16)]);
        a.spill("t", vec![row(20, 21, 25), row(21, 22, 26)]);
        a.seal_all();
        assert_eq!(a.stats()[0].1.segments, 3);

        let eqs = [(1usize, Value::Int(11))];
        let hits = a
            .scan_range("t", Time::ZERO, Time::from_secs(100), &eqs, 0)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].tuple.get(1), Some(&Value::Int(11)));
        let s = a.stats()[0].1;
        assert_eq!(
            s.pruned_segments, 2,
            "the two non-overlapping segments must be pruned by min/max"
        );

        // A hint outside every summary prunes everything.
        let hits = a
            .scan_range(
                "t",
                Time::ZERO,
                Time::from_secs(100),
                &[(1, Value::Int(99))],
                0,
            )
            .unwrap();
        assert!(hits.is_empty());
        assert_eq!(a.stats()[0].1.pruned_segments, 5);

        // An unprunable hint (non-key column shared by all rows) decodes
        // everything and filters row-by-row to the same answer as a full
        // scan plus a filter.
        let all = a
            .scan_range("t", Time::ZERO, Time::from_secs(100), &[], 0)
            .unwrap();
        let filtered = a
            .scan_range(
                "t",
                Time::ZERO,
                Time::from_secs(100),
                &[(0, Value::addr("n1"))],
                0,
            )
            .unwrap();
        assert_eq!(filtered, all, "shared-value hint filters nothing out");
    }

    #[test]
    fn age_retention_drops_stale_epochs() {
        let mut a = Archive::new(ArchiveConfig {
            epoch: TimeDelta::from_secs(1),
            compact_min_bytes: 0,
            max_age_epochs: Some(5),
            ..ArchiveConfig::default()
        });
        for e in 0..30u64 {
            a.spill("t", vec![row(e as i64, 0, e)]);
        }
        a.seal_all();
        let s = a.stats()[0].1;
        assert!(
            s.age_dropped_segments > 0,
            "epochs older than the window must age out: {s:?}"
        );
        let hits = a
            .scan_range("t", Time::ZERO, Time::from_secs(100), &[], 0)
            .unwrap();
        assert!(hits
            .iter()
            .any(|r| r.dropped_at == Some(Time::from_secs(29))));
        assert!(!hits.iter().any(|r| r.dropped_at == Some(Time::ZERO)));
    }

    #[test]
    fn compaction_merges_small_neighbours() {
        let mut a = Archive::new(ArchiveConfig {
            epoch: TimeDelta::from_secs(1),
            retention_bytes: 1 << 20,
            compact_min_bytes: 4096, // everything is "small"
            max_age_epochs: None,
        });
        for e in 0..20u64 {
            a.spill("t", vec![row(e as i64, 0, e)]);
        }
        a.seal_all();
        let s = a.stats()[0].1;
        assert!(s.compactions > 0);
        assert_eq!(s.segments, 1, "all crumbs merge into one segment");
        let segs = a.segments("t");
        assert_eq!(segs[0].epoch_lo(), 0);
        assert_eq!(segs[0].epoch_hi(), 19);
        assert_eq!(segs[0].row_count(), 20);
        // Merged content is intact and ordered.
        let hits = a
            .scan_range("t", Time::ZERO, Time::from_secs(100), &[], 0)
            .unwrap();
        assert_eq!(hits.len(), 20);
        assert!(hits.windows(2).all(|w| w[0].dropped_at <= w[1].dropped_at));
    }
}
