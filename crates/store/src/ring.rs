//! A trace table's rows as records (DESIGN.md §2.3).
//!
//! `ruleExec` and `tupleTable` hold most of a traced node's live rows,
//! and each is a bounded FIFO in practice: rows join at the back and
//! leave from the front by eviction or (for `ruleExec`) expiry. A
//! [`Ring`] stores them as [`TraceRow`] records in one slot array, in
//! write order, with a compact key → slot index beside it — no per-row
//! tuple, key allocation, map entry or expiry-queue entry. A tuple is
//! built only when something reads a row.
//!
//! Slots are numbered by a `u32` id that grows by one per write; the
//! array's front slot has id `head`. A refreshed or replaced row moves
//! to a new slot at the back, and a deleted one leaves a hole; holes at
//! the front are dropped at once, and when holes outnumber live rows
//! the array is compacted and both indexes are rebuilt. With one
//! lifetime and a clock that only advances, write order is expiry
//! order, so expiry pops from the front; the table hands a ring whose
//! clock runs backwards over to general storage first
//! ([`Ring::takes`]).

use crate::hash::{FxHashMap, FxHashSet, FxHasher};
use crate::table::{Book, InsertOutcome, Keyed, RowRef, TableSpec};
use p2_types::{Cell, Time, TimeDelta, TraceKind, TraceRow, Tuple, Value};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

/// One stored row with its validity bookkeeping.
#[derive(Debug, Clone)]
struct Slot {
    row: TraceRow,
    /// Start of the row's validity interval (kept by a refresh).
    inserted_at: Time,
    /// The last write, insert or refresh: the lifetime counts from here.
    written_at: Time,
}

/// The records of one trace table.
#[derive(Debug, Clone)]
pub(crate) struct Ring {
    kind: TraceKind,
    key_fields: Vec<usize>,
    /// Write order; `None` is a hole left by a row that moved or left.
    /// The front slot is never a hole.
    slots: VecDeque<Option<Slot>>,
    /// Id of `slots[0]`.
    head: u32,
    live: usize,
    /// The latest write instant.
    last_write: Time,
    keys: KeyIndex,
    /// Secondary indexes: field → canonical cell ([`index_key`]) → ids
    /// of the slots holding it.
    indexes: Indexes,
}

type Indexes = HashMap<usize, FxHashMap<u64, FxHashSet<u32>>>;

impl Ring {
    /// An empty ring for `kind` rows under `spec`'s key, or `None` when
    /// the key names a field the relation does not have.
    pub(crate) fn new(spec: &TableSpec, kind: TraceKind) -> Option<Ring> {
        if spec.key_fields.iter().any(|&f| f >= kind.arity()) {
            return None;
        }
        Some(Ring {
            kind,
            key_fields: spec.key_fields.clone(),
            slots: VecDeque::new(),
            head: 0,
            live: 0,
            last_write: Time::ZERO,
            keys: KeyIndex::default(),
            indexes: HashMap::new(),
        })
    }

    /// Whether writing `row` at `now` keeps the ring's invariants: the
    /// row is this relation's, and where rows expire the clock has not
    /// run backwards (which would break expiry order).
    pub(crate) fn takes(&self, row: &TraceRow, now: Time, lifetime: Option<TimeDelta>) -> bool {
        row.kind() == self.kind && (lifetime.is_none() || now >= self.last_write)
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Bytes the live records occupy in the slot array.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.live * std::mem::size_of::<Option<Slot>>()
    }

    fn pos(&self, id: u32) -> usize {
        id.wrapping_sub(self.head) as usize
    }

    fn row(&self, id: u32) -> Option<&TraceRow> {
        self.slots.get(self.pos(id))?.as_ref().map(|s| &s.row)
    }

    fn live_slots(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().flatten()
    }

    fn key_hash(&self, row: &TraceRow) -> u32 {
        hash_cells(self.key_fields.iter().map(|&f| row.cell(f)))
    }

    /// The key index bucket and slot id of the row keyed like `row`.
    fn find(&self, hash: u32, row: &TraceRow) -> Option<(usize, u32)> {
        let same_key = |id| {
            self.row(id)
                .is_some_and(|r| self.key_fields.iter().all(|&f| r.cell(f) == row.cell(f)))
        };
        self.keys.find(hash, same_key)
    }

    /// Append a slot at the back (secondary indexes follow; the key
    /// index is the caller's).
    fn push(&mut self, slot: Slot) -> u32 {
        let id = self.head.wrapping_add(self.slots.len() as u32);
        Ring::index_add(&mut self.indexes, id, &slot.row);
        self.slots.push_back(Some(slot));
        self.live += 1;
        id
    }

    /// Enter slot `id`'s cells in every secondary index.
    fn index_add(indexes: &mut Indexes, id: u32, row: &TraceRow) {
        for (&field, idx) in indexes.iter_mut() {
            if let Some(c) = row.cell(field) {
                idx.entry(index_key(c)).or_default().insert(id);
            }
        }
    }

    /// Take live slot `id` out, leaving a hole (secondary indexes
    /// follow; the key index is the caller's).
    fn take(&mut self, id: u32) -> Option<Slot> {
        let pos = self.pos(id);
        let slot = self.slots.get_mut(pos)?.take()?;
        self.live -= 1;
        for (&field, idx) in self.indexes.iter_mut() {
            if let Some(key) = slot.row.cell(field).map(index_key) {
                if let Some(bucket) = idx.get_mut(&key) {
                    bucket.remove(&id);
                    if bucket.is_empty() {
                        idx.remove(&key);
                    }
                }
            }
        }
        Some(slot)
    }

    /// Take live slot `id` out of the ring and both indexes.
    fn unlink(&mut self, id: u32) -> Option<Slot> {
        let hash = self.key_hash(self.row(id)?);
        self.keys.remove(hash, id);
        self.take(id)
    }

    /// Id of the oldest live slot, dropping holes ahead of it.
    fn front(&mut self) -> Option<u32> {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.head = self.head.wrapping_add(1);
        }
        self.slots.front().map(|_| self.head)
    }

    /// Restore the invariants after a mutation: no hole at the front,
    /// and at most about as many holes as live rows (compaction
    /// renumbers the slots and rebuilds both indexes).
    fn tidy(&mut self) {
        self.front();
        if self.slots.len() <= 2 * self.live + 32 {
            return;
        }
        self.slots.retain(Option::is_some);
        self.keys.clear();
        for idx in self.indexes.values_mut() {
            idx.clear();
        }
        for pos in 0..self.slots.len() {
            let id = self.head.wrapping_add(pos as u32);
            let Some(slot) = &self.slots[pos] else {
                continue;
            };
            self.keys.insert(self.key_hash(&slot.row), id);
            Ring::index_add(&mut self.indexes, id, &slot.row);
        }
    }

    /// Insert, replace or refresh `row` (the table has expired due rows
    /// and checked [`Ring::takes`]). A new key in a full ring evicts the
    /// oldest rows first, as the general table does.
    pub(crate) fn insert(
        &mut self,
        row: TraceRow,
        now: Time,
        max_rows: Option<usize>,
        book: &mut Book,
    ) -> InsertOutcome {
        self.last_write = self.last_write.max(now);
        let hash = self.key_hash(&row);
        let outcome = match self.find(hash, &row) {
            Some((bucket, id)) => {
                let Some(old) = self.take(id) else {
                    return InsertOutcome::Inserted; // the index names live slots only
                };
                let (slot, outcome) = if old.row == row {
                    let slot = Slot {
                        written_at: now,
                        ..old
                    };
                    (slot, InsertOutcome::Refreshed)
                } else {
                    let old_tuple = old.row.to_tuple();
                    book.spill(|| old_tuple.clone(), old.inserted_at, now);
                    book.replacements += 1;
                    let slot = Slot {
                        row,
                        inserted_at: now,
                        written_at: now,
                    };
                    (slot, InsertOutcome::Replaced { old: old_tuple })
                };
                let id = self.push(slot);
                self.keys.repoint(bucket, id);
                outcome
            }
            None => {
                if let Some(max) = max_rows {
                    self.evict_to(max.saturating_sub(1), now, book);
                }
                let id = self.push(Slot {
                    row,
                    inserted_at: now,
                    written_at: now,
                });
                self.keys.insert(hash, id);
                book.inserts += 1;
                InsertOutcome::Inserted
            }
        };
        self.tidy();
        outcome
    }

    /// Evict the oldest rows until at most `max` remain.
    fn evict_to(&mut self, max: usize, now: Time, book: &mut Book) {
        while self.live > max {
            let Some(slot) = self.front().and_then(|id| self.unlink(id)) else {
                break;
            };
            book.evictions += 1;
            book.spill(|| slot.row.to_tuple(), slot.inserted_at, now);
        }
    }

    /// Drop the rows whose lifetime has elapsed by `now`, from the
    /// front; each spills with its deadline as drop time.
    pub(crate) fn expire(
        &mut self,
        now: Time,
        lifetime: Option<TimeDelta>,
        book: &mut Book,
    ) -> usize {
        let Some(life) = lifetime else {
            return 0;
        };
        let mut dropped = 0;
        while let Some(id) = self.front() {
            let due = match &self.slots[0] {
                Some(s) if s.written_at + life <= now => s.written_at + life,
                _ => break,
            };
            let Some(slot) = self.unlink(id) else {
                break;
            };
            book.stats.heap_pops += 1;
            book.expirations += 1;
            book.spill(|| slot.row.to_tuple(), slot.inserted_at, due);
            dropped += 1;
        }
        if dropped > 0 {
            self.tidy();
        }
        dropped
    }

    /// Remove the row keyed by `key` (the key fields' values, as
    /// [`TableSpec::key_of`] reads them from a tuple).
    pub(crate) fn delete_by_key(
        &mut self,
        key: &[Value],
        now: Time,
        book: &mut Book,
    ) -> Option<Tuple> {
        let cells: Vec<Cell> = self
            .key_fields
            .iter()
            .zip(key)
            .map(|(&f, v)| Cell::probe(self.kind, f, v))
            .collect::<Option<_>>()?;
        let hash = hash_cells(cells.iter().map(|c| Some(*c)));
        let same_key = |id| {
            self.row(id).is_some_and(|r| {
                self.key_fields
                    .iter()
                    .zip(&cells)
                    .all(|(&f, c)| r.cell(f) == Some(*c))
            })
        };
        let (bucket, id) = self.keys.find(hash, same_key)?;
        self.keys.remove_at(bucket);
        let slot = self.take(id)?;
        book.deletions += 1;
        let tuple = slot.row.to_tuple();
        book.spill(|| tuple.clone(), slot.inserted_at, now);
        self.tidy();
        Some(tuple)
    }

    /// Remove every row `pred` accepts, in write order.
    pub(crate) fn delete_where(
        &mut self,
        now: Time,
        pred: &mut dyn FnMut(RowRef<'_>) -> bool,
        book: &mut Book,
    ) -> usize {
        let mut removed = 0;
        for pos in 0..self.slots.len() {
            match &self.slots[pos] {
                Some(s) if pred(RowRef::Trace(&s.row)) => {}
                _ => continue,
            }
            let Some(slot) = self.unlink(self.head.wrapping_add(pos as u32)) else {
                continue;
            };
            book.deletions += 1;
            book.spill(|| slot.row.to_tuple(), slot.inserted_at, now);
            removed += 1;
        }
        if removed > 0 {
            self.tidy();
        }
        removed
    }

    /// Every live row as a tuple, in write order.
    pub(crate) fn scan(&self) -> Vec<Tuple> {
        self.live_slots().map(|s| s.row.to_tuple()).collect()
    }

    pub(crate) fn for_each(&self, visit: &mut dyn FnMut(RowRef<'_>)) {
        for s in self.live_slots() {
            visit(RowRef::Trace(&s.row));
        }
    }

    /// The live rows `keep` accepts, with their insertion times, in
    /// write order; only those are built.
    pub(crate) fn live_where(
        &self,
        keep: &mut dyn FnMut(RowRef<'_>, Time) -> bool,
    ) -> Vec<(Tuple, Time)> {
        self.live_slots()
            .filter(|s| keep(RowRef::Trace(&s.row), s.inserted_at))
            .map(|s| (s.row.to_tuple(), s.inserted_at))
            .collect()
    }

    /// Rows whose `field` equals `value`, by a walk over every slot.
    pub(crate) fn linear_eq(&self, field: usize, value: &Value) -> Vec<Tuple> {
        self.live_slots()
            .filter(|s| s.row.field_is(field, value))
            .map(|s| s.row.to_tuple())
            .collect()
    }

    pub(crate) fn has_index(&self, field: usize) -> bool {
        self.indexes.contains_key(&field)
    }

    pub(crate) fn indexed_fields(&self) -> impl Iterator<Item = usize> + '_ {
        self.indexes.keys().copied()
    }

    /// Register a secondary index on `field`, built from the live rows.
    pub(crate) fn ensure_index(&mut self, field: usize) {
        if self.indexes.contains_key(&field) {
            return;
        }
        let mut idx: FxHashMap<u64, FxHashSet<u32>> = FxHashMap::default();
        for (pos, slot) in self.slots.iter().enumerate() {
            if let Some(c) = slot.as_ref().and_then(|s| s.row.cell(field)) {
                idx.entry(index_key(c))
                    .or_default()
                    .insert(self.head.wrapping_add(pos as u32));
            }
        }
        self.indexes.insert(field, idx);
    }

    /// Rows whose `field` equals `value`, from `field`'s index (which
    /// must exist), in write order: only the matching rows are touched.
    pub(crate) fn indexed_eq(&self, field: usize, value: &Value) -> Vec<Tuple> {
        let Some(cell) = Cell::probe(self.kind, field, value) else {
            return Vec::new();
        };
        let Some(ids) = self
            .indexes
            .get(&field)
            .and_then(|i| i.get(&index_key(cell)))
        else {
            return Vec::new();
        };
        let mut hits: Vec<usize> = ids
            .iter()
            .map(|&id| self.pos(id))
            .filter(|&p| {
                self.slots[p]
                    .as_ref()
                    .is_some_and(|s| s.row.cell(field) == Some(cell))
            })
            .collect();
        hits.sort_unstable();
        hits.into_iter()
            .filter_map(|p| self.slots[p].as_ref().map(|s| s.row.to_tuple()))
            .collect()
    }

    /// Drop every row; indexes stay registered, empty.
    pub(crate) fn clear(&mut self) {
        self.head = self.head.wrapping_add(self.slots.len() as u32);
        self.slots.clear();
        self.live = 0;
        self.keys.clear();
        for idx in self.indexes.values_mut() {
            idx.clear();
        }
    }

    /// The same rows in general storage: same order, validity intervals,
    /// deadlines and indexed fields. A table hands its ring over when a
    /// write does not fit it ([`Ring::takes`], or a tuple that is not a
    /// trace row of this relation).
    pub(crate) fn to_keyed(&self, spec: &TableSpec) -> Keyed {
        let mut keyed = Keyed::default();
        for field in self.indexes.keys() {
            keyed.ensure_index(*field);
        }
        for s in self.live_slots() {
            let expires_at = spec.lifetime.map(|l| s.written_at + l);
            keyed.adopt(spec, s.row.to_tuple(), s.inserted_at, expires_at);
        }
        keyed
    }
}

#[cfg(test)]
impl Ring {
    /// Panic unless the ring's invariants hold: no hole at the front,
    /// holes bounded, one key entry per live row that finds it, and each
    /// secondary index holding exactly the live rows' cells.
    pub(crate) fn assert_sound(&self) {
        assert!(
            !matches!(self.slots.front(), Some(None)),
            "hole at the front"
        );
        assert!(self.slots.len() <= 2 * self.live + 32, "holes unbounded");
        assert_eq!(self.live, self.live_slots().count());
        assert_eq!(self.keys.len, self.live, "one key entry per live row");
        for (pos, slot) in self.slots.iter().enumerate() {
            if let Some(s) = slot {
                let id = self.head.wrapping_add(pos as u32);
                assert_eq!(
                    self.find(self.key_hash(&s.row), &s.row).map(|f| f.1),
                    Some(id)
                );
            }
        }
        for (&field, idx) in &self.indexes {
            let mut held: Vec<u32> = idx.values().flatten().copied().collect();
            held.sort_unstable_by_key(|&id| self.pos(id));
            let want: Vec<u32> = (0..self.slots.len())
                .filter(|&p| {
                    self.slots[p]
                        .as_ref()
                        .is_some_and(|s| s.row.cell(field).is_some())
                })
                .map(|p| self.head.wrapping_add(p as u32))
                .collect();
            assert_eq!(held, want, "index on field {field}");
        }
    }
}

/// The key index's hash of a row's key cells (or a probe's).
fn hash_cells<'a>(cells: impl Iterator<Item = Option<Cell<'a>>>) -> u32 {
    let mut h = FxHasher::default();
    for c in cells {
        c.hash(&mut h);
    }
    // Fx mixes upward: the high half is the well-spread one.
    (h.finish() >> 32) as u32
}

/// A secondary index's key for a cell: the number or flag itself, or a
/// hash of the text (collisions are filtered on read).
fn index_key(c: Cell<'_>) -> u64 {
    match c {
        Cell::Num(n) => n,
        Cell::Flag(b) => b as u64,
        Cell::Text(s) => {
            let mut h = FxHasher::default();
            s.hash(&mut h);
            h.finish()
        }
    }
}

/// Key → slot id: open addressing with linear probing, one `u64` per
/// bucket holding the key's hash tag (top bit set) over the slot id; 0
/// is an empty bucket. Deletion shifts the run behind it back, so there
/// are no tombstones, and the tag alone re-homes an entry, so neither
/// growth nor deletion reads a row.
#[derive(Debug, Clone, Default)]
struct KeyIndex {
    buckets: Vec<u64>,
    len: usize,
}

const OCCUPIED: u32 = 1 << 31;

impl KeyIndex {
    fn home(&self, tag: u32) -> usize {
        let bits = self.buckets.len().trailing_zeros();
        ((tag as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The bucket and slot id of the entry with `hash` that `is` accepts.
    fn find(&self, hash: u32, mut is: impl FnMut(u32) -> bool) -> Option<(usize, u32)> {
        if self.buckets.is_empty() {
            return None;
        }
        let tag = hash | OCCUPIED;
        let mask = self.buckets.len() - 1;
        let mut i = self.home(tag);
        loop {
            let b = self.buckets[i];
            if b == 0 {
                return None;
            }
            if (b >> 32) as u32 == tag && is(b as u32) {
                return Some((i, b as u32));
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, hash: u32, id: u32) {
        if (self.len + 1) * 8 > self.buckets.len() * 5 {
            let grown = vec![0; (self.buckets.len() * 2).max(16)];
            let old = std::mem::replace(&mut self.buckets, grown);
            self.len = 0;
            for b in old.into_iter().filter(|&b| b != 0) {
                self.place(b);
            }
        }
        self.place(((hash | OCCUPIED) as u64) << 32 | id as u64);
    }

    fn place(&mut self, entry: u64) {
        let mask = self.buckets.len() - 1;
        let mut i = self.home((entry >> 32) as u32);
        while self.buckets[i] != 0 {
            i = (i + 1) & mask;
        }
        self.buckets[i] = entry;
        self.len += 1;
    }

    /// Point the entry in `bucket` at a row's new slot.
    fn repoint(&mut self, bucket: usize, id: u32) {
        self.buckets[bucket] = self.buckets[bucket] & !(u32::MAX as u64) | id as u64;
    }

    fn remove(&mut self, hash: u32, id: u32) {
        if let Some((bucket, _)) = self.find(hash, |x| x == id) {
            self.remove_at(bucket);
        }
    }

    /// Empty `bucket`, moving back each follower whose home lies
    /// outside the gap's cyclic span.
    fn remove_at(&mut self, mut gap: usize) {
        let mask = self.buckets.len() - 1;
        self.buckets[gap] = 0;
        self.len -= 1;
        let mut j = gap;
        loop {
            j = (j + 1) & mask;
            let b = self.buckets[j];
            if b == 0 {
                return;
            }
            let home = self.home((b >> 32) as u32);
            let stays = if gap <= j {
                gap < home && home <= j
            } else {
                gap < home || home <= j
            };
            if !stays {
                self.buckets[gap] = b;
                self.buckets[j] = 0;
                gap = j;
            }
        }
    }

    fn clear(&mut self) {
        self.buckets.fill(0);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_index_survives_churn() {
        // Few distinct tags force long runs, wrap-around and back-shifts.
        let mut idx = KeyIndex::default();
        let mut live: Vec<(u32, u32)> = Vec::new();
        for id in 0..2_000u32 {
            let hash = id % 7;
            idx.insert(hash, id);
            live.push((hash, id));
            if id % 3 == 0 {
                let (h, gone) = live.remove((id as usize * 7) % live.len());
                idx.remove(h, gone);
            }
        }
        assert_eq!(idx.len, live.len());
        for &(h, id) in &live {
            assert_eq!(idx.find(h, |x| x == id).map(|f| f.1), Some(id), "{id} lost");
        }
        assert!(idx.find(3, |x| x == 5_000).is_none());
    }
}
