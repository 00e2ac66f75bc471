//! A trace table's rows as records (DESIGN.md §2.3).
//!
//! `ruleExec` and `tupleTable` hold most of a traced node's live rows,
//! and each is a bounded FIFO in practice: rows join at the back and
//! leave from the front by eviction or (for `ruleExec`) expiry. A
//! [`Ring`] stores them as compact records of the relation's own shape
//! in one slot array, in write order, with a compact key → slot index
//! beside it — no per-row tuple, key allocation, map entry or
//! expiry-queue entry. A record holds a row's addresses and labels as
//! `u32` entries of the ring's text dictionary ([`Texts`]), its IDs and
//! times as `u64`s, and its flag. A tuple is built only when something
//! reads the row.
//!
//! Slots are numbered by a `u32` id that grows by one per write; the
//! array's front slot has id `head`. A refreshed or replaced row moves
//! to a new slot at the back, and a deleted one leaves a hole; holes at
//! the front are dropped at once, and when holes exceed a quarter of
//! the live rows (plus 32) the array is compacted and both indexes are
//! rebuilt, so the array stays sized to its rows. With one lifetime and
//! a clock that only advances, write order is expiry order, so expiry
//! pops from the front; the table hands a ring whose clock runs
//! backwards over to general storage first ([`Ring::takes`]).

use crate::hash::{FxHashMap, FxHashSet, FxHasher};
use crate::table::{Book, InsertOutcome, Keyed, RowRef, TableSpec};
use p2_types::{
    Addr, Cell, RingId, Time, TimeDelta, TraceField, TraceKind, TraceRow, Tuple, Value,
};
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::num::NonZeroU32;
use std::sync::Arc;

/// An entry of a ring's [`Texts`]: never 0, so that a hole in the slot
/// array costs no extra word.
type Sym = NonZeroU32;

/// Where one field of a row sits in its record.
#[derive(Debug, Clone, Copy)]
struct Place {
    ty: TraceField,
    /// Its index among the record's texts (an address or a label) or
    /// numbers (an ID or a time).
    at: usize,
}

/// The places of `kind`'s fields, in field order, and how many texts
/// and numbers a record of it holds.
fn places(kind: TraceKind) -> (Vec<Place>, usize, usize) {
    let (mut texts, mut nums) = (0, 0);
    let places = kind.fields().iter().map(|&ty| {
        let count = match ty {
            TraceField::Addr | TraceField::Str => &mut texts,
            TraceField::Id | TraceField::Time => &mut nums,
            TraceField::Bool => return Place { ty, at: 0 },
        };
        *count += 1;
        Place { ty, at: *count - 1 }
    });
    (places.collect(), texts, nums)
}

/// One row: its `T` addresses and labels as dictionary entries, its `N`
/// IDs and times, and its flag (`tupleTable` has none and leaves it
/// unset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rec<const T: usize, const N: usize> {
    texts: [Sym; T],
    nums: [u64; N],
    flag: bool,
}

impl<const T: usize, const N: usize> Rec<T, N> {
    /// The field at `p` as a code: its dictionary entry, number or flag.
    /// Two rows' codes at one place are equal exactly when their values
    /// are, so codes key, index and compare rows.
    fn code(&self, p: Place) -> u64 {
        match p.ty {
            TraceField::Addr | TraceField::Str => u64::from(self.texts[p.at].get()),
            TraceField::Id | TraceField::Time => self.nums[p.at],
            TraceField::Bool => u64::from(self.flag),
        }
    }
}

/// One stored row with its validity bookkeeping.
#[derive(Debug, Clone)]
struct Slot<const T: usize, const N: usize> {
    rec: Rec<T, N>,
    /// Start of the row's validity interval (kept by a refresh).
    inserted_at: Time,
    /// The last write, insert or refresh: the lifetime counts from here.
    written_at: Time,
}

/// A ring's text dictionary: each address and label its live rows name,
/// stored once and counted by the fields that name it. The last of them
/// to go frees the entry for reuse, so the dictionary holds no more
/// texts than the live rows name, however many a program writes over
/// time. An entry has no type: a field's place says whether its text is
/// an address or a label.
#[derive(Debug, Clone, Default)]
struct Texts {
    /// Entry `sym - 1`: the text and its count, `None` while free.
    entries: Vec<Option<(Arc<str>, u32)>>,
    free: Vec<Sym>,
    by_text: FxHashMap<Arc<str>, Sym>,
}

impl Texts {
    fn find(&self, s: &str) -> Option<Sym> {
        self.by_text.get(s).copied()
    }

    fn text(&self, sym: Sym) -> Option<&Arc<str>> {
        let (text, _) = self.entries.get(sym.get() as usize - 1)?.as_ref()?;
        Some(text)
    }

    /// `s`'s entry, counted once more.
    fn intern(&mut self, s: &str) -> Sym {
        if let Some(sym) = self.find(s) {
            if let Some((_, n)) = &mut self.entries[sym.get() as usize - 1] {
                *n += 1;
            }
            return sym;
        }
        let text: Arc<str> = Arc::from(s);
        let entry = Some((text.clone(), 1));
        let sym = match self.free.pop() {
            Some(sym) => {
                self.entries[sym.get() as usize - 1] = entry;
                sym
            }
            None => {
                self.entries.push(entry);
                Sym::MIN.saturating_add(self.entries.len() as u32 - 1)
            }
        };
        self.by_text.insert(text, sym);
        sym
    }

    /// Count `sym` once less, freeing it with its last use.
    fn release(&mut self, sym: Sym) {
        let entry = &mut self.entries[sym.get() as usize - 1];
        if let Some((text, n)) = entry {
            *n -= 1;
            if *n == 0 {
                self.by_text.remove(&**text);
                *entry = None;
                self.free.push(sym);
            }
        }
    }
}

/// A ring's row, read in place ([`RowRef::Trace`]): a field is decoded
/// from the record and the ring's dictionary only when asked for.
#[derive(Debug, Clone, Copy)]
pub struct TraceRef<'a> {
    kind: TraceKind,
    places: &'a [Place],
    texts: &'a [Sym],
    nums: &'a [u64],
    flag: bool,
    dict: &'a Texts,
}

impl<'a> TraceRef<'a> {
    fn text(&self, p: Place) -> Option<&'a Arc<str>> {
        self.dict.text(self.texts[p.at])
    }

    fn cell(&self, i: usize) -> Option<Cell<'a>> {
        let p = *self.places.get(i)?;
        Some(match p.ty {
            TraceField::Addr | TraceField::Str => Cell::Text(self.text(p)?),
            TraceField::Id | TraceField::Time => Cell::Num(self.nums[p.at]),
            TraceField::Bool => Cell::Flag(self.flag),
        })
    }

    /// Field `i` as the value its tuple would hold.
    pub(crate) fn get(&self, i: usize) -> Option<Value> {
        let p = *self.places.get(i)?;
        Some(match p.ty {
            TraceField::Addr => Value::Addr(Addr::from(self.text(p)?.clone())),
            TraceField::Str => Value::Str(self.text(p)?.clone()),
            TraceField::Id => Value::Id(RingId(self.nums[p.at])),
            TraceField::Time => Value::Time(Time(self.nums[p.at])),
            TraceField::Bool => Value::Bool(self.flag),
        })
    }

    /// Whether field `i` equals `v` (under [`Value`]'s equality).
    pub(crate) fn field_is(&self, i: usize, v: &Value) -> bool {
        let probe = Cell::probe(self.kind, i, v);
        probe.is_some() && probe == self.cell(i)
    }

    fn to_tuple(self) -> Tuple {
        self.kind
            .tuple((0..self.places.len()).filter_map(|i| self.get(i)))
    }
}

/// The records of one trace table, in the layout of its kind.
#[derive(Debug, Clone)]
pub(crate) enum Ring {
    /// Location and rule; cause, effect, tIn and tOut; isEvent.
    RuleExec(Records<2, 4>),
    /// Location, source and destination; ID and source ID.
    TupleTable(Records<3, 2>),
}

const _: () = assert!(size_of::<Option<Slot<2, 4>>>() <= 64, "a ruleExec slot");
const _: () = assert!(size_of::<Option<Slot<3, 2>>>() <= 48, "a tupleTable slot");

impl Ring {
    /// An empty ring for `kind` rows under `spec`'s key, or `None` when
    /// the key names a field the relation does not have.
    pub(crate) fn new(spec: &TableSpec, kind: TraceKind) -> Option<Ring> {
        Some(match kind {
            TraceKind::RuleExec => Ring::RuleExec(Records::new(spec, kind)?),
            TraceKind::TupleTable => Ring::TupleTable(Records::new(spec, kind)?),
        })
    }
}

/// `impl Ring` methods that run on whichever kind's records it holds.
macro_rules! forward {
    () => {};
    ($(#[$m:meta])* fn $name:ident(&self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?; $($rest:tt)*) => {
        $(#[$m])*
        pub(crate) fn $name(&self $(, $arg: $ty)*) $(-> $ret)? {
            match self {
                Ring::RuleExec(r) => r.$name($($arg),*),
                Ring::TupleTable(r) => r.$name($($arg),*),
            }
        }
        forward!($($rest)*);
    };
    ($(#[$m:meta])* fn $name:ident(&mut self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?; $($rest:tt)*) => {
        $(#[$m])*
        pub(crate) fn $name(&mut self $(, $arg: $ty)*) $(-> $ret)? {
            match self {
                Ring::RuleExec(r) => r.$name($($arg),*),
                Ring::TupleTable(r) => r.$name($($arg),*),
            }
        }
        forward!($($rest)*);
    };
}

impl Ring {
    forward! {
        fn takes(&self, row: &TraceRow, now: Time, lifetime: Option<TimeDelta>) -> bool;
        fn len(&self) -> usize;
        fn approx_bytes(&self) -> usize;
        fn insert(&mut self, row: TraceRow, now: Time, max_rows: Option<usize>, book: &mut Book) -> InsertOutcome;
        fn expire(&mut self, now: Time, lifetime: Option<TimeDelta>, book: &mut Book) -> usize;
        fn delete_by_key(&mut self, key: &[Value], now: Time, book: &mut Book) -> Option<Tuple>;
        fn delete_where(&mut self, now: Time, pred: &mut dyn FnMut(RowRef<'_>) -> bool, book: &mut Book) -> usize;
        fn scan(&self) -> Vec<Tuple>;
        fn for_each(&self, visit: &mut dyn FnMut(RowRef<'_>));
        fn live_where(&self, keep: &mut dyn FnMut(RowRef<'_>, Time) -> bool) -> Vec<(Tuple, Time)>;
        fn linear_eq(&self, field: usize, value: &Value) -> Vec<Tuple>;
        fn has_index(&self, field: usize) -> bool;
        fn indexed_fields(&self) -> Vec<usize>;
        fn ensure_index(&mut self, field: usize);
        fn indexed_eq(&self, field: usize, value: &Value) -> Vec<Tuple>;
        fn clear(&mut self);
        fn to_keyed(&self, spec: &TableSpec) -> Keyed;
        #[cfg(test)]
        fn assert_sound(&self);
        #[cfg(test)]
        fn shape(&self) -> (usize, usize);
    }
}

/// The records of one trace table: `T` texts and `N` numbers a row.
#[derive(Debug, Clone)]
pub(crate) struct Records<const T: usize, const N: usize> {
    kind: TraceKind,
    places: Vec<Place>,
    key_fields: Vec<usize>,
    /// Write order; `None` is a hole left by a row that moved or left.
    /// The front slot is never a hole.
    slots: VecDeque<Option<Slot<T, N>>>,
    /// Id of `slots[0]`.
    head: u32,
    live: usize,
    /// The latest write instant.
    last_write: Time,
    keys: KeyIndex,
    /// Secondary indexes: field → code ([`Rec::code`]) → ids of the
    /// slots holding it.
    indexes: Indexes,
    texts: Texts,
}

type Indexes = HashMap<usize, FxHashMap<u64, FxHashSet<u32>>>;

impl<const T: usize, const N: usize> Records<T, N> {
    /// `None` when `spec`'s key names a field `kind` lacks, or `kind`'s
    /// rows are not `T` texts and `N` numbers.
    fn new(spec: &TableSpec, kind: TraceKind) -> Option<Self> {
        let (places, texts, nums) = places(kind);
        if (texts, nums) != (T, N) || spec.key_fields.iter().any(|&f| f >= places.len()) {
            return None;
        }
        Some(Records {
            kind,
            places,
            key_fields: spec.key_fields.clone(),
            slots: VecDeque::new(),
            head: 0,
            live: 0,
            last_write: Time::ZERO,
            keys: KeyIndex::default(),
            indexes: HashMap::new(),
            texts: Texts::default(),
        })
    }

    /// Whether writing `row` at `now` keeps the ring's invariants: the
    /// row is this relation's, and where rows expire the clock has not
    /// run backwards (which would break expiry order).
    fn takes(&self, row: &TraceRow, now: Time, lifetime: Option<TimeDelta>) -> bool {
        row.kind() == self.kind && (lifetime.is_none() || now >= self.last_write)
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Bytes the live records occupy in the slot array.
    fn approx_bytes(&self) -> usize {
        self.live * size_of::<Option<Slot<T, N>>>()
    }

    fn pos(&self, id: u32) -> usize {
        id.wrapping_sub(self.head) as usize
    }

    fn rec(&self, id: u32) -> Option<&Rec<T, N>> {
        self.slots.get(self.pos(id))?.as_ref().map(|s| &s.rec)
    }

    fn live_slots(&self) -> impl Iterator<Item = &Slot<T, N>> {
        self.slots.iter().flatten()
    }

    fn view<'a>(&'a self, rec: &'a Rec<T, N>) -> TraceRef<'a> {
        TraceRef {
            kind: self.kind,
            places: &self.places,
            texts: &rec.texts,
            nums: &rec.nums,
            flag: rec.flag,
            dict: &self.texts,
        }
    }

    /// `row` as a record, its texts entered in the dictionary (the
    /// caller has checked [`Records::takes`]).
    fn encode(&mut self, row: &TraceRow) -> Rec<T, N> {
        let mut rec = Rec {
            texts: [Sym::MIN; T],
            nums: [0; N],
            flag: false,
        };
        for (i, p) in self.places.iter().enumerate() {
            match row.cell(i) {
                Some(Cell::Text(s)) => rec.texts[p.at] = self.texts.intern(s),
                Some(Cell::Num(n)) => rec.nums[p.at] = n,
                Some(Cell::Flag(b)) => rec.flag = b,
                None => {}
            }
        }
        rec
    }

    /// Give back the dictionary entries a record held.
    fn release(&mut self, rec: &Rec<T, N>) {
        for sym in rec.texts {
            self.texts.release(sym);
        }
    }

    /// The code a field at `field` equal to `v` would hold — `None`
    /// when no stored value there can equal `v`.
    fn probe(&self, field: usize, v: &Value) -> Option<u64> {
        Some(match Cell::probe(self.kind, field, v)? {
            Cell::Text(s) => u64::from(self.texts.find(s)?.get()),
            Cell::Num(n) => n,
            Cell::Flag(b) => u64::from(b),
        })
    }

    fn key_hash(&self, rec: &Rec<T, N>) -> u32 {
        hash_codes(self.key_fields.iter().map(|&f| rec.code(self.places[f])))
    }

    /// The key index bucket and slot id of the row keyed like `rec`.
    fn find(&self, hash: u32, rec: &Rec<T, N>) -> Option<(usize, u32)> {
        let same_key = |id| {
            self.rec(id).is_some_and(|r| {
                self.key_fields.iter().all(|&f| {
                    let p = self.places[f];
                    r.code(p) == rec.code(p)
                })
            })
        };
        self.keys.find(hash, same_key)
    }

    /// Append a slot at the back (secondary indexes follow; the key
    /// index is the caller's).
    fn push(&mut self, slot: Slot<T, N>) -> u32 {
        let id = self.head.wrapping_add(self.slots.len() as u32);
        Self::index_add(&mut self.indexes, &self.places, id, &slot.rec);
        self.slots.push_back(Some(slot));
        self.live += 1;
        id
    }

    /// Enter slot `id`'s codes in every secondary index.
    fn index_add(indexes: &mut Indexes, places: &[Place], id: u32, rec: &Rec<T, N>) {
        for (&field, idx) in indexes.iter_mut() {
            if let Some(&p) = places.get(field) {
                idx.entry(rec.code(p)).or_default().insert(id);
            }
        }
    }

    /// Take live slot `id` out, leaving a hole (secondary indexes
    /// follow; the key index and the dictionary are the caller's).
    fn take(&mut self, id: u32) -> Option<Slot<T, N>> {
        let pos = self.pos(id);
        let slot = self.slots.get_mut(pos)?.take()?;
        self.live -= 1;
        for (&field, idx) in self.indexes.iter_mut() {
            let Some(&p) = self.places.get(field) else {
                continue;
            };
            let code = slot.rec.code(p);
            if let Some(bucket) = idx.get_mut(&code) {
                bucket.remove(&id);
                if bucket.is_empty() {
                    idx.remove(&code);
                }
            }
        }
        Some(slot)
    }

    /// Take live slot `id` out of the ring and both indexes.
    fn unlink(&mut self, id: u32) -> Option<Slot<T, N>> {
        let hash = self.key_hash(self.rec(id)?);
        self.keys.remove(hash, id);
        self.take(id)
    }

    /// Let a row that left go: spill it, dropped at `at`, and give back
    /// its dictionary entries.
    fn retire(&mut self, slot: &Slot<T, N>, at: Time, book: &mut Book) {
        book.spill(|| self.view(&slot.rec).to_tuple(), slot.inserted_at, at);
        self.release(&slot.rec);
    }

    /// Id of the oldest live slot, dropping holes ahead of it.
    fn front(&mut self) -> Option<u32> {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.head = self.head.wrapping_add(1);
        }
        self.slots.front().map(|_| self.head)
    }

    /// Whether `len` slots are within the capacity rule for `live`
    /// rows: holes at most a quarter of the live rows, plus 32.
    fn sized(len: usize, live: usize) -> bool {
        len <= live + live / 4 + 32
    }

    /// Restore the invariants after a mutation: no hole at the front,
    /// and the array sized to its rows ([`Records::sized`]; compaction
    /// renumbers the slots and rebuilds both indexes).
    fn tidy(&mut self) {
        self.front();
        if Self::sized(self.slots.len(), self.live) {
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
            self.keys.insert(self.key_hash(&slot.rec), id);
            Self::index_add(&mut self.indexes, &self.places, id, &slot.rec);
        }
    }

    /// Insert, replace or refresh `row` (the table has expired due rows
    /// and checked [`Records::takes`]). A new key in a full ring evicts
    /// the oldest rows first, as the general table does.
    fn insert(
        &mut self,
        row: TraceRow,
        now: Time,
        max_rows: Option<usize>,
        book: &mut Book,
    ) -> InsertOutcome {
        self.last_write = self.last_write.max(now);
        let rec = self.encode(&row);
        let hash = self.key_hash(&rec);
        let outcome = match self.find(hash, &rec) {
            Some((bucket, id)) => {
                let Some(old) = self.take(id) else {
                    self.release(&rec);
                    return InsertOutcome::Inserted; // the index names live slots only
                };
                let (slot, outcome) = if old.rec == rec {
                    self.release(&rec);
                    let slot = Slot {
                        written_at: now,
                        ..old
                    };
                    (slot, InsertOutcome::Refreshed)
                } else {
                    let old_tuple = self.view(&old.rec).to_tuple();
                    book.spill(|| old_tuple.clone(), old.inserted_at, now);
                    book.replacements += 1;
                    self.release(&old.rec);
                    let slot = Slot {
                        rec,
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
                    rec,
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
            self.retire(&slot, now, book);
        }
    }

    /// Drop the rows whose lifetime has elapsed by `now`, from the
    /// front; each spills with its deadline as drop time.
    fn expire(&mut self, now: Time, lifetime: Option<TimeDelta>, book: &mut Book) -> usize {
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
            self.retire(&slot, due, book);
            dropped += 1;
        }
        if dropped > 0 {
            self.tidy();
        }
        dropped
    }

    /// Remove the row keyed by `key` (the key fields' values, as
    /// [`TableSpec::key_of`] reads them from a tuple).
    fn delete_by_key(&mut self, key: &[Value], now: Time, book: &mut Book) -> Option<Tuple> {
        let codes: Vec<u64> = self
            .key_fields
            .iter()
            .zip(key)
            .map(|(&f, v)| self.probe(f, v))
            .collect::<Option<_>>()?;
        let same_key = |id| {
            self.rec(id).is_some_and(|r| {
                self.key_fields
                    .iter()
                    .zip(&codes)
                    .all(|(&f, &c)| r.code(self.places[f]) == c)
            })
        };
        let (bucket, id) = self
            .keys
            .find(hash_codes(codes.iter().copied()), same_key)?;
        self.keys.remove_at(bucket);
        let slot = self.take(id)?;
        book.deletions += 1;
        let tuple = self.view(&slot.rec).to_tuple();
        book.spill(|| tuple.clone(), slot.inserted_at, now);
        self.release(&slot.rec);
        self.tidy();
        Some(tuple)
    }

    /// Remove every row `pred` accepts, in write order.
    fn delete_where(
        &mut self,
        now: Time,
        pred: &mut dyn FnMut(RowRef<'_>) -> bool,
        book: &mut Book,
    ) -> usize {
        let mut removed = 0;
        for pos in 0..self.slots.len() {
            match &self.slots[pos] {
                Some(s) if pred(RowRef::Trace(self.view(&s.rec))) => {}
                _ => continue,
            }
            let Some(slot) = self.unlink(self.head.wrapping_add(pos as u32)) else {
                continue;
            };
            book.deletions += 1;
            self.retire(&slot, now, book);
            removed += 1;
        }
        if removed > 0 {
            self.tidy();
        }
        removed
    }

    /// Every live row as a tuple, in write order.
    fn scan(&self) -> Vec<Tuple> {
        self.live_slots()
            .map(|s| self.view(&s.rec).to_tuple())
            .collect()
    }

    fn for_each(&self, visit: &mut dyn FnMut(RowRef<'_>)) {
        for s in self.live_slots() {
            visit(RowRef::Trace(self.view(&s.rec)));
        }
    }

    /// The live rows `keep` accepts, with their insertion times, in
    /// write order; only those are built.
    fn live_where(&self, keep: &mut dyn FnMut(RowRef<'_>, Time) -> bool) -> Vec<(Tuple, Time)> {
        self.live_slots()
            .filter(|s| keep(RowRef::Trace(self.view(&s.rec)), s.inserted_at))
            .map(|s| (self.view(&s.rec).to_tuple(), s.inserted_at))
            .collect()
    }

    /// Rows whose `field` equals `value`, by a walk over every slot.
    fn linear_eq(&self, field: usize, value: &Value) -> Vec<Tuple> {
        let Some(code) = self.probe(field, value) else {
            return Vec::new();
        };
        let p = self.places[field];
        self.live_slots()
            .filter(|s| s.rec.code(p) == code)
            .map(|s| self.view(&s.rec).to_tuple())
            .collect()
    }

    fn has_index(&self, field: usize) -> bool {
        self.indexes.contains_key(&field)
    }

    fn indexed_fields(&self) -> Vec<usize> {
        self.indexes.keys().copied().collect()
    }

    /// Register a secondary index on `field`, built from the live rows.
    fn ensure_index(&mut self, field: usize) {
        if self.indexes.contains_key(&field) {
            return;
        }
        let mut idx: FxHashMap<u64, FxHashSet<u32>> = FxHashMap::default();
        if let Some(&p) = self.places.get(field) {
            for (pos, slot) in self.slots.iter().enumerate() {
                if let Some(s) = slot {
                    idx.entry(s.rec.code(p))
                        .or_default()
                        .insert(self.head.wrapping_add(pos as u32));
                }
            }
        }
        self.indexes.insert(field, idx);
    }

    /// Rows whose `field` equals `value`, from `field`'s index (which
    /// must exist), in write order: only the matching rows are touched.
    fn indexed_eq(&self, field: usize, value: &Value) -> Vec<Tuple> {
        let Some(code) = self.probe(field, value) else {
            return Vec::new();
        };
        let Some(ids) = self.indexes.get(&field).and_then(|i| i.get(&code)) else {
            return Vec::new();
        };
        let mut hits: Vec<usize> = ids.iter().map(|&id| self.pos(id)).collect();
        hits.sort_unstable();
        hits.into_iter()
            .filter_map(|p| self.slots[p].as_ref())
            .map(|s| self.view(&s.rec).to_tuple())
            .collect()
    }

    /// Drop every row; indexes stay registered, empty.
    fn clear(&mut self) {
        self.head = self.head.wrapping_add(self.slots.len() as u32);
        self.slots.clear();
        self.live = 0;
        self.keys.clear();
        for idx in self.indexes.values_mut() {
            idx.clear();
        }
        self.texts = Texts::default();
    }

    /// The same rows in general storage: same order, validity intervals,
    /// deadlines and indexed fields. A table hands its ring over when a
    /// write does not fit it ([`Records::takes`], or a tuple that is not
    /// a trace row of this relation).
    fn to_keyed(&self, spec: &TableSpec) -> Keyed {
        let mut keyed = Keyed::default();
        for field in self.indexes.keys() {
            keyed.ensure_index(*field);
        }
        for s in self.live_slots() {
            let expires_at = spec.lifetime.map(|l| s.written_at + l);
            keyed.adopt(
                spec,
                self.view(&s.rec).to_tuple(),
                s.inserted_at,
                expires_at,
            );
        }
        keyed
    }
}

#[cfg(test)]
impl<const T: usize, const N: usize> Records<T, N> {
    /// Panic unless the ring's invariants hold: no hole at the front,
    /// the array sized to its rows, one key entry per live row that
    /// finds it, each secondary index holding exactly the live rows'
    /// codes, and the dictionary holding exactly the texts the live rows
    /// name, each counted once per field naming it.
    fn assert_sound(&self) {
        assert!(
            !matches!(self.slots.front(), Some(None)),
            "hole at the front"
        );
        assert!(
            Self::sized(self.slots.len(), self.live),
            "holes beyond the capacity rule"
        );
        assert_eq!(self.live, self.live_slots().count());
        assert_eq!(self.keys.len, self.live, "one key entry per live row");
        for (pos, slot) in self.slots.iter().enumerate() {
            if let Some(s) = slot {
                let id = self.head.wrapping_add(pos as u32);
                assert_eq!(
                    self.find(self.key_hash(&s.rec), &s.rec).map(|f| f.1),
                    Some(id)
                );
            }
        }
        for (&field, idx) in &self.indexes {
            let mut held: Vec<(u64, u32)> = idx
                .iter()
                .flat_map(|(&code, ids)| ids.iter().map(move |&id| (code, id)))
                .collect();
            held.sort_unstable_by_key(|&(_, id)| self.pos(id));
            let want: Vec<(u64, u32)> = match self.places.get(field) {
                Some(&p) => (0..self.slots.len())
                    .filter_map(|pos| {
                        let s = self.slots[pos].as_ref()?;
                        Some((s.rec.code(p), self.head.wrapping_add(pos as u32)))
                    })
                    .collect(),
                None => Vec::new(),
            };
            assert_eq!(held, want, "index on field {field}");
        }
        let mut named: HashMap<Sym, u32> = HashMap::new();
        for s in self.live_slots() {
            for sym in s.rec.texts {
                *named.entry(sym).or_default() += 1;
            }
        }
        let held: HashMap<Sym, u32> = (self.texts.entries.iter().zip(1..))
            .filter_map(|(e, sym)| Some((Sym::new(sym)?, e.as_ref()?.1)))
            .collect();
        assert_eq!(held, named, "dictionary counts");
        assert_eq!(self.texts.by_text.len(), held.len());
        for (text, &sym) in &self.texts.by_text {
            assert_eq!(self.texts.text(sym), Some(text), "dictionary lookup");
        }
    }

    /// The slot array's capacity and the dictionary's entry count.
    fn shape(&self) -> (usize, usize) {
        (self.slots.capacity(), self.texts.by_text.len())
    }
}

/// The key index's hash of a row's key codes (or a probe's).
fn hash_codes(codes: impl Iterator<Item = u64>) -> u32 {
    let mut h = FxHasher::default();
    for c in codes {
        c.hash(&mut h);
    }
    // Fx mixes upward: the high half is the well-spread one.
    (h.finish() >> 32) as u32
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
