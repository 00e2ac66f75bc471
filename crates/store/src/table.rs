//! A single soft-state table.

use crate::archive::SpilledRow;
use crate::hash::{FxHashMap, FxHashSet};
use p2_types::{Time, TimeDelta, Tuple, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Declaration of a table — the runtime form of a `materialize` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// Relation name.
    pub name: String,
    /// Row lifetime; `None` means rows never expire.
    pub lifetime: Option<TimeDelta>,
    /// Maximum row count; `None` means unbounded.
    pub max_rows: Option<usize>,
    /// **0-based** primary-key field indexes (the parser's 1-based
    /// `keys(...)` are shifted by the planner).
    pub key_fields: Vec<usize>,
}

impl TableSpec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        lifetime: Option<TimeDelta>,
        max_rows: Option<usize>,
        key_fields: Vec<usize>,
    ) -> TableSpec {
        TableSpec {
            name: name.into(),
            lifetime,
            max_rows,
            key_fields,
        }
    }

    /// Extract the primary key of a tuple under this spec.
    ///
    /// Missing fields key as a distinguished empty marker rather than
    /// erroring: remote nodes may send short tuples and the table must
    /// stay robust (the row is still stored and retrievable).
    pub fn key_of(&self, t: &Tuple) -> Vec<Value> {
        self.key_fields
            .iter()
            .map(|&i| t.get(i).cloned().unwrap_or(Value::str("\u{0}missing")))
            .collect()
    }

    /// [`TableSpec::key_of`] as a shared slice. The store copies each
    /// key into the row map, the order queue, the expiry heap, and any
    /// secondary index bucket; sharing one allocation makes every copy
    /// after the first a refcount bump instead of a `Vec` clone. When
    /// the key covers every field in order — common for event-like and
    /// trace tables declared `keys(1, ..., n)` — the tuple's own value
    /// slice is shared and no allocation happens at all.
    pub fn key_arc(&self, t: &Tuple) -> Key {
        if self.key_fields.len() == t.arity()
            && self.key_fields.iter().enumerate().all(|(i, &f)| f == i)
        {
            return t.values_arc();
        }
        self.key_fields
            .iter()
            .map(|&i| t.get(i).cloned().unwrap_or(Value::str("\u{0}missing")))
            .collect()
    }
}

/// A primary key: the key fields of a tuple, shared across the store's
/// internal structures.
pub type Key = std::sync::Arc<[Value]>;

/// What an insert did, reported to the node runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertOutcome {
    /// A new row was added (evicting the oldest rows, into the spill
    /// buffer when archiving, if the table was at its size bound).
    Inserted,
    /// A row with the same primary key existed and was replaced.
    Replaced {
        /// The previous row.
        old: Tuple,
    },
    /// The identical tuple (same key, same content) was already present;
    /// its lifetime was refreshed but no delta event should fire.
    Refreshed,
}

#[derive(Debug, Clone)]
struct Row {
    tuple: Tuple,
    seq: u64,
    /// Start of the row's validity interval. A refresh keeps it (same
    /// content, one continuous interval); a replacement resets it.
    inserted_at: Time,
}

/// One pending-expiry entry: the row under `key` is due at `at` if it
/// still carries sequence number `seq`.
#[derive(Debug, Clone)]
struct Due {
    at: Time,
    seq: u64,
    key: Key,
}

p2_types::counters! {
    /// Probe-path counters, exposed through the `sysStat` introspection
    /// table so monitoring programs can query the query engine's own lookup
    /// behaviour (§2.2 of the paper).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ProbeStats {
        /// `scan_eq` calls answered from a secondary index.
        pub index_probes: u64 = "indexProbes",
        /// `scan_eq` calls that fell back to a linear filter.
        pub linear_probes: u64 = "linearProbes",
        /// Live rows examined across all probes.
        pub rows_scanned: u64 = "rowsScanned",
        /// Rows actually returned across all probes.
        pub rows_returned: u64 = "rowsReturned",
        /// Expiry-queue entries popped by `expire` (due or stale). An
        /// evicted row's entry is dropped by the eviction and not counted.
        pub heap_pops: u64 = "heapPops",
        /// Indexes created by the runtime fallback (vs. planner-registered).
        pub auto_indexes: u64 = "autoIndexes",
    }
}

/// Unindexed probes on one field before the runtime auto-creates an
/// index for it (the fallback that lets on-line-installed monitoring
/// queries benefit without a reinstall).
pub const DEFAULT_AUTO_INDEX_THRESHOLD: u32 = 16;

/// A soft-state table: primary-keyed rows with lifetime and size bounds.
///
/// All methods take `now` explicitly; the table never consults a clock of
/// its own, which is what lets the discrete-event simulator drive it on
/// virtual time (DESIGN.md §2.4).
///
/// Lookup structure (DESIGN.md §2.7): rows live in a primary-key map;
/// `order` is the deterministic scan order (insertion sequence); each
/// registered secondary index maps a field's value to the keys holding
/// it; the expiry queue orders pending lifetimes so `expire(now)`
/// touches only rows actually due. Stale entries in `order` and the
/// expiry queue are recognised by sequence number: every write stamps a
/// fresh `seq`, so an entry is current iff the live row's `seq` matches.
#[derive(Debug, Clone)]
pub struct Table {
    spec: TableSpec,
    rows: FxHashMap<Key, Row>,
    /// Keys in insertion order, with the sequence number they were
    /// enqueued under. Always seq-ascending; stale entries are skipped
    /// lazily and compacted when they dominate.
    order: VecDeque<(Key, u64)>,
    /// Secondary indexes: field position → value → keys of rows holding
    /// that value in that field. Maintained on every mutation.
    indexes: HashMap<usize, FxHashMap<Value, FxHashSet<Key>>>,
    /// Pending expirations, sorted by `(at, seq)` — see
    /// [`Table::enqueue`]. `expire` pops the front.
    expiry: VecDeque<Due>,
    next_seq: u64,
    /// Bumped on every mutation that can change what `scan`/`scan_eq`
    /// observe (insert, refresh, replace, evict, expire, delete, clear).
    /// A `(version, now)` pair therefore keys probe results exactly:
    /// same version and same probe time ⇒ bit-identical candidate set.
    version: u64,
    /// Archive enrollment (DESIGN.md §2.11): when set, every dropped
    /// row — expired, evicted, replaced, or deleted — lands in `spilled`
    /// with its validity interval instead of vanishing. The catalog
    /// drains the buffer into the archive tier.
    archive_enrolled: bool,
    spilled: Vec<SpilledRow>,
    /// `None` disables the runtime auto-index fallback.
    auto_index_threshold: Option<u32>,
    /// Unindexed-probe counts per field, driving the fallback.
    unindexed_probes: HashMap<usize, u32>,
    /// Monotonic counters for the introspection/metrics tables.
    inserts: u64,
    replacements: u64,
    evictions: u64,
    expirations: u64,
    deletions: u64,
    stats: ProbeStats,
}

impl Table {
    /// Create an empty table.
    pub fn new(spec: TableSpec) -> Table {
        Table {
            spec,
            rows: FxHashMap::default(),
            order: VecDeque::new(),
            indexes: HashMap::new(),
            expiry: VecDeque::new(),
            next_seq: 0,
            version: 0,
            archive_enrolled: false,
            spilled: Vec::new(),
            auto_index_threshold: Some(DEFAULT_AUTO_INDEX_THRESHOLD),
            unindexed_probes: HashMap::new(),
            inserts: 0,
            replacements: 0,
            evictions: 0,
            expirations: 0,
            deletions: 0,
            stats: ProbeStats::default(),
        }
    }

    /// The table's declaration.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// Mutation counter; see the field docs. Strand probe caches key
    /// their cached candidate sets on this.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Live row count (after expiring stale rows at `now`).
    pub fn len(&mut self, now: Time) -> usize {
        self.expire(now);
        self.rows.len()
    }

    /// Whether the table has no live rows.
    pub fn is_empty(&mut self, now: Time) -> bool {
        self.len(now) == 0
    }

    /// Row count without expiring first (used by metrics snapshots that
    /// must not mutate).
    pub fn raw_len(&self) -> usize {
        self.rows.len()
    }

    /// Approximate bytes held by live tuples (metrics).
    pub fn approx_bytes(&self) -> usize {
        self.rows.values().map(|r| r.tuple.approx_bytes()).sum()
    }

    /// Lifetime counters: (inserts, replacements, evictions, expirations,
    /// deletions).
    pub fn counters(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.inserts,
            self.replacements,
            self.evictions,
            self.expirations,
            self.deletions,
        )
    }

    /// Probe-path counters (index vs. linear probes, rows touched, heap
    /// activity).
    pub fn probe_stats(&self) -> ProbeStats {
        self.stats
    }

    /// Register a secondary index on `field`, building it from current
    /// rows. Idempotent.
    pub fn ensure_index(&mut self, field: usize) {
        if self.indexes.contains_key(&field) {
            return;
        }
        let mut idx: FxHashMap<Value, FxHashSet<Key>> = FxHashMap::default();
        for (key, row) in &self.rows {
            if let Some(v) = row.tuple.get(field) {
                idx.entry(v.clone()).or_default().insert(key.clone());
            }
        }
        self.indexes.insert(field, idx);
        self.unindexed_probes.remove(&field);
    }

    /// Fields with a secondary index, ascending.
    pub fn indexed_fields(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.indexes.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// Configure (or with `None`, disable) the auto-index fallback.
    pub fn set_auto_index_threshold(&mut self, threshold: Option<u32>) {
        self.auto_index_threshold = threshold;
    }

    /// Enroll (or withdraw) the table in the archive tier: dropped rows
    /// spill into a buffer instead of vanishing. `clear` is exempt —
    /// it is a test-reset, not part of an execution's history.
    pub fn set_archive_enrolled(&mut self, on: bool) {
        self.archive_enrolled = on;
        if !on {
            self.spilled = Vec::new();
        }
    }

    /// Whether dropped rows spill to the archive.
    pub fn archive_enrolled(&self) -> bool {
        self.archive_enrolled
    }

    /// Drain the spill buffer (rows in drop order, `dropped_at`
    /// non-decreasing — expiry pops ascend in due time and run before
    /// every same-instant mutation).
    pub fn take_spilled(&mut self) -> Vec<SpilledRow> {
        std::mem::take(&mut self.spilled)
    }

    /// The live rows `keep` accepts, with their insertion times, in
    /// insertion order: the live half of a history scan. Filtered in
    /// place — one visit per row, no hashing, only accepted rows cloned
    /// (an `Arc` bump each) — and only the hits sorted into sequence.
    pub fn live_where(
        &mut self,
        now: Time,
        mut keep: impl FnMut(&Tuple, Time) -> bool,
    ) -> Vec<(Tuple, Time)> {
        self.expire(now);
        let mut hits: Vec<&Row> = self
            .rows
            .values()
            .filter(|r| keep(&r.tuple, r.inserted_at))
            .collect();
        hits.sort_unstable_by_key(|r| r.seq);
        hits.into_iter()
            .map(|r| (r.tuple.clone(), r.inserted_at))
            .collect()
    }

    /// Snapshot live rows with their insertion times by walking the
    /// order queue — the pre-filter form of [`Table::live_where`], kept
    /// as its oracle.
    #[cfg(test)]
    pub(crate) fn scan_with_birth(&mut self, now: Time) -> Vec<(Tuple, Time)> {
        self.expire(now);
        let rows = &self.rows;
        self.order
            .iter()
            .filter(|(k, s)| rows.get(k).is_some_and(|r| r.seq == *s))
            .map(|(k, _)| (rows[k].tuple.clone(), rows[k].inserted_at))
            .collect()
    }

    fn index_add(
        indexes: &mut HashMap<usize, FxHashMap<Value, FxHashSet<Key>>>,
        key: &Key,
        tuple: &Tuple,
    ) {
        for (&field, idx) in indexes.iter_mut() {
            if let Some(v) = tuple.get(field) {
                idx.entry(v.clone()).or_default().insert(key.clone());
            }
        }
    }

    fn index_remove(
        indexes: &mut HashMap<usize, FxHashMap<Value, FxHashSet<Key>>>,
        key: &[Value],
        tuple: &Tuple,
    ) {
        for (&field, idx) in indexes.iter_mut() {
            if let Some(v) = tuple.get(field) {
                if let Some(bucket) = idx.get_mut(v) {
                    bucket.remove(key);
                    if bucket.is_empty() {
                        idx.remove(v);
                    }
                }
            }
        }
    }

    /// Drop rows whose lifetime has elapsed. Returns how many were
    /// dropped. Called lazily by every read and write; cost is
    /// O(due rows), not O(table), because the expiry queue is sorted by
    /// deadline.
    pub fn expire(&mut self, now: Time) -> usize {
        if self.spec.lifetime.is_none() {
            return 0;
        }
        let mut dropped = 0;
        while let Some(ent) = self.expiry.pop_front_if(|d| d.at <= now) {
            self.stats.heap_pops += 1;
            // Current iff the live row still carries this entry's seq; a
            // refresh/replace stamped a newer seq (and queued its own
            // entry), making this one stale.
            let Some((key, row)) = self.take_current(ent.key, ent.seq) else {
                continue;
            };
            Table::index_remove(&mut self.indexes, &key, &row.tuple);
            self.expirations += 1;
            dropped += 1;
            if self.archive_enrolled {
                // The drop time is the expiry *deadline*, not the
                // (read-pattern-dependent) observation time: archives
                // must be deterministic.
                self.spilled.push(SpilledRow {
                    tuple: row.tuple,
                    inserted_at: row.inserted_at,
                    dropped_at: ent.at,
                });
            }
        }
        if dropped > 0 {
            self.version += 1;
        }
        dropped
    }

    /// Whether a queue entry for `key` under `seq` is current.
    fn is_current(&self, key: &Key, seq: u64) -> bool {
        self.rows.get(key).is_some_and(|r| r.seq == seq)
    }

    /// Remove the row a queue entry names if the entry is current: one
    /// probe, `entry` finding the row and removing it in place. `entry`
    /// on a key that has left the map reserves room for an insert,
    /// though, and a map with none to spare would rehash — moving rows
    /// that `delete_where` visits in map order — so a map at capacity
    /// checks with `get` first, leaving its layout to the next insert
    /// exactly as a `get`-then-`remove` table would.
    fn take_current(&mut self, key: Key, seq: u64) -> Option<(Key, Row)> {
        if self.rows.len() == self.rows.capacity() && !self.is_current(&key, seq) {
            return None;
        }
        match self.rows.entry(key) {
            Entry::Occupied(e) if e.get().seq == seq => Some(e.remove_entry()),
            _ => None,
        }
    }

    /// Drop stale order-queue entries when they dominate, bounding the
    /// queue to O(live rows).
    fn compact_order(&mut self) {
        if self.order.len() > 16 && self.order.len() > 4 * self.rows.len() {
            let rows = &self.rows;
            self.order
                .retain(|(k, s)| rows.get(k).is_some_and(|r| r.seq == *s));
        }
    }

    /// Same bound for the expiry queue: long-lived rows that keep getting
    /// refreshed leave stale entries whose due time may be far off.
    fn compact_expiry(&mut self) {
        if self.expiry.len() > 16 && self.expiry.len() > 4 * self.rows.len() {
            let rows = &self.rows;
            self.expiry
                .retain(|d| rows.get(&d.key).is_some_and(|r| r.seq == d.seq));
        }
    }

    /// Queue a fresh write: at the back of `order`, and — when the row
    /// can expire — in `expiry` at its `(at, seq)` place. `seq` is the
    /// newest, so under a clock that only advances (one lifetime per
    /// table) that place is the back too; an earlier deadline, from a
    /// clock run backwards, is inserted in order, O(entries it passes).
    fn enqueue(&mut self, key: Key, seq: u64, expires_at: Option<Time>) {
        if let Some(at) = expires_at {
            let due = Due {
                at,
                seq,
                key: key.clone(),
            };
            if self.expiry.back().is_none_or(|b| b.at <= at) {
                self.expiry.push_back(due);
            } else {
                let i = self.expiry.partition_point(|d| d.at <= at);
                self.expiry.insert(i, due);
            }
        }
        self.order.push_back((key, seq));
    }

    /// Evict the oldest rows until at most `max` remain: pop order-queue
    /// entries, skipping stale ones (amortized O(1)), one probe each
    /// ([`Table::take_current`]). An evicted row moves into the spill
    /// buffer, and its expiry entry goes with it
    /// ([`Table::drop_evicted_due`]).
    fn evict_to(&mut self, max: usize, now: Time) {
        while self.rows.len() > max {
            let Some((k, s)) = self.order.pop_front() else {
                break; // only stale entries; cannot happen with rows live
            };
            let Some((k, r)) = self.take_current(k, s) else {
                continue;
            };
            Table::index_remove(&mut self.indexes, &k, &r.tuple);
            self.evictions += 1;
            self.drop_evicted_due(s);
            if self.archive_enrolled {
                self.spilled.push(SpilledRow {
                    tuple: r.tuple,
                    inserted_at: r.inserted_at,
                    dropped_at: now,
                });
            }
        }
    }

    /// Pop the evicted row's (sequence `seq`) expiry entry, and the
    /// stale entries ahead of it, off the expiry queue's front. With
    /// one lifetime and a clock that only advances, the oldest row's
    /// entry is the first current-looking one, so evicted rows leave
    /// nothing behind for `expire` or [`Table::compact_expiry`] to drain
    /// later; otherwise the walk stops at the first entry that can still
    /// fire and the evicted one stays, stale, as a replaced row's does.
    fn drop_evicted_due(&mut self, seq: u64) {
        while let Some(front) = self.expiry.front() {
            let evicted = front.seq == seq;
            if !evicted && self.is_current(&front.key, front.seq) {
                return;
            }
            self.expiry.pop_front();
            if evicted {
                return;
            }
        }
    }

    /// Insert (or replace, or refresh) a tuple. One hash probe per row
    /// (`entry`); a full table adds a presence probe and one probe per
    /// row it evicts. Key copies beyond the first are refcount bumps.
    pub fn insert(&mut self, tuple: Tuple, now: Time) -> InsertOutcome {
        self.expire(now);
        self.compact_order();
        self.compact_expiry();
        self.version += 1;
        if self.spec.max_rows == Some(0) {
            // Degenerate bound: nothing is ever stored.
            return InsertOutcome::Inserted;
        }
        let key = self.spec.key_arc(&tuple);
        let expires_at = self.spec.lifetime.map(|l| now + l);
        let seq = self.next_seq;
        self.next_seq += 1;

        // Only a new row grows the table, so a full table makes room for
        // one first (replacements and refreshes don't grow, hence the
        // presence check).
        if let Some(max) = self.spec.max_rows {
            if self.rows.len() >= max && !self.rows.contains_key(&key) {
                self.evict_to(max - 1, now);
            }
        }

        match self.rows.entry(key) {
            Entry::Occupied(mut e) => {
                let existing = e.get_mut();
                if existing.tuple == tuple {
                    existing.seq = seq;
                    let key = e.key().clone();
                    self.enqueue(key, seq, expires_at);
                    return InsertOutcome::Refreshed;
                }
                let new = tuple.clone(); // Arc-backed: no payload copy
                let old = std::mem::replace(
                    existing,
                    Row {
                        tuple,
                        seq,
                        inserted_at: now,
                    },
                );
                let key = e.key().clone();
                Table::index_remove(&mut self.indexes, &key, &old.tuple);
                if self.archive_enrolled {
                    // A replaced row is history: the old version's
                    // interval closes here, which is what lets forensic
                    // queries see every successive value a key held.
                    self.spilled.push(SpilledRow {
                        tuple: old.tuple.clone(),
                        inserted_at: old.inserted_at,
                        dropped_at: now,
                    });
                }
                let old = old.tuple;
                Table::index_add(&mut self.indexes, &key, &new);
                self.enqueue(key, seq, expires_at);
                self.replacements += 1;
                InsertOutcome::Replaced { old }
            }
            Entry::Vacant(v) => {
                let key = v.key().clone();
                Table::index_add(&mut self.indexes, &key, &tuple);
                v.insert(Row {
                    tuple,
                    seq,
                    inserted_at: now,
                });
                self.enqueue(key, seq, expires_at);
                self.inserts += 1;
                InsertOutcome::Inserted
            }
        }
    }

    /// Remove the row whose primary key matches `tuple`'s. Returns the
    /// removed row, if any. This is the executor for `delete` rules
    /// (paper rules `cs10`/`cs11`).
    pub fn delete_by_key(&mut self, tuple: &Tuple, now: Time) -> Option<Tuple> {
        self.expire(now);
        let key = self.spec.key_of(tuple);
        let removed = self.rows.remove(&key[..]);
        if let Some(r) = removed {
            Table::index_remove(&mut self.indexes, &key, &r.tuple);
            self.deletions += 1;
            self.version += 1;
            if self.archive_enrolled {
                self.spilled.push(SpilledRow {
                    tuple: r.tuple.clone(),
                    inserted_at: r.inserted_at,
                    dropped_at: now,
                });
            }
            return Some(r.tuple);
        }
        None
    }

    /// Remove rows matching a predicate. Returns them. Used by the
    /// reference-counted `tupleTable` flush (§2.1.3). Single pass: rows
    /// are extracted as they match, and each removed row's own key (no
    /// clone) drives index maintenance.
    pub fn delete_where<F: FnMut(&Tuple) -> bool>(&mut self, now: Time, mut pred: F) -> Vec<Tuple> {
        self.expire(now);
        let mut out = Vec::new();
        for (key, row) in self.rows.extract_if(|_, r| pred(&r.tuple)) {
            Table::index_remove(&mut self.indexes, &key, &row.tuple);
            self.deletions += 1;
            if self.archive_enrolled {
                self.spilled.push(SpilledRow {
                    tuple: row.tuple.clone(),
                    inserted_at: row.inserted_at,
                    dropped_at: now,
                });
            }
            out.push(row.tuple);
        }
        if !out.is_empty() {
            self.version += 1;
        }
        out
    }

    /// Fetch the row with exactly this key.
    pub fn get_by_key(&mut self, key: &[Value], now: Time) -> Option<&Tuple> {
        self.expire(now);
        self.rows.get(key).map(|r| &r.tuple)
    }

    /// Snapshot all live rows (deterministic order: insertion sequence).
    ///
    /// The order queue is seq-ascending by construction, so no sort is
    /// needed: walk it, skip stale entries, clone the `Arc`-backed
    /// tuples.
    pub fn scan(&mut self, now: Time) -> Vec<Tuple> {
        self.expire(now);
        let rows = &self.rows;
        self.order
            .iter()
            .filter(|(k, s)| rows.get(k).is_some_and(|r| r.seq == *s))
            .map(|(k, _)| rows[k].tuple.clone())
            .collect()
    }

    /// Visit every live row by reference, in no particular order: for
    /// callers that fold over a table (the tracer's §2.1.3 sweep reads
    /// two ids per `ruleExec` row) and need neither [`Table::scan`]'s
    /// snapshot nor its insertion order.
    pub fn for_each_live(&mut self, now: Time, mut visit: impl FnMut(&Tuple)) {
        self.expire(now);
        for row in self.rows.values() {
            visit(&row.tuple);
        }
    }

    /// Snapshot rows where field `field` equals `value` — the probe side
    /// of a join. Deterministic order as in [`Table::scan`].
    ///
    /// With a secondary index on `field` this touches only matching rows
    /// (`rows_scanned == rows_returned`); otherwise it filters linearly
    /// and, after [`DEFAULT_AUTO_INDEX_THRESHOLD`] unindexed probes of
    /// the same field, creates the index on the fly.
    pub fn scan_eq(&mut self, field: usize, value: &Value, now: Time) -> Vec<Tuple> {
        self.expire(now);
        if !self.indexes.contains_key(&field) {
            if let Some(threshold) = self.auto_index_threshold {
                let n = self.unindexed_probes.entry(field).or_insert(0);
                *n += 1;
                if *n >= threshold {
                    self.ensure_index(field);
                    self.stats.auto_indexes += 1;
                }
            }
        }
        if let Some(idx) = self.indexes.get(&field) {
            self.stats.index_probes += 1;
            let mut hits: Vec<(u64, &Tuple)> = idx
                .get(value)
                .into_iter()
                .flatten()
                .filter_map(|k| self.rows.get(k))
                .map(|r| (r.seq, &r.tuple))
                .collect();
            hits.sort_unstable_by_key(|(seq, _)| *seq);
            self.stats.rows_scanned += hits.len() as u64;
            self.stats.rows_returned += hits.len() as u64;
            hits.into_iter().map(|(_, t)| t.clone()).collect()
        } else {
            self.stats.linear_probes += 1;
            self.stats.rows_scanned += self.rows.len() as u64;
            let rows = &self.rows;
            let out: Vec<Tuple> = self
                .order
                .iter()
                .filter(|(k, s)| {
                    rows.get(k)
                        .is_some_and(|r| r.seq == *s && r.tuple.get(field) == Some(value))
                })
                .map(|(k, _)| rows[k].tuple.clone())
                .collect();
            self.stats.rows_returned += out.len() as u64;
            out
        }
    }

    /// The pre-index linear probe, kept as the oracle for the
    /// equivalence proptests: filter every live row, sort by insertion
    /// sequence.
    /// Bypasses indexes, probe counters, and the auto-index fallback.
    pub fn scan_eq_linear(&mut self, field: usize, value: &Value, now: Time) -> Vec<Tuple> {
        self.expire(now);
        let mut rows: Vec<&Row> = self
            .rows
            .values()
            .filter(|r| r.tuple.get(field) == Some(value))
            .collect();
        rows.sort_by_key(|r| r.seq);
        rows.into_iter().map(|r| r.tuple.clone()).collect()
    }

    /// Remove every row (used by snapshot resets in tests). Indexes stay
    /// registered but empty.
    pub fn clear(&mut self) {
        self.version += 1;
        self.rows.clear();
        self.order.clear();
        self.expiry.clear();
        for idx in self.indexes.values_mut() {
            idx.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(life: Option<u64>, max: Option<usize>, keys: Vec<usize>) -> TableSpec {
        TableSpec::new("t", life.map(TimeDelta::from_secs), max, keys)
    }

    fn tup(a: &str, b: i64) -> Tuple {
        Tuple::new("t", [Value::addr(a), Value::Int(b)])
    }

    #[test]
    fn insert_and_scan() {
        let mut t = Table::new(spec(None, None, vec![0, 1]));
        assert_eq!(t.insert(tup("n1", 1), Time::ZERO), InsertOutcome::Inserted);
        t.insert(tup("n1", 2), Time::ZERO);
        assert_eq!(t.len(Time::ZERO), 2);
        let rows = t.scan(Time::ZERO);
        assert_eq!(rows, vec![tup("n1", 1), tup("n1", 2)]);
    }

    #[test]
    fn primary_key_replacement() {
        // Key on field 0 only: second insert with same addr replaces.
        let mut t = Table::new(spec(None, None, vec![0]));
        t.insert(tup("n1", 1), Time::ZERO);
        let out = t.insert(tup("n1", 2), Time::ZERO);
        assert_eq!(out, InsertOutcome::Replaced { old: tup("n1", 1) });
        assert_eq!(t.scan(Time::ZERO), vec![tup("n1", 2)]);
    }

    #[test]
    fn identical_reinsert_refreshes() {
        let mut t = Table::new(spec(Some(10), None, vec![0]));
        t.insert(tup("n1", 1), Time::ZERO);
        // Re-insert at t=8 refreshes: row must survive past t=10.
        assert_eq!(
            t.insert(tup("n1", 1), Time::from_secs(8)),
            InsertOutcome::Refreshed
        );
        assert_eq!(t.len(Time::from_secs(15)), 1);
        assert_eq!(t.len(Time::from_secs(19)), 0);
    }

    #[test]
    fn lifetime_expiry() {
        let mut t = Table::new(spec(Some(100), None, vec![0]));
        t.insert(tup("n1", 1), Time::ZERO);
        t.insert(tup("n2", 2), Time::from_secs(50));
        assert_eq!(t.len(Time::from_secs(99)), 2);
        assert_eq!(t.len(Time::from_secs(100)), 1); // first expired at exactly 100
        assert_eq!(t.scan(Time::from_secs(100)), vec![tup("n2", 2)]);
        assert_eq!(t.len(Time::from_secs(151)), 0);
        assert_eq!(t.counters().3, 2); // expirations
    }

    /// The rows an archiving table has dropped, as tuples.
    fn spilled_tuples(t: &mut Table) -> Vec<Tuple> {
        t.take_spilled().into_iter().map(|r| r.tuple).collect()
    }

    #[test]
    fn size_bound_evicts_oldest() {
        let mut t = Table::new(spec(Some(10), Some(3), vec![0]));
        t.set_archive_enrolled(true);
        for (i, n) in ["a", "b", "c"].iter().enumerate() {
            t.insert(tup(n, i as i64), Time::ZERO);
        }
        assert_eq!(t.insert(tup("d", 3), Time::ZERO), InsertOutcome::Inserted);
        assert_eq!(spilled_tuples(&mut t), vec![tup("a", 0)]);
        assert_eq!(t.counters().2, 1); // evictions
        assert_eq!(t.len(Time::ZERO), 3);
        assert!(t.scan(Time::ZERO).contains(&tup("d", 3)));
        assert!(!t.scan(Time::ZERO).contains(&tup("a", 0)));
        // The evicted row's expiry entry left with it: at its deadline
        // only the three live rows' entries pop.
        assert_eq!(t.expiry.len(), 3);
        assert_eq!(t.len(Time::from_secs(10)), 0);
        assert_eq!(t.probe_stats().heap_pops, 3);
    }

    #[test]
    fn replacement_does_not_evict() {
        let mut t = Table::new(spec(None, Some(2), vec![0]));
        t.insert(tup("a", 0), Time::ZERO);
        t.insert(tup("b", 1), Time::ZERO);
        // Replacing "a" must not evict "b".
        t.insert(tup("a", 9), Time::ZERO);
        let rows = t.scan(Time::ZERO);
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&tup("a", 9)));
        assert!(rows.contains(&tup("b", 1)));
    }

    #[test]
    fn refresh_moves_row_to_back_of_eviction_order() {
        // Soft state that keeps getting re-asserted should be the last
        // to go when the table is full.
        let mut t = Table::new(spec(None, Some(3), vec![0]));
        t.set_archive_enrolled(true);
        t.insert(tup("a", 0), Time::ZERO);
        t.insert(tup("b", 1), Time::ZERO);
        t.insert(tup("c", 2), Time::ZERO);
        // Refresh "a": it is now the most recently written.
        assert_eq!(t.insert(tup("a", 0), Time::ZERO), InsertOutcome::Refreshed);
        // Inserting "d" evicts the least recently written — "b".
        assert_eq!(t.insert(tup("d", 3), Time::ZERO), InsertOutcome::Inserted);
        assert_eq!(spilled_tuples(&mut t), vec![tup("b", 1)]);
        assert!(t.scan(Time::ZERO).contains(&tup("a", 0)));
    }

    #[test]
    fn eviction_skips_stale_order_entries() {
        // Replacements and deletions leave stale queue entries behind;
        // eviction must skip them rather than double-evict.
        let mut t = Table::new(spec(None, Some(2), vec![0]));
        t.insert(tup("a", 0), Time::ZERO);
        t.insert(tup("a", 1), Time::ZERO); // replace: stale entry for seq 0
        t.insert(tup("b", 2), Time::ZERO);
        t.delete_by_key(&tup("b", 0), Time::ZERO); // stale entry for b
        t.insert(tup("c", 3), Time::ZERO);
        t.insert(tup("d", 4), Time::ZERO); // evicts exactly one: "a"
        let rows = t.scan(Time::ZERO);
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&tup("c", 3)));
        assert!(rows.contains(&tup("d", 4)));
    }

    #[test]
    fn delete_by_key() {
        let mut t = Table::new(spec(None, None, vec![0]));
        t.insert(tup("a", 0), Time::ZERO);
        // Deleting matches on the key fields only; other fields may differ.
        let removed = t.delete_by_key(&tup("a", 999), Time::ZERO);
        assert_eq!(removed, Some(tup("a", 0)));
        assert_eq!(t.len(Time::ZERO), 0);
        assert_eq!(t.delete_by_key(&tup("a", 0), Time::ZERO), None);
    }

    #[test]
    fn delete_where() {
        let mut t = Table::new(spec(None, None, vec![0, 1]));
        for i in 0..5 {
            t.insert(tup("a", i), Time::ZERO);
        }
        let removed = t.delete_where(
            Time::ZERO,
            |x| matches!(x.get(1), Some(Value::Int(n)) if *n % 2 == 0),
        );
        assert_eq!(removed.len(), 3);
        assert_eq!(t.len(Time::ZERO), 2);
    }

    #[test]
    fn scan_eq_filters() {
        let mut t = Table::new(spec(None, None, vec![0, 1]));
        t.insert(tup("a", 1), Time::ZERO);
        t.insert(tup("b", 1), Time::ZERO);
        t.insert(tup("a", 2), Time::ZERO);
        let hits = t.scan_eq(0, &Value::addr("a"), Time::ZERO);
        assert_eq!(hits.len(), 2);
        let hits = t.scan_eq(1, &Value::Int(1), Time::ZERO);
        assert_eq!(hits.len(), 2);
        let hits = t.scan_eq(1, &Value::Int(99), Time::ZERO);
        assert!(hits.is_empty());
    }

    #[test]
    fn get_by_key() {
        let mut t = Table::new(spec(None, None, vec![0]));
        t.insert(tup("a", 1), Time::ZERO);
        let key = vec![Value::addr("a")];
        assert_eq!(t.get_by_key(&key, Time::ZERO), Some(&tup("a", 1)));
        assert_eq!(t.get_by_key(&[Value::addr("zz")], Time::ZERO), None);
    }

    #[test]
    fn short_tuple_keys_robustly() {
        // A remote node sends a tuple shorter than the key spec: must not
        // panic, row must be stored and retrievable.
        let mut t = Table::new(spec(None, None, vec![0, 5]));
        let short = Tuple::new("t", [Value::addr("a")]);
        t.insert(short.clone(), Time::ZERO);
        assert_eq!(t.scan(Time::ZERO), vec![short]);
    }

    #[test]
    fn zero_capacity_table_stores_nothing() {
        let mut t = Table::new(spec(None, Some(0), vec![0]));
        t.insert(tup("a", 1), Time::ZERO);
        assert_eq!(t.len(Time::ZERO), 0);
    }

    // ---- secondary indexes & expiry heap -------------------------------

    #[test]
    fn indexed_probe_touches_only_matching_rows() {
        let mut t = Table::new(spec(None, None, vec![0, 1]));
        t.ensure_index(0);
        for i in 0..100 {
            t.insert(tup(&format!("n{}", i % 10), i), Time::ZERO);
        }
        let hits = t.scan_eq(0, &Value::addr("n3"), Time::ZERO);
        assert_eq!(hits.len(), 10);
        let s = t.probe_stats();
        assert_eq!(s.index_probes, 1);
        assert_eq!(s.linear_probes, 0);
        // The indexed path never examines a non-matching row.
        assert_eq!(s.rows_scanned, s.rows_returned);
        assert_eq!(s.rows_returned, 10);
    }

    #[test]
    fn indexed_probe_preserves_insertion_order() {
        let mut t = Table::new(spec(None, None, vec![0, 1]));
        t.ensure_index(0);
        for i in 0..20 {
            t.insert(tup("a", 19 - i), Time::ZERO);
        }
        let hits = t.scan_eq(0, &Value::addr("a"), Time::ZERO);
        let want: Vec<Tuple> = (0..20).map(|i| tup("a", 19 - i)).collect();
        assert_eq!(hits, want);
    }

    #[test]
    fn ensure_index_backfills_existing_rows() {
        let mut t = Table::new(spec(None, None, vec![0, 1]));
        for i in 0..10 {
            t.insert(tup(&format!("n{}", i % 2), i), Time::ZERO);
        }
        t.ensure_index(0);
        t.ensure_index(0); // idempotent
        assert_eq!(t.indexed_fields(), vec![0]);
        assert_eq!(t.scan_eq(0, &Value::addr("n1"), Time::ZERO).len(), 5);
        assert_eq!(t.probe_stats().linear_probes, 0);
    }

    #[test]
    fn auto_index_after_threshold() {
        let mut t = Table::new(spec(None, None, vec![0, 1]));
        t.set_auto_index_threshold(Some(3));
        for i in 0..10 {
            t.insert(tup(&format!("n{i}"), i), Time::ZERO);
        }
        t.scan_eq(1, &Value::Int(4), Time::ZERO);
        t.scan_eq(1, &Value::Int(4), Time::ZERO);
        assert!(t.indexed_fields().is_empty());
        assert_eq!(t.probe_stats().linear_probes, 2);
        // Third unindexed probe of the same field crosses the threshold.
        t.scan_eq(1, &Value::Int(4), Time::ZERO);
        assert_eq!(t.indexed_fields(), vec![1]);
        let s = t.probe_stats();
        assert_eq!(s.auto_indexes, 1);
        assert_eq!(s.index_probes, 1);
    }

    #[test]
    fn auto_index_disabled_stays_linear() {
        let mut t = Table::new(spec(None, None, vec![0, 1]));
        t.set_auto_index_threshold(None);
        t.insert(tup("a", 1), Time::ZERO);
        for _ in 0..100 {
            t.scan_eq(1, &Value::Int(1), Time::ZERO);
        }
        assert!(t.indexed_fields().is_empty());
        assert_eq!(t.probe_stats().linear_probes, 100);
    }

    #[test]
    fn index_tracks_replace_delete_and_eviction() {
        let mut t = Table::new(spec(None, Some(2), vec![0]));
        t.ensure_index(1);
        t.insert(tup("a", 1), Time::ZERO);
        t.insert(tup("a", 2), Time::ZERO); // replace: 1 leaves the index
        assert!(t.scan_eq(1, &Value::Int(1), Time::ZERO).is_empty());
        assert_eq!(t.scan_eq(1, &Value::Int(2), Time::ZERO), vec![tup("a", 2)]);
        t.insert(tup("b", 3), Time::ZERO);
        t.insert(tup("c", 4), Time::ZERO); // evicts "a"
        assert!(t.scan_eq(1, &Value::Int(2), Time::ZERO).is_empty());
        t.delete_by_key(&tup("b", 0), Time::ZERO);
        assert!(t.scan_eq(1, &Value::Int(3), Time::ZERO).is_empty());
        t.delete_where(Time::ZERO, |x| x.get(1) == Some(&Value::Int(4)));
        assert!(t.scan_eq(1, &Value::Int(4), Time::ZERO).is_empty());
        assert_eq!(t.len(Time::ZERO), 0);
    }

    #[test]
    fn index_tracks_expiry() {
        let mut t = Table::new(spec(Some(10), None, vec![0]));
        t.ensure_index(1);
        t.insert(tup("a", 1), Time::ZERO);
        t.insert(tup("b", 1), Time::from_secs(5));
        assert_eq!(t.scan_eq(1, &Value::Int(1), Time::from_secs(9)).len(), 2);
        assert_eq!(
            t.scan_eq(1, &Value::Int(1), Time::from_secs(12)),
            vec![tup("b", 1)]
        );
        assert!(t.scan_eq(1, &Value::Int(1), Time::from_secs(20)).is_empty());
    }

    #[test]
    fn expiry_heap_pops_only_due_entries() {
        let mut t = Table::new(spec(Some(10), None, vec![0]));
        t.insert(tup("a", 1), Time::ZERO); // due at 10
        t.insert(tup("b", 2), Time::from_secs(3)); // due at 13
                                                   // Nothing due yet: no pops.
        assert_eq!(t.len(Time::from_secs(5)), 2);
        assert_eq!(t.probe_stats().heap_pops, 0);
        // Only "a" is due at t=11; exactly one entry pops.
        assert_eq!(t.len(Time::from_secs(11)), 1);
        assert_eq!(t.probe_stats().heap_pops, 1);
        assert_eq!(t.counters().3, 1); // expirations
    }

    #[test]
    fn refresh_invalidates_old_heap_entry() {
        let mut t = Table::new(spec(Some(10), None, vec![0]));
        t.insert(tup("a", 1), Time::ZERO);
        t.insert(tup("a", 1), Time::from_secs(8)); // refresh: new deadline 18
                                                   // The seq-stale entry for deadline 10 pops without dropping the row.
        assert_eq!(t.len(Time::from_secs(12)), 1);
        assert_eq!(t.counters().3, 0);
        assert_eq!(t.len(Time::from_secs(18)), 0);
    }

    #[test]
    fn clear_keeps_indexes_registered() {
        let mut t = Table::new(spec(None, None, vec![0, 1]));
        t.ensure_index(0);
        t.insert(tup("a", 1), Time::ZERO);
        t.clear();
        assert_eq!(t.indexed_fields(), vec![0]);
        assert!(t.scan_eq(0, &Value::addr("a"), Time::ZERO).is_empty());
        t.insert(tup("a", 2), Time::ZERO);
        assert_eq!(
            t.scan_eq(0, &Value::addr("a"), Time::ZERO),
            vec![tup("a", 2)]
        );
        assert_eq!(t.probe_stats().linear_probes, 0);
    }

    #[test]
    fn version_tracks_every_observable_mutation() {
        let mut t = Table::new(spec(Some(10), Some(4), vec![0]));
        let v0 = t.version();
        t.insert(tup("a", 1), Time::ZERO);
        let v1 = t.version();
        assert!(v1 > v0, "insert must bump");
        t.insert(tup("a", 1), Time::ZERO);
        let v2 = t.version();
        assert!(v2 > v1, "refresh changes scan order and must bump");
        t.insert(tup("a", 2), Time::ZERO);
        assert!(t.version() > v2, "replace must bump");
        let v3 = t.version();
        t.delete_by_key(&tup("zz", 0), Time::ZERO);
        assert_eq!(t.version(), v3, "no-op delete must not bump");
        t.delete_by_key(&tup("a", 0), Time::ZERO);
        assert!(t.version() > v3, "delete must bump");
        let v4 = t.version();
        t.insert(tup("b", 1), Time::from_secs(1));
        let v5 = t.version();
        assert!(v5 > v4);
        // Expiry (row due at t=11) bumps even through a read.
        t.scan(Time::from_secs(20));
        assert!(t.version() > v5, "expiry must bump");
    }

    proptest! {
        /// The size bound is a hard invariant under arbitrary inserts.
        #[test]
        fn prop_size_bound(ops in proptest::collection::vec((0u8..50, 0i64..10), 1..200)) {
            let mut t = Table::new(spec(None, Some(5), vec![0, 1]));
            for (i, (a, b)) in ops.into_iter().enumerate() {
                t.insert(tup(&format!("n{a}"), b), Time::from_secs(i as u64));
                prop_assert!(t.raw_len() <= 5);
            }
        }

        /// Keys are unique: scanning never yields two rows with the same
        /// primary key.
        #[test]
        fn prop_key_unique(ops in proptest::collection::vec((0u8..10, 0i64..100), 1..100)) {
            let mut t = Table::new(spec(None, None, vec![0]));
            for (a, b) in ops {
                t.insert(tup(&format!("n{a}"), b), Time::ZERO);
            }
            let rows = t.scan(Time::ZERO);
            let mut keys: Vec<_> = rows.iter().map(|r| r.get(0).cloned()).collect();
            keys.sort();
            keys.dedup();
            prop_assert_eq!(keys.len(), rows.len());
        }

        /// After expiry at time T, no row older than T-lifetime survives.
        #[test]
        fn prop_expiry(times in proptest::collection::vec(0u64..100, 1..50)) {
            let mut t = Table::new(spec(Some(10), None, vec![0, 1]));
            for (i, at) in times.iter().enumerate() {
                t.insert(tup(&format!("n{i}"), i as i64), Time::from_secs(*at));
            }
            let horizon = Time::from_secs(200);
            prop_assert_eq!(t.len(horizon), 0);
        }

        /// Equivalence: under random insert/refresh/replace/delete/expire
        /// interleavings (with eviction and an auto-index flipping on
        /// mid-run), indexed `scan_eq` returns exactly the same tuples in
        /// the same deterministic order as the linear oracle.
        #[test]
        fn prop_indexed_scan_matches_linear_oracle(
            ops in proptest::collection::vec(
                (0u8..10, 0u8..6, 0i64..4, 0i64..3, 0u64..5),
                1..120,
            ),
        ) {
            let tup3 = |a: u8, b: i64, c: i64| {
                Tuple::new("t", [Value::addr(format!("n{a}")), Value::Int(b), Value::Int(c)])
            };
            // `t` uses the real probe path: field 1 indexed up front (the
            // planner case), field 2 auto-indexed after 3 probes (the
            // runtime-fallback case). `m` mirrors every mutation but is
            // only read through the linear oracle.
            let mut t = Table::new(spec(Some(10), Some(4), vec![0]));
            t.ensure_index(1);
            t.set_auto_index_threshold(Some(3));
            let mut m = Table::new(spec(Some(10), Some(4), vec![0]));
            m.set_auto_index_threshold(None);

            let mut now = Time::ZERO;
            for (sel, a, b, c, dt) in ops {
                now += TimeDelta::from_secs(dt);
                match sel {
                    0..=5 => {
                        t.insert(tup3(a, b, c), now);
                        m.insert(tup3(a, b, c), now);
                    }
                    6 | 7 => {
                        t.delete_by_key(&tup3(a, 0, 0), now);
                        m.delete_by_key(&tup3(a, 0, 0), now);
                    }
                    8 => {
                        let p = |x: &Tuple| x.get(2) == Some(&Value::Int(c));
                        t.delete_where(now, p);
                        m.delete_where(now, p);
                    }
                    _ => {} // pure time advance
                }
                prop_assert_eq!(
                    t.scan_eq(1, &Value::Int(b), now),
                    m.scan_eq_linear(1, &Value::Int(b), now)
                );
                prop_assert_eq!(
                    t.scan_eq(2, &Value::Int(c), now),
                    m.scan_eq_linear(2, &Value::Int(c), now)
                );
                // scan_eq and its own linear oracle agree on one table too.
                prop_assert_eq!(
                    t.scan_eq(1, &Value::Int(b), now),
                    t.scan_eq_linear(1, &Value::Int(b), now)
                );
                prop_assert_eq!(t.scan(now), m.scan(now));
            }
        }
    }
}
