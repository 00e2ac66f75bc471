//! The per-node table catalog.
//!
//! One [`Catalog`] per node holds every materialized table, looked up by
//! relation name. The node runtime registers tables when a program's
//! `materialize` statements are installed (possibly on-line, long after
//! boot — the paper's "piecemeal deployment") and routes tuple insertions
//! here.

use crate::archive::{
    eqs_hold, Archive, ArchiveConfig, ArchiveStats, ArchivedRow, ImportedHistory, ImportedStats,
    Segment, SegmentError, SpilledRow, LIVE_SENTINEL,
};
use crate::durable::{DurableStats, DurableStore};
use crate::table::{InsertOutcome, ProbeStats, Table, TableSpec};
use p2_types::{Time, Tuple, Value};
use std::collections::HashMap;
use std::fmt;
use std::ops::RangeInclusive;

/// Catalog errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A table with this name already exists with a different spec.
    SpecConflict {
        /// The table name.
        name: String,
    },
    /// The named relation is not materialized here.
    NoSuchTable {
        /// The table name.
        name: String,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::SpecConflict { name } => {
                write!(
                    f,
                    "table '{name}' already materialized with a different spec"
                )
            }
            CatalogError::NoSuchTable { name } => {
                write!(f, "no materialized table named '{name}'")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// A history export plus the sealed-tier metadata delta shipping needs.
/// See [`Catalog::export_history`].
#[derive(Debug)]
pub struct HistoryExport {
    /// Sealed segment frames (oldest first), then the synthetic
    /// open-buffer frame (if any rows are open) and live-row frame (if
    /// any rows are live).
    pub frames: Vec<Segment>,
    /// How many leading `frames` are sealed segments.
    pub sealed: usize,
    /// `epoch_hi` of the newest sealed segment (`None`: nothing sealed).
    pub watermark: Option<u64>,
    /// `epoch_lo` of the oldest retained sealed segment.
    pub oldest: Option<u64>,
}

/// All materialized tables of one node.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    /// The frozen tier (DESIGN.md §2.11); `None` = archiving disabled,
    /// which costs the live path nothing.
    archive: Option<Archive>,
    /// Enrolled relation names in enrollment order — the deterministic
    /// drain order for [`Catalog::archive_maintain`].
    enrolled: Vec<String>,
    /// Segment frames shipped here from other nodes, keyed by origin
    /// (DESIGN.md §2.12). Only [`Catalog::deployment_scan`] reads it;
    /// the local tiers never mix with it.
    imported: ImportedHistory,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table. Re-registering with an **identical** spec is a
    /// no-op (monitoring programs often re-declare application tables they
    /// read); a differing spec is an error.
    pub fn register(&mut self, spec: TableSpec) -> Result<(), CatalogError> {
        if let Some(existing) = self.tables.get(&spec.name) {
            if existing.spec() == &spec {
                return Ok(());
            }
            return Err(CatalogError::SpecConflict { name: spec.name });
        }
        self.tables.insert(spec.name.clone(), Table::new(spec));
        Ok(())
    }

    /// Whether a relation is materialized (the planner uses this to
    /// classify predicates as table matches vs transient events).
    pub fn is_materialized(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Every registered table's name, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Access a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    /// Access a table immutably.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Insert a tuple into its table (by relation name).
    pub fn insert(&mut self, tuple: Tuple, now: Time) -> Result<InsertOutcome, CatalogError> {
        match self.tables.get_mut(tuple.name()) {
            Some(t) => Ok(t.insert(tuple, now)),
            None => Err(CatalogError::NoSuchTable {
                name: tuple.name().to_string(),
            }),
        }
    }

    /// A table's mutation version (0 for unknown tables, which never
    /// change). See [`Table::version`].
    pub fn version_of(&self, name: &str) -> u64 {
        self.tables.get(name).map(|t| t.version()).unwrap_or(0)
    }

    /// Delete by primary key from the tuple's table.
    pub fn delete_by_key(
        &mut self,
        tuple: &Tuple,
        now: Time,
    ) -> Result<Option<Tuple>, CatalogError> {
        match self.tables.get_mut(tuple.name()) {
            Some(t) => Ok(t.delete_by_key(tuple, now)),
            None => Err(CatalogError::NoSuchTable {
                name: tuple.name().to_string(),
            }),
        }
    }

    /// Scan a table (empty vec if the table doesn't exist — reads of
    /// unknown relations are just empty, matching query semantics).
    pub fn scan(&mut self, name: &str, now: Time) -> Vec<Tuple> {
        self.tables
            .get_mut(name)
            .map(|t| t.scan(now))
            .unwrap_or_default()
    }

    /// Scan with an equality filter on one field.
    pub fn scan_eq(&mut self, name: &str, field: usize, value: &Value, now: Time) -> Vec<Tuple> {
        self.tables
            .get_mut(name)
            .map(|t| t.scan_eq(field, value, now))
            .unwrap_or_default()
    }

    /// Expire stale rows in every table. Returns total rows dropped.
    pub fn expire_all(&mut self, now: Time) -> usize {
        self.tables.values_mut().map(|t| t.expire(now)).sum()
    }

    /// Total live tuples across all tables (the "live tuples" series of
    /// Figures 6 and 7).
    pub fn live_tuples(&self) -> usize {
        self.tables.values().map(|t| t.raw_len()).sum()
    }

    /// Approximate bytes of live tuples (the "process memory" proxy).
    pub fn approx_bytes(&self) -> usize {
        self.tables.values().map(|t| t.approx_bytes()).sum()
    }

    /// Register a secondary index on `(table, field)`, backfilling from
    /// current rows. Idempotent. The planner calls this at install time
    /// for every join-probe field it finds in a compiled program.
    pub fn ensure_index(&mut self, name: &str, field: usize) -> Result<(), CatalogError> {
        match self.tables.get_mut(name) {
            Some(t) => {
                t.ensure_index(field);
                Ok(())
            }
            None => Err(CatalogError::NoSuchTable {
                name: name.to_string(),
            }),
        }
    }

    /// Indexed fields of one table (empty for unknown tables).
    pub fn indexed_fields(&self, name: &str) -> Vec<usize> {
        self.tables
            .get(name)
            .map(|t| t.indexed_fields())
            .unwrap_or_default()
    }

    /// Per-table probe counters, sorted by table name (the sysStat feed).
    pub fn index_stats(&self) -> Vec<(String, ProbeStats)> {
        let mut out: Vec<_> = self
            .tables
            .values()
            .map(|t| (t.spec().name.clone(), t.probe_stats()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Turn the archive tier on. Idempotent; tables still need
    /// [`Catalog::enroll_archive`] to start spilling.
    pub fn enable_archive(&mut self, config: ArchiveConfig) {
        if self.archive.is_none() {
            self.archive = Some(Archive::new(config));
        }
    }

    /// Whether the archive tier is on.
    pub fn archive_enabled(&self) -> bool {
        self.archive.is_some()
    }

    /// Boot the durable tier (DESIGN.md §2.14): run `store`'s recovery
    /// pass — rebuilding the archive's sealed segments from the logs —
    /// and adopt it as the sink every future seal writes through. A
    /// no-op when the archive tier is off (there is nothing to persist).
    pub fn recover_durability(&mut self, store: DurableStore) {
        if let Some(a) = self.archive.as_mut() {
            a.recover_from(store);
        }
    }

    /// Durability checkpoint, run at every periodic GC sweep: expire
    /// every table at `now`, drain the spill buffers, and seal open
    /// epochs strictly older than `now`'s — so everything that
    /// logically expired before the sweep is in the durable log when
    /// the node crashes. Expiry is logical (a row's drop time is its
    /// lifetime boundary, not the instant this ran), so checkpointing
    /// changes *when* rows drain, never what any query answers. A no-op
    /// when no durable store is attached, which keeps durability-off
    /// runs byte-identical to the pre-durability engine.
    pub fn durable_checkpoint(&mut self, now: Time) {
        if self.durable_stats().is_none() {
            return;
        }
        self.expire_all(now);
        self.archive_maintain();
        if let Some(a) = self.archive.as_mut() {
            a.seal_aged(now);
        }
    }

    /// Detach the durable store for handover to the node's next
    /// incarnation (crash teardown: open buffers are lost, by contract).
    pub fn take_durable(&mut self) -> Option<DurableStore> {
        self.archive.as_mut().and_then(Archive::take_durable)
    }

    /// Durable-tier counters (`None` when durability is off) — the
    /// `durable.*` sysStat feed.
    pub fn durable_stats(&self) -> Option<DurableStats> {
        self.archive.as_ref().and_then(Archive::durable_stats)
    }

    /// Enroll a table: its dropped rows spill into the archive from now
    /// on. A no-op when archiving is disabled (no buffer can grow
    /// unbounded without a drain). Idempotent.
    pub fn enroll_archive(&mut self, name: &str) -> Result<(), CatalogError> {
        if self.archive.is_none() {
            return Ok(());
        }
        match self.tables.get_mut(name) {
            Some(t) => {
                if !t.archive_enrolled() {
                    t.set_archive_enrolled(true);
                    self.enrolled.push(name.to_string());
                }
                Ok(())
            }
            None => Err(CatalogError::NoSuchTable {
                name: name.to_string(),
            }),
        }
    }

    /// Drain every enrolled table's spill buffer into the archive.
    /// Cheap when nothing spilled. The archive's per-relation state is a
    /// pure function of each relation's spill stream, so *when* this
    /// runs never changes what a later scan sees.
    pub fn archive_maintain(&mut self) {
        let Some(archive) = self.archive.as_mut() else {
            return;
        };
        for name in &self.enrolled {
            if let Some(t) = self.tables.get_mut(name) {
                let rows = t.take_spilled();
                if !rows.is_empty() {
                    archive.spill_vec(name, rows);
                }
            }
        }
    }

    /// History scan: every row of `name` whose validity interval
    /// intersects `[t0, t1]` and satisfies the `(field, value)`
    /// equality predicates in `eqs` — archived rows (closed intervals,
    /// spill order) followed by still-live rows (open intervals,
    /// insertion order). Returns empty when archiving is disabled: a
    /// partial live-only answer would masquerade as history. An inverted
    /// window (`t0 > t1`) is empty too, and touches nothing.
    pub fn archive_scan(
        &mut self,
        name: &str,
        t0: Time,
        t1: Time,
        now: Time,
        eqs: &[(usize, Value)],
    ) -> Result<Vec<ArchivedRow>, SegmentError> {
        if t0 > t1 {
            return Ok(Vec::new());
        }
        // Expire the live table FIRST: rows past due at `now` spill,
        // and must land in the archive before the segment walk below —
        // otherwise a row expiring at scan time would be neither live
        // nor archived. (Nothing is enrolled while archiving is
        // disabled, so that case touches nothing.)
        let enrolled = |t: &&mut Table| t.archive_enrolled();
        if let Some(t) = self.tables.get_mut(name).filter(enrolled) {
            t.expire(now);
        }
        self.archive_maintain();
        let Some(archive) = self.archive.as_mut() else {
            return Ok(Vec::new());
        };
        let mut out = archive.scan_range(name, t0, t1, eqs)?;
        if let Some(t) = self.tables.get_mut(name).filter(enrolled) {
            let live = t.live_where(now, |tuple, inserted_at| {
                inserted_at <= t1 && eqs_hold(tuple.values(), eqs)
            });
            out.extend(live.into_iter().map(|(tuple, inserted_at)| ArchivedRow {
                tuple,
                inserted_at,
                dropped_at: None,
            }));
        }
        Ok(out)
    }

    /// Export `name`'s complete visible history as encoded segment
    /// frames for shipping: every sealed segment, a synthetic frame for
    /// the open buffer, and a synthetic frame for the still-live rows
    /// (drop time [`LIVE_SENTINEL`], mapped back to an open interval on
    /// import). The frame sequence replays on the importer in exactly
    /// the order [`Catalog::archive_scan`] walks the local tiers, which
    /// is what makes a shipped answer byte-identical to a local one.
    /// Alongside ride the sealed-tier facts the ship layer's delta
    /// protocol keys on (see [`HistoryExport`]). `None` when archiving
    /// is disabled here — the peer must be told "no history" rather
    /// than silently handed an empty snapshot.
    pub fn export_history(&mut self, name: &str, now: Time) -> Option<HistoryExport> {
        self.archive.as_ref()?;
        let live: Vec<(Tuple, Time)> = self
            .tables
            .get_mut(name)
            .filter(|t| t.archive_enrolled())
            .map(|t| t.live_where(now, |_, _| true))
            .unwrap_or_default();
        self.archive_maintain();
        let mut frames = self
            .archive
            .as_ref()
            .map(|a| a.export_frames(name))
            .unwrap_or_default();
        let sealed = self
            .archive
            .as_ref()
            .map(|a| a.segments(name).len())
            .unwrap_or(0);
        let watermark = frames.get(sealed.wrapping_sub(1)).map(Segment::epoch_hi);
        let oldest = if sealed > 0 {
            frames.first().map(Segment::epoch_lo)
        } else {
            None
        };
        if !live.is_empty() {
            let rows: Vec<SpilledRow> = live
                .into_iter()
                .map(|(tuple, inserted_at)| SpilledRow {
                    tuple,
                    inserted_at,
                    dropped_at: LIVE_SENTINEL,
                })
                .collect();
            frames.push(Segment::build(name, u64::MAX, u64::MAX, &rows));
        }
        Some(HistoryExport {
            frames,
            sealed,
            watermark,
            oldest,
        })
    }

    /// Install segment frames shipped from `origin` as that node's
    /// history of `relation` (see [`ImportedHistory::import`]): with
    /// `keep` `None` they replace whatever was held; with a range they
    /// extend the held sealed frames inside it. The caller has already
    /// validated the frames ([`Segment::from_bytes`] rejects hostile
    /// bytes with typed errors) and, for a delta, that what is held
    /// reaches the end of `keep`. Imports obey the same
    /// `max_age_epochs` policy as this node's own frozen tier — a
    /// collector ages shipped history out exactly like local history.
    /// With archiving disabled there is no policy; shipments are held
    /// whole.
    pub fn import_history(
        &mut self,
        origin: &str,
        relation: &str,
        keep: Option<RangeInclusive<u64>>,
        segments: Vec<Segment>,
    ) {
        let max_age = self
            .archive
            .as_ref()
            .and_then(|a| a.config().max_age_epochs);
        self.imported
            .import(origin, relation, keep, segments, max_age);
    }

    /// The shipped-history index (coverage checks, introspection).
    pub fn imported(&self) -> &ImportedHistory {
        &self.imported
    }

    /// Deployment-wide history scan: the union of every known node's
    /// history of `name` over `[t0, t1]`, origins in sorted address
    /// order — this node's own tiers contribute under `local` (its
    /// address), shipped histories under their origin addresses. Rows
    /// within an origin keep that origin's spill order, so the result
    /// is a pure function of the imported snapshots plus local state,
    /// independent of fetch timing or shard count.
    pub fn deployment_scan(
        &mut self,
        local: &str,
        name: &str,
        t0: Time,
        t1: Time,
        now: Time,
        eqs: &[(usize, Value)],
    ) -> Result<Vec<ArchivedRow>, SegmentError> {
        let mut origins = self.imported.origins(name);
        if self.archive.is_some() && !origins.iter().any(|o| o == local) {
            origins.push(local.to_string());
            origins.sort();
        }
        let mut out = Vec::new();
        for origin in origins {
            if origin == local {
                out.extend(self.archive_scan(name, t0, t1, now, eqs)?);
            } else {
                out.extend(self.imported.scan(&origin, name, t0, t1, eqs)?);
            }
        }
        Ok(out)
    }

    /// Relations enrolled for archiving, in enrollment order.
    pub fn enrolled_relations(&self) -> &[String] {
        &self.enrolled
    }

    /// Per-relation archive counters (empty when disabled). Buffers are
    /// drained first so the numbers are current.
    pub fn archive_stats(&mut self) -> Vec<(String, ArchiveStats)> {
        self.archive_maintain();
        self.archive
            .as_ref()
            .map(Archive::stats)
            .unwrap_or_default()
    }

    /// `(origin, relation, counters)` for shipped history held here,
    /// sorted — the `archive.ship.in.*` sysStat feed.
    pub fn imported_stats(&self) -> Vec<(String, String, ImportedStats)> {
        self.imported.stats()
    }

    /// Iterate over (name, live-row-count, spec) for introspection.
    pub fn table_stats(&self) -> Vec<(String, usize, TableSpec)> {
        let mut out: Vec<_> = self
            .tables
            .values()
            .map(|t| (t.spec().name.clone(), t.raw_len(), t.spec().clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_types::TimeDelta;

    fn spec(name: &str) -> TableSpec {
        TableSpec::new(name, Some(TimeDelta::from_secs(100)), Some(10), vec![0])
    }

    #[test]
    fn register_and_insert() {
        let mut c = Catalog::new();
        c.register(spec("link")).unwrap();
        assert!(c.is_materialized("link"));
        assert!(!c.is_materialized("path"));
        let t = Tuple::new("link", [Value::addr("a"), Value::Int(1)]);
        c.insert(t.clone(), Time::ZERO).unwrap();
        assert_eq!(c.scan("link", Time::ZERO), vec![t]);
    }

    #[test]
    fn idempotent_reregistration() {
        let mut c = Catalog::new();
        c.register(spec("link")).unwrap();
        c.register(spec("link")).unwrap(); // same spec: fine
        let mut other = spec("link");
        other.max_rows = Some(99);
        assert!(matches!(
            c.register(other),
            Err(CatalogError::SpecConflict { .. })
        ));
    }

    #[test]
    fn insert_unknown_table_errors() {
        let mut c = Catalog::new();
        let t = Tuple::new("ghost", [Value::addr("a")]);
        assert!(matches!(
            c.insert(t, Time::ZERO),
            Err(CatalogError::NoSuchTable { .. })
        ));
    }

    #[test]
    fn scan_unknown_is_empty() {
        let mut c = Catalog::new();
        assert!(c.scan("nothing", Time::ZERO).is_empty());
    }

    #[test]
    fn imported_history_obeys_local_age_policy() {
        fn seg(epoch: u64) -> Segment {
            let t = if epoch == u64::MAX { 100 } else { epoch };
            let rows = vec![crate::SpilledRow {
                tuple: Tuple::new("seen", [Value::addr("a"), Value::Int(t as i64)]),
                inserted_at: Time::from_secs(t),
                dropped_at: Time::from_secs(t + 1),
            }];
            Segment::build("seen", epoch, epoch, &rows)
        }
        let mut c = Catalog::new();
        c.enable_archive(ArchiveConfig {
            max_age_epochs: Some(2),
            ..ArchiveConfig::default()
        });
        // Epochs 0..=9 plus a live-row frame: only epochs within 2 of
        // the newest seal (9) survive; the live frame is not a seal and
        // never drops.
        let mut frames: Vec<Segment> = (0..10).map(seg).collect();
        frames.push(seg(u64::MAX));
        c.import_history("a", "seen", None, frames);
        let stats = c.imported_stats();
        assert_eq!(stats.len(), 1);
        let (origin, relation, s) = &stats[0];
        assert_eq!((origin.as_str(), relation.as_str()), ("a", "seen"));
        assert_eq!(s.segments, 4, "epochs 7..=9 plus the live frame stay");
        assert_eq!(s.age_dropped_segments, 7);

        // Re-import accumulates the counter (wholesale replacement).
        let frames: Vec<Segment> = (0..5).map(seg).collect();
        c.import_history("a", "seen", None, frames);
        assert_eq!(c.imported_stats()[0].2.age_dropped_segments, 9);

        // No archive tier → no policy → shipments held whole.
        let mut plain = Catalog::new();
        plain.import_history("a", "seen", None, (0..10).map(seg).collect());
        assert_eq!(plain.imported_stats()[0].2.segments, 10);
        assert_eq!(plain.imported_stats()[0].2.age_dropped_segments, 0);
    }

    #[test]
    fn metrics_roll_up() {
        let mut c = Catalog::new();
        c.register(spec("a")).unwrap();
        c.register(spec("b")).unwrap();
        c.insert(Tuple::new("a", [Value::addr("x")]), Time::ZERO)
            .unwrap();
        c.insert(Tuple::new("b", [Value::addr("y")]), Time::ZERO)
            .unwrap();
        c.insert(Tuple::new("b", [Value::addr("z")]), Time::ZERO)
            .unwrap();
        assert_eq!(c.live_tuples(), 3);
        assert!(c.approx_bytes() > 0);
        let stats = c.table_stats();
        assert_eq!(stats[0].0, "a");
        assert_eq!(stats[1].1, 2);
    }

    #[test]
    fn expire_all() {
        let mut c = Catalog::new();
        c.register(spec("a")).unwrap();
        c.insert(Tuple::new("a", [Value::addr("x")]), Time::ZERO)
            .unwrap();
        assert_eq!(c.expire_all(Time::from_secs(1000)), 1);
        assert_eq!(c.live_tuples(), 0);
    }

    // ---- history scans ---------------------------------------------------

    fn hrow(origin: &str, k: i64, v: i64) -> Tuple {
        Tuple::new("h", [Value::addr(origin), Value::Int(k), Value::Int(v)])
    }

    /// An archiving catalog with one enrolled table `h(origin, k, v)`:
    /// keyed on `k`, rows live 10 s, at most 6 of them, 5-s epochs.
    fn history_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.enable_archive(ArchiveConfig {
            epoch: TimeDelta::from_secs(5),
            compact_min_bytes: 64,
            ..ArchiveConfig::default()
        });
        let spec = TableSpec::new("h", Some(TimeDelta::from_secs(10)), Some(6), vec![1]);
        c.register(spec).unwrap();
        c.enroll_archive("h").unwrap();
        c
    }

    #[test]
    fn an_inverted_window_matches_nothing_and_scans_nothing() {
        let mut c = history_catalog();
        for (k, at) in [(1, 0), (2, 4), (3, 8), (1, 12)] {
            c.insert(hrow("m", k, 0), Time::from_secs(at)).unwrap();
        }
        // At 13 s: k=1's first version is archived ([0, 12]); k=2, k=3
        // and k=1's second version are live.
        let now = Time::from_secs(13);
        let (t0, t1) = (Time::from_secs(9), Time::from_secs(3));
        // The forward window over the same instants has both tiers in it.
        assert_eq!(c.archive_scan("h", t1, t0, now, &[]).unwrap().len(), 3);
        let scans = |c: &mut Catalog| c.archive_stats()[0].1.scans;
        let before = scans(&mut c);
        assert!(c.archive_scan("h", t0, t1, now, &[]).unwrap().is_empty());
        assert!(c
            .deployment_scan("m", "h", t0, t1, now, &[])
            .unwrap()
            .is_empty());
        assert_eq!(scans(&mut c), before, "an empty window is not a scan");
        // Nor does it touch the live tier: nothing expires by `later`.
        let later = Time::from_secs(100);
        c.archive_scan("h", t0, t1, later, &[]).unwrap();
        assert_eq!(c.table("h").map(Table::raw_len), Some(3));
    }

    /// The history scan as it was before the live tier was filtered in
    /// place and segments built only their hits: clone every live row
    /// with its birth time, decode every frame whole, then filter — and
    /// an inverted window is empty.
    fn clone_then_filter(
        c: &mut Catalog,
        local: &str,
        t0: Time,
        t1: Time,
        now: Time,
        eqs: &[(usize, Value)],
    ) -> Vec<ArchivedRow> {
        if t0 > t1 {
            return Vec::new();
        }
        let hit = |row: &ArchivedRow| {
            row.inserted_at <= t1
                && row.dropped_at.is_none_or(|d| d >= t0)
                && eqs.iter().all(|(i, v)| row.tuple.get(*i) == Some(v))
        };
        let mut origins = c.imported.origins("h");
        if !origins.iter().any(|o| o == local) {
            origins.push(local.to_string());
            origins.sort();
        }
        let mut out = Vec::new();
        for origin in origins {
            let (frames, live) = if origin == local {
                let live = c.tables.get_mut("h").map(|t| t.scan_with_birth(now));
                c.archive_maintain();
                let frames = c.archive.as_ref().map(|a| a.export_frames("h"));
                (frames.unwrap_or_default(), live.unwrap_or_default())
            } else {
                let frames = c.imported.frames(&origin, "h").unwrap_or_default();
                (frames.to_vec(), Vec::new())
            };
            let archived = frames.iter().flat_map(|seg| seg.rows().unwrap_or_default());
            let archived = archived.map(|r| ArchivedRow {
                dropped_at: (r.dropped_at != LIVE_SENTINEL).then_some(r.dropped_at),
                tuple: r.tuple,
                inserted_at: r.inserted_at,
            });
            let live = live.into_iter().map(|(tuple, inserted_at)| ArchivedRow {
                tuple,
                inserted_at,
                dropped_at: None,
            });
            out.extend(archived.chain(live).filter(hit));
        }
        out
    }

    proptest::proptest! {
        /// Filtering the live tier in place and building only the hits
        /// of each segment answer exactly what cloning everything and
        /// filtering afterwards did: random histories on this node and
        /// a shipping peer, random windows (inverted ones included),
        /// random equality hints, and scan instants that land on rows'
        /// expiry deadlines.
        #[test]
        fn prop_filtered_scan_matches_clone_then_filter(
            ops in proptest::collection::vec((0u8..8, 0i64..8, 0i64..3, 0u64..4), 1..150),
            probes in proptest::collection::vec((0u64..120, 0u64..120, 0u8..6, 0i64..3, 0u64..6), 1..10),
        ) {
            let (mut c, mut peer) = (history_catalog(), history_catalog());
            let mut now = Time::ZERO;
            let ship = |peer: &mut Catalog, c: &mut Catalog, now| {
                if let Some(export) = peer.export_history("h", now) {
                    c.import_history("b", "h", None, export.frames);
                }
            };
            for (sel, k, v, dt) in ops {
                now += TimeDelta::from_secs(dt);
                match sel {
                    0..=3 => drop(c.insert(hrow("m", k, v), now)),
                    4 | 5 => drop(peer.insert(hrow("b", k, v), now)),
                    6 => drop(c.delete_by_key(&hrow("m", k, 0), now)),
                    _ => ship(&mut peer, &mut c, now),
                }
            }
            ship(&mut peer, &mut c, now);
            for (a, b, hint, v, dt) in probes {
                // Whole seconds, like every insert: deadlines coincide.
                now += TimeDelta::from_secs(dt);
                let eqs: Vec<(usize, Value)> = match hint {
                    0 => vec![],
                    1 => vec![(0, Value::addr("m"))],
                    2 => vec![(0, Value::addr("b"))],
                    3 => vec![(1, Value::Int(v))],
                    4 => vec![(2, Value::Int(v))],
                    _ => vec![(0, Value::addr("m")), (2, Value::Int(v))],
                };
                let (t0, t1) = (Time::from_secs(a), Time::from_secs(b));
                let got = c.deployment_scan("m", "h", t0, t1, now, &eqs);
                proptest::prop_assert_eq!(got, Ok(clone_then_filter(&mut c, "m", t0, t1, now, &eqs)));
            }
        }
    }
}
