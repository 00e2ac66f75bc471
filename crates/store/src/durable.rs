//! The durable tier: crash-surviving segment logs (DESIGN.md §2.14).
//!
//! The frozen tier ([`crate::archive`]) makes forensic history immune to
//! soft-state churn, but until now a node *restart* erased it wholesale —
//! the paper's "what happened?" promise evaporated exactly when it
//! mattered most. This module gives sealed segments a home that survives
//! the process: every segment frame the archive seals is appended to a
//! per-relation **segment log** behind a [`DurableStore`], and recovery
//! rebuilds the in-memory archive by replaying those frames through the
//! same seal/compact/retain pipeline that built them.
//!
//! Three properties carry over from the archive and one is new:
//!
//! * **Determinism.** The log is a pure function of the seal stream, and
//!   recovery replays it in order — so a restarted node's archive is a
//!   pure function of what was sealed before the crash, identical across
//!   engines and shard counts.
//! * **No panics on hostile bytes.** Recovery validates every frame with
//!   [`Segment::from_bytes`]; a corrupt frame is **quarantined** (counted,
//!   skipped, never served) and a torn trailing record — the signature of
//!   a crash mid-append — is truncated away, leaving the clean prefix.
//! * **Bounded cost.** Appends are sequential writes; the durability
//!   barrier ([`DurableStore::barrier`]) is the only synchronous point,
//!   paid once per seal.
//! * **Testable failure.** [`FaultPlan`] injects crashes, torn writes,
//!   and bit flips at deterministic points in the append stream, so the
//!   recovery contract is *proven* under failure, not assumed
//!   (`tests/recovery.rs`, `crates/store/tests/archive_props.rs`).
//!
//! ## Log format
//!
//! A relation's log is a concatenation of records, each
//! `[u32 LE frame length][u64 LE XXH64 (seed 0) of frame][P2AR segment frame]`,
//! and a file-backed store's `MANIFEST` opens with the format tag
//! [`MANIFEST_TAG`] (`p2-durable v2`; v1 logs carried FNV-1a sums and
//! are refused, not read — see [`FileDurable`]).
//! Recovery walks records front to back: a record whose declared length
//! runs past the end of the log is a **torn tail** (the crash
//! interrupted the append) and everything from it on is discarded; a
//! record whose checksum or frame validation fails is quarantined and
//! skipped. The checksum is what makes single-bit flips *detectable* —
//! a flip in a value payload byte can otherwise yield a frame that
//! still parses, just with different history. A corrupted length prefix
//! that still "fits" merely desynchronizes the walk — every subsequent
//! misaligned record fails its checksum and quarantines, so recovery
//! still terminates with a valid prefix and never panics. Both passes
//! over a record run at memory speed: the checksum mixes 8-byte words
//! in four lanes, and [`Segment::from_bytes`] validates every value
//! without building one.

use crate::archive::{Segment, SegmentError};
use p2_types::DetRng;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

p2_types::counters! {
    /// Counters for one node's durable tier, surfaced as `durable.*` sysStat
    /// rows by `core::introspect` (absent entirely when durability is off).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DurableStats {
        /// Times this store has been booted (first boot included): a
        /// restarted node's count exceeds 1, which the ship layer folds into
        /// its announce generation so collectors never mistake post-restart
        /// shipments for stale ones.
        pub boots: u64 = "boots",
        /// Segment frames appended since the store was created.
        pub appends: u64 = "appends",
        /// Durability barriers honoured (fsyncs for the file backend).
        pub fsyncs: u64 = "fsyncs",
        /// Valid segments rebuilt by recovery, cumulative over boots.
        pub recovered_segments: u64 = "recoveredSegments",
        /// Bytes discarded from torn log tails, cumulative over boots.
        pub truncated_tail_bytes: u64 = "truncatedTailBytes",
        /// Corrupt frames quarantined by recovery, cumulative over boots.
        pub quarantined: u64 = "quarantined",
        /// I/O errors swallowed by the file backend (the store goes quiet
        /// rather than panicking the node; see [`FileDurable`]).
        pub io_errors: u64 = "ioErrors",
    }
}

/// What one recovery pass found, per relation (sorted by name).
#[derive(Debug, Default)]
pub struct Recovery {
    /// `(relation, valid segments in append order)`.
    pub relations: Vec<(String, Vec<Segment>)>,
    /// Bytes discarded from torn tails across all logs.
    pub truncated_tail_bytes: u64,
    /// Corrupt frames quarantined across all logs.
    pub quarantined: u64,
}

/// A crash-surviving sink for sealed segment frames.
///
/// The archive appends every frame it seals, then calls
/// [`barrier`](DurableStore::barrier); the contract is that everything
/// appended before a returned barrier survives a crash after it. What
/// was appended *after* the last barrier may survive whole, torn, or not
/// at all — recovery tolerates all three.
pub trait DurableStore: fmt::Debug + Send {
    /// Append one sealed segment frame to `relation`'s log.
    fn append(&mut self, relation: &str, frame: &[u8]);
    /// Durability barrier: on return, everything appended so far is
    /// crash-safe.
    fn barrier(&mut self);
    /// Boot (or re-boot) the store: bump the boot counter and rebuild
    /// every relation's valid segment list from its log, truncating torn
    /// tails and quarantining corrupt frames. Called exactly once per
    /// node lifetime, at construction or restart.
    fn recover(&mut self) -> Recovery;
    /// Point-in-time counters.
    fn stats(&self) -> DurableStats;
    /// Current length of `relation`'s log in bytes (fault injection and
    /// tests; 0 for unknown relations).
    fn log_len(&self, relation: &str) -> usize;
    /// Truncate `relation`'s log to its first `keep` bytes — the fault
    /// injector's model of a write torn by a crash.
    fn truncate_log(&mut self, relation: &str, keep: usize);
    /// Flip bit `bit` of byte `offset` in `relation`'s log — the fault
    /// injector's model of silent media corruption.
    fn flip_bit(&mut self, relation: &str, offset: usize, bit: u8);
}

/// Bytes of record header preceding each frame: u32 length + u64 XXH64.
const RECORD_HEADER: usize = 12;

/// XXH64 of `bytes`, seed 0: the record checksum. It mixes 8-byte
/// words in four independent lanes, so a recovery pass checks a log at
/// memory speed where a byte-at-a-time hash (FNV-1a) was the largest
/// single cost of a restart.
fn xxh64(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    let round = |acc: u64, word: &[u8; 8]| {
        acc.wrapping_add(u64::from_le_bytes(*word).wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let (stripes, rest) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        P5
    } else {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *lane = round(*lane, word);
            }
        }
        let h = lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18));
        lanes.iter().fold(h, |h, lane| {
            (h ^ round(0, &lane.to_le_bytes()))
                .wrapping_mul(P1)
                .wrapping_add(P4)
        })
    };
    h = h.wrapping_add(bytes.len() as u64);
    let (words, mut tail) = rest.as_chunks::<8>();
    for word in words {
        h = (h ^ round(0, word))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if let Some((word, rest)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = rest;
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Walk one log's records, returning the valid segments plus torn-tail
/// and quarantine counts. Never panics, whatever the bytes.
pub fn recover_log(bytes: &[u8]) -> (Vec<Segment>, u64, u64) {
    let mut segments = Vec::new();
    let mut quarantined = 0u64;
    let mut pos = 0usize;
    while bytes.len() - pos >= RECORD_HEADER {
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        if len > bytes.len() - pos - RECORD_HEADER {
            // Torn tail: the record was being written when the world
            // stopped. Everything before it is intact by construction.
            return (segments, (bytes.len() - pos) as u64, quarantined);
        }
        let sum = u64::from_le_bytes(
            bytes[pos + 4..pos + 12].try_into().unwrap_or([0; 8]), // length checked above; unreachable
        );
        let frame = &bytes[pos + RECORD_HEADER..pos + RECORD_HEADER + len];
        if xxh64(frame) != sum {
            quarantined += 1;
        } else {
            match Segment::from_bytes(frame) {
                Ok(seg) => segments.push(seg),
                Err(_) => quarantined += 1,
            }
        }
        pos += RECORD_HEADER + len;
    }
    let tail = (bytes.len() - pos) as u64;
    (segments, tail, quarantined)
}

/// Frame one segment as a log record.
fn encode_record(out: &mut Vec<u8>, frame: &[u8]) {
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(&xxh64(frame).to_le_bytes());
    out.extend_from_slice(frame);
}

/// Re-encode recovered segments as a clean log (what the file backend
/// rewrites after a dirty recovery, so quarantined frames and torn tails
/// are not re-counted on every subsequent boot).
fn clean_log(segments: &[Segment]) -> Vec<u8> {
    let mut out = Vec::with_capacity(segments.iter().map(|s| RECORD_HEADER + s.len_bytes()).sum());
    for seg in segments {
        encode_record(&mut out, seg.as_bytes());
    }
    out
}

/// The deterministic in-memory backend: logs live in a map, barriers are
/// free, and the whole store is handed across a simulated restart as a
/// value. This is what `Population::restart` moves between node
/// incarnations, so crash-restart runs bit-identically in the simulator
/// at any shard count.
#[derive(Debug, Default)]
pub struct MemDurable {
    logs: BTreeMap<String, Vec<u8>>,
    stats: DurableStats,
}

impl MemDurable {
    /// An empty store.
    pub fn new() -> MemDurable {
        MemDurable::default()
    }
}

impl DurableStore for MemDurable {
    fn append(&mut self, relation: &str, frame: &[u8]) {
        encode_record(self.logs.entry(relation.to_string()).or_default(), frame);
        self.stats.appends += 1;
    }

    fn barrier(&mut self) {
        self.stats.fsyncs += 1;
    }

    fn recover(&mut self) -> Recovery {
        self.stats.boots += 1;
        let mut out = Recovery::default();
        for (relation, log) in self.logs.iter_mut() {
            let (segments, torn, quarantined) = recover_log(log);
            if torn > 0 || quarantined > 0 {
                *log = clean_log(&segments);
            }
            out.truncated_tail_bytes += torn;
            out.quarantined += quarantined;
            self.stats.recovered_segments += segments.len() as u64;
            out.relations.push((relation.clone(), segments));
        }
        self.stats.truncated_tail_bytes += out.truncated_tail_bytes;
        self.stats.quarantined += out.quarantined;
        out
    }

    fn stats(&self) -> DurableStats {
        self.stats
    }

    fn log_len(&self, relation: &str) -> usize {
        self.logs.get(relation).map(Vec::len).unwrap_or(0)
    }

    fn truncate_log(&mut self, relation: &str, keep: usize) {
        if let Some(log) = self.logs.get_mut(relation) {
            log.truncate(keep);
        }
    }

    fn flip_bit(&mut self, relation: &str, offset: usize, bit: u8) {
        if let Some(log) = self.logs.get_mut(relation) {
            if let Some(b) = log.get_mut(offset) {
                *b ^= 1 << (bit % 8);
            }
        }
    }
}

/// Manifest filename inside a [`FileDurable`] directory.
const MANIFEST: &str = "MANIFEST";
/// Manifest format tag (first line). A store under any other tag is
/// refused and left as found (see [`FileDurable`]).
pub const MANIFEST_TAG: &str = "p2-durable v2";

/// The file backend: one directory per node, one `rel-<idx>.seglog`
/// file per relation, and a small `MANIFEST` mapping relations to files
/// and carrying the boot counter.
///
/// **Never panics, never errors out of the node.** The directory is
/// created lazily on first append; any I/O failure (disk full,
/// permissions, the directory vanishing) is counted in
/// [`DurableStats::io_errors`] and the offending operation is dropped —
/// a node with a sick disk degrades to in-memory-only archives instead
/// of crashing, exactly as a monitoring system should.
///
/// **A store of another format is refused, not rewritten.** When the
/// manifest's first line is not [`MANIFEST_TAG`] (an older format's
/// store, or no store of ours), recovery reads nothing, bumps no boot
/// counter and rewrites no log: the directory stays byte-for-byte as
/// found. The refusal counts one I/O error, and every later append is
/// dropped and counted as on a sick disk.
#[derive(Debug)]
pub struct FileDurable {
    dir: PathBuf,
    /// `relation → log file index` (names come from the manifest so a
    /// relation keeps its file across boots).
    files: BTreeMap<String, u64>,
    next_file: u64,
    fsync: bool,
    /// Open append handles, one per touched relation.
    handles: BTreeMap<String, std::fs::File>,
    /// The manifest's first line when it is not [`MANIFEST_TAG`].
    foreign: Option<String>,
    stats: DurableStats,
}

impl FileDurable {
    /// A store rooted at `dir` (created on first use). `fsync` makes the
    /// durability barrier call `File::sync_data` on every touched log —
    /// off, the barrier only flushes userspace buffers (fine for tests
    /// and crash *simulation*; turn it on when the threat model includes
    /// the whole machine dying).
    pub fn new(dir: impl Into<PathBuf>, fsync: bool) -> FileDurable {
        FileDurable {
            dir: dir.into(),
            files: BTreeMap::new(),
            next_file: 0,
            fsync,
            handles: BTreeMap::new(),
            foreign: None,
            stats: DurableStats::default(),
        }
    }

    /// The directory this store persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The format tag of a refused store of another format, as its
    /// manifest's first line reads; `None` once a recovery has found a
    /// store of this format or a fresh directory.
    pub fn foreign_tag(&self) -> Option<&str> {
        self.foreign.as_deref()
    }

    fn log_path(&self, idx: u64) -> PathBuf {
        self.dir.join(format!("rel-{idx}.seglog"))
    }

    fn read_manifest(&mut self) {
        let Ok(bytes) = std::fs::read(self.dir.join(MANIFEST)) else {
            return; // fresh directory
        };
        let text = String::from_utf8_lossy(&bytes);
        let mut lines = text.lines();
        let tag = lines.next().unwrap_or_default();
        if tag != MANIFEST_TAG {
            self.foreign = Some(tag.to_string());
            return;
        }
        for line in lines {
            let mut parts = line.splitn(3, ' ');
            match parts.next() {
                Some("boot") => {
                    if let Some(n) = parts.next().and_then(|s| s.parse::<u64>().ok()) {
                        self.stats.boots = n;
                    }
                }
                Some("rel") => {
                    if let (Some(idx), Some(name)) = (
                        parts.next().and_then(|s| s.parse::<u64>().ok()),
                        parts.next(),
                    ) {
                        self.files.insert(name.to_string(), idx);
                        self.next_file = self.next_file.max(idx + 1);
                    }
                }
                _ => {}
            }
        }
    }

    fn write_manifest(&mut self) {
        let mut text = String::from(MANIFEST_TAG);
        text.push('\n');
        text.push_str(&format!("boot {}\n", self.stats.boots));
        for (name, idx) in &self.files {
            text.push_str(&format!("rel {idx} {name}\n"));
        }
        if std::fs::create_dir_all(&self.dir).is_err()
            || std::fs::write(self.dir.join(MANIFEST), text).is_err()
        {
            self.stats.io_errors += 1;
        }
    }

    fn file_index(&mut self, relation: &str) -> u64 {
        if let Some(&idx) = self.files.get(relation) {
            return idx;
        }
        let idx = self.next_file;
        self.next_file += 1;
        self.files.insert(relation.to_string(), idx);
        self.write_manifest();
        idx
    }
}

impl DurableStore for FileDurable {
    fn append(&mut self, relation: &str, frame: &[u8]) {
        if self.foreign.is_some() {
            self.stats.io_errors += 1;
            return;
        }
        let idx = self.file_index(relation);
        if !self.handles.contains_key(relation) {
            if std::fs::create_dir_all(&self.dir).is_err() {
                self.stats.io_errors += 1;
                return;
            }
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.log_path(idx))
            {
                Ok(f) => {
                    self.handles.insert(relation.to_string(), f);
                }
                Err(_) => {
                    self.stats.io_errors += 1;
                    return;
                }
            }
        }
        let Some(f) = self.handles.get_mut(relation) else {
            return;
        };
        let mut record = Vec::with_capacity(RECORD_HEADER + frame.len());
        encode_record(&mut record, frame);
        if f.write_all(&record).is_err() {
            self.stats.io_errors += 1;
            return;
        }
        self.stats.appends += 1;
    }

    fn barrier(&mut self) {
        for f in self.handles.values_mut() {
            if f.flush().is_err() || (self.fsync && f.sync_data().is_err()) {
                self.stats.io_errors += 1;
            }
        }
        self.stats.fsyncs += 1;
    }

    fn recover(&mut self) -> Recovery {
        self.handles.clear();
        self.files.clear();
        self.next_file = 0;
        self.stats.boots = 0;
        self.foreign = None;
        self.read_manifest();
        if self.foreign.is_some() {
            self.stats.io_errors += 1;
            return Recovery::default();
        }
        self.stats.boots += 1;
        let mut out = Recovery::default();
        for (relation, &idx) in &self.files.clone() {
            let path = self.log_path(idx);
            let mut bytes = Vec::new();
            match std::fs::File::open(&path) {
                Ok(mut f) => {
                    if f.read_to_end(&mut bytes).is_err() {
                        self.stats.io_errors += 1;
                        continue;
                    }
                }
                Err(_) => continue, // manifest entry, log never written
            }
            let (segments, torn, quarantined) = recover_log(&bytes);
            if torn > 0 || quarantined > 0 {
                // Rewrite the clean prefix so the damage is counted once,
                // not on every boot, and new appends land after valid
                // records.
                if std::fs::write(&path, clean_log(&segments)).is_err() {
                    self.stats.io_errors += 1;
                }
            }
            out.truncated_tail_bytes += torn;
            out.quarantined += quarantined;
            self.stats.recovered_segments += segments.len() as u64;
            out.relations.push((relation.clone(), segments));
        }
        self.stats.truncated_tail_bytes += out.truncated_tail_bytes;
        self.stats.quarantined += out.quarantined;
        self.write_manifest();
        out
    }

    fn stats(&self) -> DurableStats {
        self.stats
    }

    fn log_len(&self, relation: &str) -> usize {
        self.files
            .get(relation)
            .and_then(|&idx| std::fs::metadata(self.log_path(idx)).ok())
            .map(|m| m.len() as usize)
            .unwrap_or(0)
    }

    fn truncate_log(&mut self, relation: &str, keep: usize) {
        self.handles.remove(relation); // reopen after mutation
        if self.files.is_empty() {
            self.read_manifest(); // fault injection on a reopened dir
        }
        let Some(&idx) = self.files.get(relation) else {
            return;
        };
        let path = self.log_path(idx);
        let Ok(mut bytes) = std::fs::read(&path) else {
            return;
        };
        bytes.truncate(keep);
        if std::fs::write(&path, bytes).is_err() {
            self.stats.io_errors += 1;
        }
    }

    fn flip_bit(&mut self, relation: &str, offset: usize, bit: u8) {
        self.handles.remove(relation);
        if self.files.is_empty() {
            self.read_manifest(); // fault injection on a reopened dir
        }
        let Some(&idx) = self.files.get(relation) else {
            return;
        };
        let path = self.log_path(idx);
        let Ok(mut bytes) = std::fs::read(&path) else {
            return;
        };
        if let Some(b) = bytes.get_mut(offset) {
            *b ^= 1 << (bit % 8);
            if std::fs::write(&path, bytes).is_err() {
                self.stats.io_errors += 1;
            }
        }
    }
}

/// One injected fault, addressed by position in the global append
/// stream (the Nth [`DurableStore::append`] since the plan was armed,
/// counted across boots — restarting does not re-arm a fired fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The node dies *before* append `append` reaches the log: the
    /// frame is lost entirely. Models a crash between seal and write.
    CrashBeforeAppend {
        /// Zero-based index into the append stream.
        append: u64,
    },
    /// The node dies mid-write: only the first `keep_bytes` of append
    /// `append`'s record land. Models a torn write — recovery must
    /// truncate it away.
    TornAppend {
        /// Zero-based index into the append stream.
        append: u64,
        /// Bytes of the record that survive (clamped to its length).
        keep_bytes: usize,
    },
    /// The node dies immediately after the barrier covering append
    /// `append`: the frame is fully durable, everything after is lost.
    CrashAfterBarrier {
        /// Zero-based index into the append stream.
        append: u64,
    },
    /// Silent corruption: after append `append` lands, flip one bit of
    /// its stored frame. The node keeps running; recovery must
    /// quarantine the frame instead of panicking.
    FlipBit {
        /// Zero-based index into the append stream.
        append: u64,
        /// Byte offset within the stored frame (taken modulo its size).
        byte: usize,
        /// Bit index within that byte.
        bit: u8,
    },
}

/// A deterministic schedule of injected faults.
///
/// Plans are data: a test can enumerate crash points exhaustively, or
/// derive a pseudo-random single-fault plan from a seed via
/// [`FaultPlan::seeded`] — the same seed yields the same fault on every
/// engine and shard count, which is what lets `tests/recovery.rs` prove
/// the recovery invariant across a whole seed sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults to inject, each fired at most once.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan injecting the given faults.
    pub fn new(faults: Vec<Fault>) -> FaultPlan {
        FaultPlan { faults }
    }

    /// Derive a single-fault plan from `seed`, spreading fault kind and
    /// position deterministically. Positions may land beyond the run's
    /// actual append count, in which case the fault never fires and the
    /// run is indistinguishable from a fault-free one — a useful control.
    pub fn seeded(seed: u64, max_append: u64) -> FaultPlan {
        let mut rng = DetRng::derive(seed, "faultplan");
        let append = rng.below(max_append.max(1));
        let fault = match rng.below(4) {
            0 => Fault::CrashBeforeAppend { append },
            1 => Fault::TornAppend {
                append,
                keep_bytes: rng.below(96) as usize,
            },
            2 => Fault::CrashAfterBarrier { append },
            _ => Fault::FlipBit {
                append,
                byte: rng.below(4096) as usize,
                bit: (rng.below(8)) as u8,
            },
        };
        FaultPlan::new(vec![fault])
    }
}

/// A [`DurableStore`] decorator that executes a [`FaultPlan`].
///
/// A "crash" here halts the *store*, not the node: once a crash fault
/// fires, every later append and barrier is silently dropped, exactly as
/// if the process had died at that instant — the harness then calls
/// `Population::restart` at a point of its choosing and recovery sees
/// the log as the crash left it. (The node's in-memory state between
/// fault and restart is torn down wholesale by the restart, so nothing
/// it did after the "crash" can leak into the recovered world.) Fired
/// faults stay fired across restarts: the wrapper itself is the object
/// handed to the next incarnation.
#[derive(Debug)]
pub struct FaultingStore {
    inner: Box<dyn DurableStore>,
    plan: FaultPlan,
    fired: Vec<bool>,
    appends: u64,
    halted: bool,
}

impl FaultingStore {
    /// Wrap `inner`, arming `plan`.
    pub fn new(inner: Box<dyn DurableStore>, plan: FaultPlan) -> FaultingStore {
        let fired = vec![false; plan.faults.len()];
        FaultingStore {
            inner,
            plan,
            fired,
            appends: 0,
            halted: false,
        }
    }

    /// Whether a crash fault has fired and the store is dropping writes.
    pub fn halted(&self) -> bool {
        self.halted
    }
}

impl DurableStore for FaultingStore {
    fn append(&mut self, relation: &str, frame: &[u8]) {
        if self.halted {
            return;
        }
        let idx = self.appends;
        self.appends += 1;
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            match *fault {
                Fault::CrashBeforeAppend { append } if append == idx => {
                    self.fired[i] = true;
                    self.halted = true;
                    return; // frame never reaches the log
                }
                Fault::TornAppend { append, keep_bytes } if append == idx => {
                    self.fired[i] = true;
                    let before = self.inner.log_len(relation);
                    self.inner.append(relation, frame);
                    let keep = keep_bytes.min(RECORD_HEADER + frame.len());
                    self.inner.truncate_log(relation, before + keep);
                    self.halted = true;
                    return;
                }
                Fault::FlipBit { append, byte, bit } if append == idx => {
                    self.fired[i] = true;
                    let before = self.inner.log_len(relation);
                    self.inner.append(relation, frame);
                    // Corrupt the stored frame body (skip the length
                    // prefix: a flipped length is the torn-tail case,
                    // which TornAppend already covers).
                    let off = before + RECORD_HEADER + byte % frame.len().max(1);
                    self.inner.flip_bit(relation, off, bit);
                    return; // silent: the node keeps running
                }
                _ => {}
            }
        }
        self.inner.append(relation, frame);
    }

    fn barrier(&mut self) {
        if self.halted {
            return;
        }
        self.inner.barrier();
        for (i, fault) in self.plan.faults.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            if let Fault::CrashAfterBarrier { append } = *fault {
                if self.appends > append {
                    self.fired[i] = true;
                    self.halted = true;
                }
            }
        }
    }

    fn recover(&mut self) -> Recovery {
        self.halted = false;
        self.inner.recover()
    }

    fn stats(&self) -> DurableStats {
        self.inner.stats()
    }

    fn log_len(&self, relation: &str) -> usize {
        self.inner.log_len(relation)
    }

    fn truncate_log(&mut self, relation: &str, keep: usize) {
        self.inner.truncate_log(relation, keep);
    }

    fn flip_bit(&mut self, relation: &str, offset: usize, bit: u8) {
        self.inner.flip_bit(relation, offset, bit);
    }
}

/// Why [`recovery_report`] refused a directory; nothing under it was
/// created or changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditRefused {
    /// No manifest: the path holds no store. Recovery creates a store
    /// where there is none (what a node's first boot needs); an audit of
    /// a mistyped path must not.
    NoStore,
    /// A store of another format, with the tag its manifest carries.
    OtherFormat(String),
}

/// A human-readable recovery report for one store directory — what
/// `p2ql recover --dir` prints. Runs a full recovery pass (boot counter
/// bumps, dirty logs are rewritten clean) and summarizes per relation.
pub fn recovery_report(dir: &Path) -> Result<String, AuditRefused> {
    use fmt::Write as _;
    if !dir.join(MANIFEST).is_file() {
        return Err(AuditRefused::NoStore);
    }
    let mut out = String::new();
    let mut store = FileDurable::new(dir, false);
    let rec = store.recover();
    if let Some(tag) = store.foreign_tag() {
        return Err(AuditRefused::OtherFormat(tag.to_string()));
    }
    let stats = store.stats();
    let _ = writeln!(out, "durable store: {}", dir.display());
    let _ = writeln!(out, "  boots: {}", stats.boots);
    for (relation, segments) in &rec.relations {
        let rows: u64 = segments.iter().map(Segment::row_count).sum();
        let bytes: usize = segments.iter().map(Segment::len_bytes).sum();
        let _ = writeln!(
            out,
            "  {relation}: {} segments, {rows} rows, {bytes} bytes",
            segments.len()
        );
    }
    let _ = writeln!(
        out,
        "  recovered {} segments, truncated {} tail bytes, quarantined {} frames",
        stats.recovered_segments, rec.truncated_tail_bytes, rec.quarantined
    );
    Ok(out)
}

/// Re-exported for callers that match on recovery errors.
pub type DurableSegmentError = SegmentError;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::SpilledRow;
    use p2_types::{Time, Tuple, Value};

    fn seg(relation: &str, epoch: u64, n: i64) -> Segment {
        let rows: Vec<SpilledRow> = (0..n)
            .map(|i| SpilledRow {
                tuple: Tuple::new(relation, [Value::addr("n1"), Value::Int(i)]),
                inserted_at: Time::from_secs(epoch),
                dropped_at: Time::from_secs(epoch + 1),
            })
            .collect();
        Segment::build(relation, epoch, epoch, &rows)
    }

    #[test]
    fn xxh64_known_answers() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 100 bytes take the four-lane stripe path and every tail step;
        // the low half is the content checksum `zstd --check` writes
        // for the same bytes.
        let ramp: Vec<u8> = (0..100).collect();
        assert_eq!(xxh64(&ramp), 0x6AC1_E580_3216_6597);
    }

    #[test]
    fn mem_round_trip() {
        let mut d = MemDurable::new();
        let a = seg("t", 0, 3);
        let b = seg("t", 1, 2);
        d.append("t", a.as_bytes());
        d.barrier();
        d.append("t", b.as_bytes());
        d.barrier();
        let rec = d.recover();
        assert_eq!(rec.relations.len(), 1);
        assert_eq!(rec.relations[0].1, vec![a, b]);
        assert_eq!(rec.truncated_tail_bytes, 0);
        assert_eq!(rec.quarantined, 0);
        let s = d.stats();
        assert_eq!((s.boots, s.appends, s.fsyncs), (1, 2, 2));
        assert_eq!(s.recovered_segments, 2);
    }

    #[test]
    fn torn_tail_truncates_to_clean_prefix() {
        let mut d = MemDurable::new();
        let a = seg("t", 0, 3);
        let b = seg("t", 1, 2);
        d.append("t", a.as_bytes());
        d.append("t", b.as_bytes());
        let whole = d.log_len("t");
        // Tear the second record at every possible byte.
        for keep in (12 + a.as_bytes().len() + 1)..whole {
            let mut d2 = MemDurable::new();
            d2.append("t", a.as_bytes());
            d2.append("t", b.as_bytes());
            d2.truncate_log("t", keep);
            let rec = d2.recover();
            assert_eq!(rec.relations[0].1, vec![a.clone()], "keep={keep}");
            assert!(rec.truncated_tail_bytes > 0, "keep={keep}");
        }
    }

    #[test]
    fn bit_flip_quarantines_not_panics() {
        let a = seg("t", 0, 3);
        let b = seg("t", 1, 2);
        let reclen = 12 + a.as_bytes().len();
        for off in 0..reclen {
            let mut d = MemDurable::new();
            d.append("t", a.as_bytes());
            d.append("t", b.as_bytes());
            d.flip_bit("t", off, (off % 8) as u8);
            let rec = d.recover();
            // Whatever the flip hit — length prefix or frame body —
            // every recovered segment is one of the originals and the
            // second is never resurrected ahead of the first.
            for s in &rec
                .relations
                .first()
                .map(|r| r.1.clone())
                .unwrap_or_default()
            {
                assert!(*s == a || *s == b, "off={off}");
            }
            // Whether the flip hit the length prefix (torn/misaligned
            // walk) or the frame body (validation failure), the damage
            // must register — a flip can never reconstruct valid bytes.
            assert!(
                rec.quarantined > 0 || rec.truncated_tail_bytes > 0,
                "off={off} damage must be counted"
            );
        }
    }

    #[test]
    fn file_backend_survives_restart() {
        let dir = std::env::temp_dir().join(format!("p2-durable-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = seg("t", 0, 4);
        let b = seg("u", 0, 2);
        {
            let mut d = FileDurable::new(&dir, false);
            d.recover();
            d.append("t", a.as_bytes());
            d.append("u", b.as_bytes());
            d.barrier();
        }
        {
            let mut d = FileDurable::new(&dir, false);
            let rec = d.recover();
            assert_eq!(d.stats().boots, 2, "boot counter persists");
            assert_eq!(rec.relations.len(), 2);
            assert_eq!(rec.relations[0], ("t".to_string(), vec![a.clone()]));
            assert_eq!(rec.relations[1], ("u".to_string(), vec![b.clone()]));
        }
        // Corrupt the tail; the next boot truncates and rewrites clean.
        {
            let mut d = FileDurable::new(&dir, false);
            d.recover();
            d.append("t", a.as_bytes());
            let len = d.log_len("t");
            d.truncate_log("t", len - 3);
            let mut d = FileDurable::new(&dir, false);
            let rec = d.recover();
            assert!(rec.truncated_tail_bytes > 0);
            // Clean after rewrite: a fourth boot sees no damage.
            let mut d = FileDurable::new(&dir, false);
            let rec = d.recover();
            assert_eq!(rec.truncated_tail_bytes, 0);
            assert_eq!(rec.quarantined, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_store_of_another_format_is_refused_and_left_as_found() {
        let dir = std::env::temp_dir().join(format!("p2-durable-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut d = FileDurable::new(&dir, false);
            d.recover();
            d.append("t", seg("t", 0, 3).as_bytes());
            d.barrier();
        }
        let manifest = std::fs::read_to_string(dir.join(MANIFEST)).unwrap();
        std::fs::write(
            dir.join(MANIFEST),
            manifest.replace(MANIFEST_TAG, "p2-durable v1"),
        )
        .unwrap();
        let snapshot = || {
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let bytes = std::fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            files.sort();
            files
        };
        let before = snapshot();
        let mut d = FileDurable::new(&dir, false);
        let rec = d.recover();
        assert!(rec.relations.is_empty());
        assert_eq!(d.foreign_tag(), Some("p2-durable v1"));
        // Appends are dropped and counted, as on a sick disk.
        d.append("t", seg("t", 1, 2).as_bytes());
        d.barrier();
        let s = d.stats();
        assert_eq!((s.boots, s.appends, s.io_errors), (0, 0, 2));
        assert_eq!(d.log_len("t"), 0);
        assert_eq!(snapshot(), before);
        assert_eq!(
            recovery_report(&dir),
            Err(AuditRefused::OtherFormat("p2-durable v1".into()))
        );
        assert_eq!(snapshot(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulting_store_crash_points() {
        let a = seg("t", 0, 3);
        let b = seg("t", 1, 3);
        // Crash before append 1: only the first frame survives.
        let mut d = FaultingStore::new(
            Box::new(MemDurable::new()),
            FaultPlan::new(vec![Fault::CrashBeforeAppend { append: 1 }]),
        );
        d.append("t", a.as_bytes());
        d.barrier();
        d.append("t", b.as_bytes());
        d.barrier();
        assert!(d.halted());
        let rec = d.recover();
        assert_eq!(rec.relations[0].1, vec![a.clone()]);
        assert!(!d.halted(), "recovery clears the halt");
        // After recovery the store accepts appends again, and the fired
        // fault does not re-fire.
        d.append("t", b.as_bytes());
        d.barrier();
        let rec = d.recover();
        assert_eq!(rec.relations[0].1, vec![a.clone(), b.clone()]);

        // Torn append: recovery truncates the tail.
        let mut d = FaultingStore::new(
            Box::new(MemDurable::new()),
            FaultPlan::new(vec![Fault::TornAppend {
                append: 1,
                keep_bytes: 7,
            }]),
        );
        d.append("t", a.as_bytes());
        d.barrier();
        d.append("t", b.as_bytes());
        let rec = d.recover();
        assert_eq!(rec.relations[0].1, vec![a.clone()]);
        assert!(rec.truncated_tail_bytes > 0);

        // Bit flip: silent until recovery quarantines.
        let mut d = FaultingStore::new(
            Box::new(MemDurable::new()),
            FaultPlan::new(vec![Fault::FlipBit {
                append: 0,
                byte: 9,
                bit: 2,
            }]),
        );
        d.append("t", a.as_bytes());
        d.append("t", b.as_bytes());
        assert!(!d.halted(), "corruption is silent");
        let rec = d.recover();
        assert_eq!(rec.relations[0].1, vec![b.clone()]);
        assert_eq!(rec.quarantined, 1);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..32 {
            assert_eq!(FaultPlan::seeded(seed, 10), FaultPlan::seeded(seed, 10));
        }
        // Different seeds spread over fault kinds.
        let kinds: std::collections::HashSet<u8> = (0..64)
            .map(|s| match FaultPlan::seeded(s, 10).faults[0] {
                Fault::CrashBeforeAppend { .. } => 0,
                Fault::TornAppend { .. } => 1,
                Fault::CrashAfterBarrier { .. } => 2,
                Fault::FlipBit { .. } => 3,
            })
            .collect();
        assert_eq!(kinds.len(), 4);
    }

    #[test]
    fn recovery_report_renders() {
        let dir = std::env::temp_dir().join(format!("p2-durable-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d = FileDurable::new(&dir, false);
        d.recover();
        d.append("t", seg("t", 0, 2).as_bytes());
        d.barrier();
        drop(d);
        let out = recovery_report(&dir).unwrap();
        assert!(out.contains("t: 1 segments"));
        assert!(out.contains("quarantined 0 frames"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
