//! Segment shipping: the distributed-history coordinator (DESIGN.md
//! §2.12).
//!
//! A node that holds only its own archive answers `past()` about
//! *itself*. Distributed forensics needs the union: one
//! `past@N("rel", T0, T1, ...)` that ranges over the whole deployment's
//! history. The store side already speaks that language —
//! [`p2_store::Catalog::deployment_scan`] walks this node's tiers plus
//! the imported-segment index — and this module is the transport that
//! fills the index. There is one protocol: an
//! origin sends a **shipment** (a generation-numbered, chunked snapshot
//! of one relation's history, see [`Shipment`]), the receiver imports it
//! once every chunk has arrived. Who starts it is the only difference
//! between the two modes a user sees:
//!
//! * **Subscribe (the origin starts).** An origin enrolls a collector
//!   with [`Node::ship_subscribe`]. At every GC sweep it re-exports any
//!   enrolled relation whose store version moved and pushes the
//!   shipment to its collectors — a delta when only new sealed segments
//!   were added, the full history otherwise. A subscribed collector's
//!   coverage is warm before any query arrives.
//! * **Pull (the collector starts).** A collector enrolls peers with
//!   [`Node::ship_add_peer`]. When an event trigger is about to fire a
//!   strand whose plan contains a `past()` scan, the dispatcher sends
//!   every enrolled peer that does not stream to this node a
//!   [`ShipMsg::Request`] — which solicits one full shipment, addressed
//!   to the requester alone — and the trigger is **staged**:
//!   parked until every outstanding fetch resolves (a complete
//!   shipment, a nack, or a timeout), then released and fired exactly
//!   as if it had just arrived. The strand never observes a
//!   half-fetched deployment, and execution stays synchronous and
//!   deterministic. A delta whose baseline the receiver does not hold
//!   is repaired the same way, with nothing staged on it.
//!
//! Ship messages ride ordinary envelopes as `sysShip(dst, Bytes(frame))`
//! tuples and are intercepted in [`Node::deliver`] *before* the tracing
//! and dispatch machinery — shipping is infrastructure, not
//! application traffic, so it never perturbs traces, watches, or the
//! event log. Failures are never silent: every refused, timed-out, or
//! undecodable fetch lands as a typed [`ShipFailure`], queryable as
//! `sysDiag` tuples, so "no history there" and "peer unreachable" are
//! distinguishable answers rather than indistinguishable empty results.

use crate::node::Node;
use p2_net::ship::{chunk_payload, decode_batch, encode_batch, Reassembly, Shipment};
use p2_net::{Envelope, ShipMsg};
use p2_store::Segment;
use p2_types::{Addr, Time, TimeDelta, Tuple};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Most ship failures retained for `sysDiag` (oldest evicted first).
const MAX_FAILURES: usize = 64;
/// Largest shipment chunk, bytes (the paper's runtime ships one
/// marshaled tuple per datagram; chunking keeps a shipped archive
/// within that discipline instead of one giant frame). The envelope
/// carrying a full chunk must fit a UDP payload (65,507 bytes): the
/// frame rides as `Value::Bytes`, so 48 KiB leaves ~16 KiB for the
/// shipment header, the relation name and the addresses.
const CHUNK_BYTES: usize = 48 * 1024;
/// How long a fetch waits for its shipment before asking again.
const FETCH_TIMEOUT: TimeDelta = TimeDelta::from_secs(2);
/// Resends after the first attempt before the peer is declared
/// unreachable and the staged trigger released without coverage.
const MAX_RETRIES: u32 = 2;

/// Shipping counters, surfaced as `archive.ship.*` rows in `sysStat`
/// (only on nodes where shipping is active — see
/// [`Node::ship_active`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipStats {
    /// Fetch requests sent (including retries).
    pub requests_sent: u64,
    /// Fetch requests served with a solicited shipment.
    pub requests_served: u64,
    /// Fetches resolved by an applied shipment.
    pub fetches_completed: u64,
    /// Shipment chunks sent, pushed or solicited.
    pub announce_chunks_sent: u64,
    /// Shipment chunks received.
    pub announce_chunks_received: u64,
    /// Complete shipments imported.
    pub announces_applied: u64,
    /// Nacks sent (request refused: archiving disabled here).
    pub nacks_sent: u64,
    /// Nacks received.
    pub nacks_received: u64,
    /// Fetches abandoned after exhausting retries.
    pub timeouts: u64,
    /// Resends after a timed-out attempt.
    pub retries: u64,
    /// Event triggers staged behind outstanding fetches.
    pub triggers_staged: u64,
    /// Staged triggers released (fetches resolved, strand fired).
    pub triggers_released: u64,
    /// Payload bytes sent in shipment chunks.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Messages dropped as unparseable or answering no open fetch.
    pub strays: u64,
    /// Sealed segments shipped in deltas instead of being re-shipped
    /// with the full history.
    pub delta_segments: u64,
}

/// A typed remote-history failure — the §3 forensic distinction
/// between "that node has no history" and "that node never answered",
/// kept queryable instead of collapsed into an empty scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipFailure {
    /// The peer answered: it does not archive (or refused).
    NoHistory {
        /// The refusing peer.
        origin: String,
        /// The relation asked about.
        relation: String,
        /// The peer's stated reason.
        reason: String,
    },
    /// The peer never answered within the retry budget.
    PeerUnreachable {
        /// The silent peer.
        origin: String,
        /// The relation asked about.
        relation: String,
    },
    /// The peer answered with bytes that failed validation.
    BadSegment {
        /// The sending peer.
        origin: String,
        /// The relation shipped.
        relation: String,
        /// The typed decode error, rendered.
        detail: String,
    },
}

impl ShipFailure {
    /// Stable diagnostic code (the `sysDiag` code column).
    pub fn code(&self) -> &'static str {
        match self {
            ShipFailure::NoHistory { .. } => "P2S901",
            ShipFailure::PeerUnreachable { .. } => "P2S902",
            ShipFailure::BadSegment { .. } => "P2S903",
        }
    }

    /// `origin/relation` context string (the `sysDiag` context column).
    pub fn context(&self) -> String {
        match self {
            ShipFailure::NoHistory {
                origin, relation, ..
            }
            | ShipFailure::PeerUnreachable { origin, relation }
            | ShipFailure::BadSegment {
                origin, relation, ..
            } => format!("{origin}/{relation}"),
        }
    }

    /// Human-readable message (the `sysDiag` message column).
    pub fn message(&self) -> String {
        match self {
            ShipFailure::NoHistory { reason, .. } => {
                format!("peer holds no shippable history: {reason}")
            }
            ShipFailure::PeerUnreachable { .. } => {
                "peer unreachable: fetch timed out after retries".to_string()
            }
            ShipFailure::BadSegment { detail, .. } => {
                format!("shipped segment failed validation: {detail}")
            }
        }
    }
}

/// `(origin, relation)`: what a shipment, a fetch and coverage are
/// keyed by.
type Pair = (Addr, String);

/// An in-flight fetch of one pair.
#[derive(Debug)]
struct Fetch {
    deadline: Time,
    retries: u32,
}

/// Receiver-side state of one pair.
#[derive(Debug, Default)]
struct Inbound {
    /// Newest generation applied.
    gen: Option<u64>,
    /// Epoch-hi of the newest sealed segment held — the baseline a
    /// delta may extend. A delta whose base exceeds it is a gap (missed
    /// shipment, or we restarted).
    watermark: Option<u64>,
    /// An answer is held: imported history, or an authoritative "no
    /// history".
    covered: bool,
    /// The origin pushes to us (a pushed shipment has applied), so what
    /// is held follows the origin without asking.
    streamed: bool,
    /// The generation being reassembled.
    rx: Option<(u64, Reassembly)>,
}

/// An event trigger parked until its fetches resolve.
#[derive(Debug)]
struct StagedTrigger {
    tuple: Tuple,
    traced: bool,
    outstanding: BTreeSet<Pair>,
}

/// Per-node shipping state. Inert (and cost-free on every hot path)
/// until a peer is enrolled, a collector subscribes, or a ship message
/// arrives.
#[derive(Debug, Default)]
pub(crate) struct ShipState {
    /// Peers whose history this node fetches on demand (pull mode).
    peers: Vec<Addr>,
    /// Collectors this node pushes shipments to (subscribe mode).
    collectors: Vec<Addr>,
    inbound: BTreeMap<Pair, Inbound>,
    pending: BTreeMap<Pair, Fetch>,
    staged: Vec<StagedTrigger>,
    /// Triggers whose fetches all resolved, awaiting re-dispatch (in
    /// staging order).
    pub(crate) released: VecDeque<(Tuple, bool)>,
    /// Generation of the last shipment sent. On a durable restart the
    /// boot counter is folded into the high bits (see `Node::boot`), so
    /// post-restart generations outrun every pre-crash one and
    /// collectors never mistake them for stale.
    pub(crate) gen: u64,
    /// Store version last pushed per relation (skip no-op sweeps).
    announced_version: BTreeMap<String, u64>,
    /// Baseline of the last push per relation — `(epoch_hi of the
    /// newest sealed segment, fingerprint of the whole sealed tier)`.
    /// The next push is a delta only when this fingerprint still
    /// matches a prefix of the current sealed tier (no compaction,
    /// pruning, or age-drop rewrote the baseline); anything else falls
    /// back to the full history.
    announced_baseline: BTreeMap<String, (u64, u64)>,
    failures: VecDeque<ShipFailure>,
    pub(crate) stats: ShipStats,
    /// Whether any shipping surface was ever touched (gates the
    /// `archive.ship.*` introspection rows).
    active: bool,
}

impl ShipState {
    fn record_failure(&mut self, f: ShipFailure) {
        // One live row per (code, context): a flapping peer refreshes
        // its diagnostic instead of flooding the bounded buffer.
        self.failures
            .retain(|g| !(g.code() == f.code() && g.context() == f.context()));
        if self.failures.len() >= MAX_FAILURES {
            self.failures.pop_front();
        }
        self.failures.push_back(f);
    }

    /// Resolve the fetch of `key`, if one is open: drop the pending
    /// entry and unblock every staged trigger that was waiting on it.
    fn resolve(&mut self, key: &Pair) {
        if self.pending.remove(key).is_none() {
            return;
        }
        let mut i = 0;
        while i < self.staged.len() {
            self.staged[i].outstanding.remove(key);
            if self.staged[i].outstanding.is_empty() {
                let st = self.staged.remove(i);
                self.released.push_back((st.tuple, st.traced));
                self.stats.triggers_released += 1;
            } else {
                i += 1;
            }
        }
    }

    /// Earliest fetch deadline, if any (folded into
    /// [`Node::next_timer`] so the engine schedules a wakeup).
    pub(crate) fn next_deadline(&self) -> Option<Time> {
        self.pending.values().map(|p| p.deadline).min()
    }
}

impl Node {
    /// Enroll a peer whose history this node will fetch on demand
    /// (pull mode). A `past()` installed here will stage its triggers
    /// behind a fresh fetch of the scanned relations from every
    /// enrolled peer that does not stream them here.
    pub fn ship_add_peer(&mut self, peer: Addr) {
        self.ship.active = true;
        if peer != self.addr && !self.ship.peers.contains(&peer) {
            self.ship.peers.push(peer);
        }
    }

    /// Subscribe a collector: from now on, every GC sweep pushes any
    /// enrolled relation whose history moved to `collector` as a
    /// generation-numbered shipment.
    pub fn ship_subscribe(&mut self, collector: Addr) {
        self.ship.active = true;
        if collector != self.addr && !self.ship.collectors.contains(&collector) {
            self.ship.collectors.push(collector);
        }
    }

    /// Shipping counters.
    pub fn ship_stats(&self) -> ShipStats {
        self.ship.stats
    }

    /// Typed remote-history failures, oldest first (also reflected as
    /// `sysDiag` rows on [`Node::refresh_introspection`]).
    pub fn ship_failures(&self) -> impl Iterator<Item = &ShipFailure> + '_ {
        self.ship.failures.iter()
    }

    /// Whether an answer about `(origin, relation)` is held here —
    /// imported history, or an authoritative "no history".
    pub fn ship_covered(&self, origin: &Addr, relation: &str) -> bool {
        let key = (origin.clone(), relation.to_string());
        self.ship.inbound.get(&key).is_some_and(|h| h.covered)
    }

    /// Whether any shipping surface was ever touched on this node.
    pub fn ship_active(&self) -> bool {
        self.ship.active
    }

    // ------------------------------------------------------ wire plumbing

    /// Send one ship message to `dst` as its own envelope. Ship frames
    /// never coalesce with application traffic and never enter the
    /// tracer — shipping moves infrastructure bytes, not tuples the
    /// monitored system produced.
    fn ship_send(&mut self, dst: &Addr, msg: &ShipMsg) {
        if let ShipMsg::Shipment(s) = msg {
            self.ship.stats.announce_chunks_sent += 1;
            self.ship.stats.bytes_sent += s.bytes.len() as u64;
        }
        let mut env = Envelope {
            tuples: Vec::new(),
            src: self.addr.clone(),
            dst: dst.clone(),
            src_tuple_ids: Vec::new(),
            delete: false,
        };
        env.push(msg.to_tuple(dst), None);
        self.metrics.tuples_sent += 1;
        self.metrics.msgs_sent += 1;
        self.outbox.push(env);
    }

    /// Intercept and handle a `sysShip` envelope. Returns `true` when
    /// the envelope was shipping traffic (the caller must not dispatch
    /// it further).
    pub(crate) fn ship_intercept(&mut self, env: &Envelope, now: Time) -> bool {
        if env.relation() != Some(p2_net::SHIP_RELATION) {
            return false;
        }
        self.ship.active = true;
        for tuple in &env.tuples {
            match ShipMsg::from_tuple(tuple) {
                Ok(ShipMsg::Request { relation }) => {
                    if self.ship_out(&relation, std::slice::from_ref(&env.src), true, now) {
                        self.ship.stats.requests_served += 1;
                    } else {
                        self.ship.stats.nacks_sent += 1;
                        let reason = "archiving disabled at origin".to_string();
                        self.ship_send(&env.src, &ShipMsg::Nack { relation, reason });
                    }
                }
                Ok(ShipMsg::Shipment(s)) => self.ship_accept(&env.src, s, now),
                Ok(ShipMsg::Nack { relation, reason }) => {
                    self.ship_accept_nack(&env.src, relation, reason)
                }
                Err(_) => {
                    self.ship.stats.strays += 1;
                    self.metrics.malformed_drops += 1;
                }
            }
        }
        true
    }

    // ------------------------------------------------------- origin side

    /// Push changed histories to subscribed collectors. Runs from
    /// [`Node::trace_gc`] — the same population-global instant at any
    /// shard count, which is what keeps shipment timing (and therefore
    /// collector state) bit-identical.
    pub(crate) fn ship_announce_pump(&mut self, now: Time) {
        if self.ship.collectors.is_empty() {
            return;
        }
        let collectors = self.ship.collectors.clone();
        for rel in self.catalog.enrolled_relations().to_vec() {
            let version = self.catalog.version_of(&rel);
            if self.ship.announced_version.get(&rel) == Some(&version) {
                continue; // nothing moved since the last push
            }
            if !self.ship_out(&rel, &collectors, false, now) {
                return; // archiving off: nothing to push at all
            }
            self.ship.announced_version.insert(rel, version);
        }
    }

    /// Ship `relation`'s history to every node in `to` under one fresh
    /// generation: export, batch, chunk, send. `false` (nothing sent)
    /// when this node does not archive.
    ///
    /// A **pushed** shipment is a delta when the sealed tier has only
    /// *grown* since the last push (same baseline segments, new ones
    /// appended — the steady state): only segments sealed past the last
    /// pushed watermark plus the open tail ship, and the collector
    /// splices them onto the baseline it already holds. Any rewrite of
    /// the baseline — compaction, retention pruning, age drops, or a
    /// relation with nothing sealed yet — ships the full history, which
    /// is what keeps a collector's imported history byte-identical to
    /// the origin's export at all times. A **solicited** shipment is
    /// always full and leaves the push baseline alone: the other
    /// subscribers did not receive it.
    fn ship_out(&mut self, relation: &str, to: &[Addr], solicited: bool, now: Time) -> bool {
        let Some(export) = self.catalog.export_history(relation, now) else {
            return false;
        };
        self.ship.gen += 1;
        let (sealed, tail) = export.frames.split_at(export.sealed);
        let mut base = None;
        if !solicited {
            // Delta iff the previously pushed baseline is still a
            // literal prefix of the sealed tier.
            if let Some(&(prev_hi, fp)) = self.ship.announced_baseline.get(relation) {
                let baseline = sealed.iter().filter(|s| s.epoch_hi() <= prev_hi);
                base = (baseline_fingerprint(baseline) == fp).then_some(prev_hi);
            }
            match export.watermark {
                Some(hi) => {
                    let now_held = (hi, baseline_fingerprint(sealed.iter()));
                    self.ship
                        .announced_baseline
                        .insert(relation.to_string(), now_held);
                }
                None => {
                    self.ship.announced_baseline.remove(relation);
                }
            }
        }
        let fresh: Vec<&Segment> = sealed
            .iter()
            .filter(|s| base.is_none_or(|hi| s.epoch_hi() > hi))
            .collect();
        if base.is_some() {
            self.ship.stats.delta_segments += fresh.len() as u64;
        }
        let encoded: Vec<Vec<u8>> = fresh
            .into_iter()
            .chain(tail)
            .map(|s| s.as_bytes().to_vec())
            .collect();
        let parts = chunk_payload(&encode_batch(&encoded), CHUNK_BYTES);
        for dst in to {
            for (i, bytes) in parts.iter().enumerate() {
                let frame = Shipment {
                    gen: self.ship.gen,
                    relation: relation.to_string(),
                    chunk: i as u32,
                    chunks: parts.len() as u32,
                    solicited,
                    base,
                    watermark: export.watermark.unwrap_or(u64::MAX),
                    oldest_lo: export.oldest.unwrap_or(u64::MAX),
                    bytes: bytes.clone(),
                };
                self.ship_send(dst, &ShipMsg::Shipment(frame));
            }
        }
        true
    }

    // ----------------------------------------------------- receiver side

    /// Accept one shipment chunk; once the generation is complete,
    /// validate it, import it, record coverage and watermark, and
    /// resolve the fetch of this pair if one is open.
    ///
    /// Generations order shipments: a pushed one must be newer than
    /// what is held. A solicited one answers a fetch we have open and is
    /// taken whatever its generation (an origin that restarted without
    /// its durable log counts from zero again); one that finds no open
    /// fetch is late and a stray. A full shipment replaces whatever is
    /// held; a delta extends the held baseline — but only when this
    /// node actually holds the baseline the origin extended. If not (a
    /// missed generation, or we restarted), what is held stays and a
    /// full shipment is solicited.
    fn ship_accept(&mut self, src: &Addr, s: Shipment, now: Time) {
        self.ship.stats.announce_chunks_received += 1;
        self.ship.stats.bytes_received += s.bytes.len() as u64;
        let key = (src.clone(), s.relation);
        let relation = key.1.as_str();
        let fetching = self.ship.pending.contains_key(&key);
        if s.solicited && !fetching {
            self.ship.stats.strays += 1;
            return;
        }
        let held = self.ship.inbound.entry(key.clone()).or_default();
        if !s.solicited && held.gen.is_some_and(|g| s.gen <= g) {
            return; // stale generation
        }
        let rx = held.rx.get_or_insert_with(|| (s.gen, Reassembly::new()));
        if rx.0 < s.gen {
            *rx = (s.gen, Reassembly::new()); // newer shipment supersedes
        } else if rx.0 > s.gen {
            return;
        }
        let segments = match rx.1.offer(s.chunk, s.chunks, s.bytes) {
            Ok(None) => return, // more chunks coming
            Ok(Some(_))
                if s.base
                    .is_some_and(|hi| held.watermark.is_none_or(|w| w < hi)) =>
            {
                held.rx = None;
                self.ship_fetch(&key, now);
                return;
            }
            Ok(Some(payload)) => ship_decode_segments(&payload, relation),
            Err(e) => Err(e.to_string()),
        };
        held.rx = None;
        match segments {
            Ok(segments) => {
                held.gen = Some(s.gen);
                held.watermark = (s.watermark != u64::MAX).then_some(s.watermark);
                held.covered = true;
                held.streamed |= !s.solicited;
                let keep = s.base.map(|prev_hi| s.oldest_lo..=prev_hi);
                self.catalog
                    .import_history(src.as_str(), relation, keep, segments);
                self.ship.stats.announces_applied += 1;
                self.ship.stats.fetches_completed += u64::from(fetching);
                // History flows from this peer again (it restarted,
                // say), so a "peer unreachable" verdict must not linger.
                self.ship.failures.retain(|f| {
                    !matches!(f, ShipFailure::PeerUnreachable { origin: o, relation: r }
                        if o == src.as_str() && r == relation)
                });
            }
            Err(detail) => self.ship.record_failure(ShipFailure::BadSegment {
                origin: src.as_str().to_string(),
                relation: relation.to_string(),
                detail,
            }),
        }
        self.ship.resolve(&key);
    }

    /// A peer refused. That is an *answer* — the fetch resolves (so
    /// queries stop waiting on this pair) and the refusal stays
    /// queryable as a typed failure.
    fn ship_accept_nack(&mut self, src: &Addr, relation: String, reason: String) {
        self.ship.stats.nacks_received += 1;
        let key = (src.clone(), relation);
        if !self.ship.pending.contains_key(&key) {
            self.ship.stats.strays += 1;
            return;
        }
        self.ship.record_failure(ShipFailure::NoHistory {
            origin: src.as_str().to_string(),
            relation: key.1.clone(),
            reason,
        });
        self.ship.inbound.entry(key.clone()).or_default().covered = true;
        self.ship.resolve(&key);
    }

    /// Decide whether an event trigger must be staged behind fetches.
    /// Called by the dispatcher just before firing event strands: when
    /// any watching strand scans history (`past()`) and this node has
    /// enrolled peers, every peer that does not stream the scanned
    /// relations here is asked for them, the trigger parks, and the
    /// caller must *not* fire the strands now. What an earlier fetch
    /// brought is as old as that fetch, so each staged trigger asks
    /// again; only a pair whose origin pushes to us stays warm.
    /// Periodic- and table-triggered scans are not staged — they see
    /// whatever has been imported so far.
    pub(crate) fn ship_stage_event(
        &mut self,
        strand_idxs: &[usize],
        tuple: &Tuple,
        traced: bool,
        now: Time,
    ) -> bool {
        if self.ship.peers.is_empty() {
            return false;
        }
        let mut rels: BTreeSet<&str> = BTreeSet::new();
        for &idx in strand_idxs {
            rels.extend(self.strands[idx].history_relations());
        }
        let mut outstanding = BTreeSet::new();
        for peer in &self.ship.peers {
            for rel in &rels {
                let key = (peer.clone(), rel.to_string());
                if !self.ship.inbound.get(&key).is_some_and(|h| h.streamed) {
                    outstanding.insert(key);
                }
            }
        }
        if outstanding.is_empty() {
            return false; // nothing to ask for: fire immediately
        }
        for key in &outstanding {
            self.ship_fetch(key, now);
        }
        self.ship.stats.triggers_staged += 1;
        self.ship.staged.push(StagedTrigger {
            tuple: tuple.clone(),
            traced,
            outstanding,
        });
        true
    }

    /// Open a fetch of `key` — unless one is already in flight, which
    /// the caller joins instead of duplicating.
    fn ship_fetch(&mut self, key: &Pair, now: Time) {
        if self.ship.pending.contains_key(key) {
            return;
        }
        let fetch = Fetch {
            deadline: now + FETCH_TIMEOUT,
            retries: 0,
        };
        self.ship.pending.insert(key.clone(), fetch);
        self.ship_send_request(key);
    }

    fn ship_send_request(&mut self, key: &Pair) {
        // Whatever is half-reassembled predates this request; the
        // answer supersedes it even if its generation is lower.
        if let Some(held) = self.ship.inbound.get_mut(key) {
            held.rx = None;
        }
        self.ship.stats.requests_sent += 1;
        let relation = key.1.clone();
        self.ship_send(&key.0, &ShipMsg::Request { relation });
    }

    /// Expire overdue fetches: ask again within the retry budget (a
    /// straggling answer to the earlier attempt carries an older
    /// generation, so it cannot corrupt the newer one's reassembly),
    /// otherwise declare the peer unreachable and release the staged
    /// triggers without that coverage. Runs at the head of
    /// [`Node::fire_timers`] — the engine schedules the wakeup through
    /// [`Node::next_timer`].
    pub(crate) fn ship_check_timeouts(&mut self, now: Time) {
        let due: Vec<Pair> = self
            .ship
            .pending
            .iter()
            .filter(|(_, f)| f.deadline <= now)
            .map(|(key, _)| key.clone())
            .collect();
        for key in due {
            let Some(f) = self.ship.pending.get_mut(&key) else {
                continue;
            };
            if f.retries < MAX_RETRIES {
                f.retries += 1;
                f.deadline = now + FETCH_TIMEOUT;
                self.ship.stats.retries += 1;
                self.ship_send_request(&key);
            } else {
                self.ship.stats.timeouts += 1;
                self.ship.record_failure(ShipFailure::PeerUnreachable {
                    origin: key.0.as_str().to_string(),
                    relation: key.1.clone(),
                });
                self.ship.resolve(&key);
            }
        }
    }
}

/// Fingerprint a sealed-tier prefix: FNV over each segment's epoch
/// range, byte length, and row count. Two sealed tiers with the same
/// fingerprint hold the same segments for the delta protocol's purposes
/// (compaction, pruning, and age drops all change it).
fn baseline_fingerprint<'a>(segments: impl Iterator<Item = &'a Segment>) -> u64 {
    let mut buf = Vec::new();
    for s in segments {
        buf.extend_from_slice(&s.epoch_lo().to_le_bytes());
        buf.extend_from_slice(&s.epoch_hi().to_le_bytes());
        buf.extend_from_slice(&(s.len_bytes() as u64).to_le_bytes());
        buf.extend_from_slice(&s.row_count().to_le_bytes());
    }
    p2_types::rng::fnv1a(&buf)
}

/// Decode a reassembled payload into validated segments, all of the
/// expected relation. Any hostile, truncated, or misdirected byte maps
/// to a rendered error string, never a panic.
fn ship_decode_segments(payload: &[u8], relation: &str) -> Result<Vec<Segment>, String> {
    let frames = decode_batch(payload).map_err(|e| e.to_string())?;
    let mut segments = Vec::with_capacity(frames.len());
    for f in &frames {
        let seg = Segment::from_bytes(f).map_err(|e| e.to_string())?;
        if seg.relation() != relation {
            return Err(format!(
                "segment for '{}' shipped under '{relation}'",
                seg.relation()
            ));
        }
        segments.push(seg);
    }
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full chunk must cross the UDP transport as one datagram: the
    /// envelope [`Node::ship_send`] builds around it, under the longest
    /// header the codec can produce (every integer field is fixed-width;
    /// the text fields are the relation and the three addresses), stays
    /// within the 65,507 bytes `send_to` accepts.
    #[test]
    fn a_full_chunk_fits_one_udp_datagram() {
        const UDP_PAYLOAD_MAX: usize = 65_507;
        // Longest textual socket address: bracketed IPv6 with an
        // embedded IPv4 tail, a numeric scope and a 5-digit port.
        let addr = Addr::new("[ffff:ffff:ffff:ffff:ffff:ffff:255.255.255.255%4294967295]:65535");
        let msg = ShipMsg::Shipment(Shipment {
            gen: u64::MAX,
            relation: "r".repeat(1024),
            chunk: u32::MAX - 1,
            chunks: u32::MAX,
            solicited: true,
            base: Some(u64::MAX),
            watermark: u64::MAX,
            oldest_lo: u64::MAX,
            bytes: vec![0xA5; CHUNK_BYTES],
        });
        let mut env = Envelope {
            tuples: Vec::new(),
            src: addr.clone(),
            dst: addr.clone(),
            src_tuple_ids: Vec::new(),
            delete: false,
        };
        env.push(msg.to_tuple(&addr), None);
        let wire = p2_net::wire::encode_envelope(&env);
        assert!(
            wire.len() <= UDP_PAYLOAD_MAX,
            "{} bytes on the wire",
            wire.len()
        );
        let back = p2_net::wire::decode_envelope(&wire).unwrap();
        assert_eq!(ShipMsg::from_tuple(&back.tuples[0]).unwrap(), msg);
    }
}
