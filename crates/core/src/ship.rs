//! Segment shipping: the distributed-history coordinator (DESIGN.md
//! §2.12).
//!
//! A node-local archive answers `past()` about *this* node. Distributed
//! forensics needs the union: one `past@N("rel", T0, T1, ...)` that
//! ranges over the whole deployment's history. The store side already
//! speaks that language — [`p2_store::HistorySource`] resolves a
//! deployment scan against the imported-segment index — and this module
//! is the transport that fills the index, in two modes:
//!
//! * **Pull (fetch-on-demand).** A collector enrolls peers with
//!   [`Node::ship_add_peer`]. When an event trigger is about to fire a
//!   strand whose plan contains a deployment-provider archive scan, the
//!   dispatcher first checks coverage: any `(peer, relation)` pair not
//!   yet imported is requested over the wire and the trigger is
//!   **staged** — parked until every outstanding request resolves
//!   (reply, nack, or timeout), then released and fired exactly as if
//!   it had just arrived. The strand itself therefore never observes a
//!   half-fetched deployment: by the time it runs, the remote history
//!   is local, and execution stays synchronous and deterministic.
//! * **Subscribe (streaming).** An origin enrolls a collector with
//!   [`Node::ship_subscribe`]. At every GC sweep the origin re-exports
//!   any enrolled relation whose store version moved and streams the
//!   snapshot to its collectors as generation-numbered
//!   [`ShipMsg::Announce`] chunks; collectors apply a generation only
//!   when complete and newer than what they hold. A subscribed
//!   collector's coverage is warm before any query arrives.
//!
//! Ship messages ride ordinary envelopes as `sysShip(dst, payload)`
//! tuples and are intercepted in [`Node::deliver`] *before* the tracing
//! and dispatch machinery — shipping is infrastructure, not
//! application traffic, so it never perturbs traces, watches, or the
//! event log. Failures are never silent: every refused, timed-out, or
//! undecodable fetch lands as a typed [`ShipFailure`], queryable as
//! `sysDiag` tuples, so "no history there" and "peer unreachable" are
//! distinguishable answers rather than indistinguishable empty results.

use crate::node::Node;
use p2_net::ship::{chunk_payload, decode_batch, encode_batch, Reassembly};
use p2_net::{Envelope, ShipMsg};
use p2_store::Segment;
use p2_types::{Addr, Time, TimeDelta, Tuple};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Most ship failures retained for `sysDiag` (oldest evicted first).
const MAX_FAILURES: usize = 64;

/// Shipping knobs. The defaults are inert: with no peers enrolled and
/// no collectors subscribed, a node never sends or stages anything and
/// its behavior is byte-identical to the pre-shipping runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipConfig {
    /// Largest reply/announce chunk, bytes (the paper's runtime ships
    /// one marshaled tuple per datagram; chunking keeps a shipped
    /// archive within that discipline instead of one giant frame).
    pub chunk_bytes: usize,
    /// How long a fetch waits for its reply before retrying.
    pub fetch_timeout: TimeDelta,
    /// Resends after the first attempt before the peer is declared
    /// unreachable and the staged trigger released without coverage.
    pub max_retries: u32,
}

impl Default for ShipConfig {
    fn default() -> Self {
        ShipConfig {
            chunk_bytes: 48 * 1024,
            fetch_timeout: TimeDelta::from_secs(2),
            max_retries: 2,
        }
    }
}

/// Shipping counters, surfaced as `archive.ship.*` rows in `sysStat`
/// (only on nodes where shipping is active — see
/// [`Node::ship_active`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipStats {
    /// Fetch requests sent (including retries).
    pub requests_sent: u64,
    /// Fetch requests served with a reply.
    pub requests_served: u64,
    /// Reply chunks sent.
    pub reply_chunks_sent: u64,
    /// Reply chunks received.
    pub reply_chunks_received: u64,
    /// Fetches that completed with imported history.
    pub fetches_completed: u64,
    /// Announce chunks sent (subscribe mode).
    pub announce_chunks_sent: u64,
    /// Announce chunks received.
    pub announce_chunks_received: u64,
    /// Complete announce generations applied.
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
    /// Payload bytes sent (reply + announce chunks).
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Messages dropped as unparseable or uncorrelated.
    pub strays: u64,
    /// Sealed segments shipped in delta announces instead of being
    /// re-shipped with the full history (subscribe-mode savings).
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

/// An in-flight fetch of one `(peer, relation)` pair.
#[derive(Debug)]
struct PendingFetch {
    peer: Addr,
    relation: String,
    deadline: Time,
    retries: u32,
    reassembly: Reassembly,
}

/// One reply chunk's fields, bundled off [`ShipMsg::Reply`].
#[derive(Debug)]
struct ReplyFrame {
    req_id: u64,
    chunk: u32,
    chunks: u32,
    watermark: u64,
    bytes: Vec<u8>,
}

/// One announce chunk's fields, bundled off [`ShipMsg::Announce`].
#[derive(Debug)]
struct AnnounceFrame {
    gen: u64,
    chunk: u32,
    chunks: u32,
    delta: bool,
    prev_hi: u64,
    watermark: u64,
    oldest_lo: u64,
    bytes: Vec<u8>,
}

/// An event trigger parked until its fetches resolve.
#[derive(Debug)]
struct StagedTrigger {
    tuple: Tuple,
    traced: bool,
    outstanding: BTreeSet<u64>,
}

/// Per-node shipping state. Inert (and cost-free on every hot path)
/// until a peer is enrolled, a collector subscribes, or a ship message
/// arrives.
#[derive(Debug, Default)]
pub(crate) struct ShipState {
    /// Peers whose history this node fetches on demand (pull mode).
    peers: Vec<Addr>,
    /// Collectors this node streams snapshots to (subscribe mode).
    collectors: Vec<Addr>,
    /// `(origin, relation)` pairs with resolved coverage: imported
    /// history, or an authoritative "no history" answer.
    covered: BTreeSet<(String, String)>,
    pending: BTreeMap<u64, PendingFetch>,
    staged: Vec<StagedTrigger>,
    /// Triggers whose fetches all resolved, awaiting re-dispatch (in
    /// staging order).
    pub(crate) released: VecDeque<(Tuple, bool)>,
    next_req: u64,
    /// Subscribe mode: next announce generation. On a durable restart
    /// the boot counter is folded into the high bits (see
    /// `Node::boot`), so post-restart generations outrun every
    /// pre-crash one and collectors never mistake them for stale.
    pub(crate) announce_gen: u64,
    /// Store version last announced per relation (skip no-op streams).
    announced_version: BTreeMap<String, u64>,
    /// Origin side: baseline of the last announce per relation —
    /// `(epoch_hi of the newest sealed segment, fingerprint of the
    /// whole sealed tier)`. The next announce ships a delta only when
    /// this fingerprint still matches a prefix of the current sealed
    /// tier (no compaction, pruning, or age-drop rewrote the
    /// baseline); anything else falls back to a full snapshot.
    announced_baseline: BTreeMap<String, (u64, u64)>,
    /// Newest generation applied per `(origin, relation)`.
    announce_last: BTreeMap<(String, String), u64>,
    /// Collector side: the baseline epoch-hi currently held per
    /// `(origin, relation)` — set by full announces and pull fetches,
    /// advanced by deltas. A delta whose `prev_hi` exceeds this is a
    /// gap (missed announce, or we restarted): fall back to a pull.
    announce_watermark: BTreeMap<(String, String), u64>,
    /// In-progress announce reassembly per `(origin, relation)`.
    announce_rx: BTreeMap<(String, String), (u64, Reassembly)>,
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

    /// Resolve request `req`: drop the pending entry and unblock every
    /// staged trigger that was waiting on it.
    fn resolve(&mut self, req: u64) {
        self.pending.remove(&req);
        let mut i = 0;
        while i < self.staged.len() {
            self.staged[i].outstanding.remove(&req);
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
    /// (pull mode). A deployment-provider `past()` installed here will
    /// stage its triggers until every enrolled peer's history of the
    /// scanned relations is covered.
    pub fn ship_add_peer(&mut self, peer: Addr) {
        self.ship.active = true;
        if peer != self.addr && !self.ship.peers.contains(&peer) {
            self.ship.peers.push(peer);
        }
    }

    /// Subscribe a collector: from now on, every GC sweep streams any
    /// enrolled relation whose history moved to `collector` as
    /// generation-numbered announce chunks.
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

    /// Whether `(origin, relation)` coverage is resolved here — either
    /// imported history or an authoritative "no history" answer.
    pub fn ship_covered(&self, origin: &Addr, relation: &str) -> bool {
        self.ship
            .covered
            .contains(&(origin.as_str().to_string(), relation.to_string()))
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
        if let ShipMsg::Reply { bytes, .. } | ShipMsg::Announce { bytes, .. } = msg {
            self.ship.stats.bytes_sent += bytes.len() as u64;
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
        let src = env.src.clone();
        for tuple in &env.tuples {
            match ShipMsg::from_tuple(tuple) {
                Ok(msg) => self.ship_handle(&src, msg, now),
                Err(_) => {
                    self.ship.stats.strays += 1;
                    self.metrics.malformed_drops += 1;
                }
            }
        }
        true
    }

    fn ship_handle(&mut self, src: &Addr, msg: ShipMsg, now: Time) {
        match msg {
            ShipMsg::Request {
                req_id, relation, ..
            } => self.ship_serve_request(src, req_id, &relation, now),
            ShipMsg::Reply {
                req_id,
                relation,
                chunk,
                chunks,
                watermark,
                oldest_lo: _,
                bytes,
            } => self.ship_accept_reply(
                src,
                &relation,
                ReplyFrame {
                    req_id,
                    chunk,
                    chunks,
                    watermark,
                    bytes,
                },
            ),
            ShipMsg::Announce {
                gen,
                relation,
                chunk,
                chunks,
                delta,
                prev_hi,
                watermark,
                oldest_lo,
                bytes,
            } => self.ship_accept_announce(
                src,
                &relation,
                AnnounceFrame {
                    gen,
                    chunk,
                    chunks,
                    delta,
                    prev_hi,
                    watermark,
                    oldest_lo,
                    bytes,
                },
                now,
            ),
            ShipMsg::Nack {
                req_id,
                relation,
                reason,
            } => self.ship_accept_nack(src, req_id, &relation, reason),
        }
    }

    /// Origin side: serve a fetch. The request window is advisory —
    /// the full visible history ships, so the importer can answer any
    /// later window from the same snapshot.
    fn ship_serve_request(&mut self, src: &Addr, req_id: u64, relation: &str, now: Time) {
        match self.catalog.export_history_meta(relation, now) {
            Some(export) => {
                self.ship.stats.requests_served += 1;
                let watermark = export.watermark.unwrap_or(u64::MAX);
                let oldest_lo = export.oldest.unwrap_or(u64::MAX);
                let encoded: Vec<Vec<u8>> = export
                    .frames
                    .iter()
                    .map(|s| s.as_bytes().to_vec())
                    .collect();
                let batch = encode_batch(&encoded);
                let parts = chunk_payload(&batch, self.config.ship.chunk_bytes.max(1));
                let chunks = parts.len() as u32;
                for (i, bytes) in parts.into_iter().enumerate() {
                    self.ship.stats.reply_chunks_sent += 1;
                    self.ship_send(
                        src,
                        &ShipMsg::Reply {
                            req_id,
                            relation: relation.to_string(),
                            chunk: i as u32,
                            chunks,
                            watermark,
                            oldest_lo,
                            bytes,
                        },
                    );
                }
            }
            None => {
                self.ship.stats.nacks_sent += 1;
                self.ship_send(
                    src,
                    &ShipMsg::Nack {
                        req_id,
                        relation: relation.to_string(),
                        reason: "archiving disabled at origin".to_string(),
                    },
                );
            }
        }
    }

    /// Collector side: accept one reply chunk; on completion validate
    /// and import the snapshot and release whatever was staged on it.
    fn ship_accept_reply(&mut self, src: &Addr, relation: &str, frame: ReplyFrame) {
        self.ship.stats.reply_chunks_received += 1;
        self.ship.stats.bytes_received += frame.bytes.len() as u64;
        let Some(p) = self.ship.pending.get_mut(&frame.req_id) else {
            self.ship.stats.strays += 1; // late reply to a retired request
            return;
        };
        if p.relation != relation || &p.peer != src {
            self.ship.stats.strays += 1;
            return;
        }
        let payload = match p.reassembly.offer(frame.chunk, frame.chunks, frame.bytes) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // more chunks coming
            Err(e) => {
                self.ship.record_failure(ShipFailure::BadSegment {
                    origin: src.as_str().to_string(),
                    relation: relation.to_string(),
                    detail: e.to_string(),
                });
                self.ship.resolve(frame.req_id);
                return;
            }
        };
        match ship_decode_segments(&payload, relation) {
            Ok(segments) => {
                let key = (src.as_str().to_string(), relation.to_string());
                self.catalog
                    .import_history(src.as_str(), relation, segments);
                // The snapshot establishes a fresh baseline for future
                // delta announces (or clears it when nothing is sealed).
                if frame.watermark == u64::MAX {
                    self.ship.announce_watermark.remove(&key);
                } else {
                    self.ship
                        .announce_watermark
                        .insert(key.clone(), frame.watermark);
                }
                self.ship.covered.insert(key);
                self.ship.stats.fetches_completed += 1;
                // A completed fetch supersedes any earlier "peer
                // unreachable" verdict — the peer came back (restart
                // recovery), so the stale failure must not linger.
                self.ship_clear_unreachable(src, relation);
            }
            Err(detail) => {
                self.ship.record_failure(ShipFailure::BadSegment {
                    origin: src.as_str().to_string(),
                    relation: relation.to_string(),
                    detail,
                });
            }
        }
        self.ship.resolve(frame.req_id);
    }

    /// Drop a lingering `P2S902` (peer unreachable) diagnostic for
    /// `origin/relation` once history flows from that peer again.
    fn ship_clear_unreachable(&mut self, origin: &Addr, relation: &str) {
        self.ship.failures.retain(|f| {
            !matches!(f, ShipFailure::PeerUnreachable { origin: o, relation: r }
                if o == origin.as_str() && r == relation)
        });
    }

    /// Collector side: a peer refused. That is an *answer* — coverage
    /// resolves (so queries stop waiting on this pair) and the refusal
    /// stays queryable as a typed failure.
    fn ship_accept_nack(&mut self, src: &Addr, req_id: u64, relation: &str, reason: String) {
        self.ship.stats.nacks_received += 1;
        let Some(p) = self.ship.pending.get(&req_id) else {
            self.ship.stats.strays += 1;
            return;
        };
        if p.relation != relation || &p.peer != src {
            self.ship.stats.strays += 1;
            return;
        }
        self.ship.record_failure(ShipFailure::NoHistory {
            origin: src.as_str().to_string(),
            relation: relation.to_string(),
            reason,
        });
        self.ship
            .covered
            .insert((src.as_str().to_string(), relation.to_string()));
        self.ship.resolve(req_id);
    }

    /// Collector side: accept one announce chunk (subscribe mode). A
    /// complete *full* snapshot replaces whatever is held; a complete
    /// *delta* extends the held baseline — but only when this
    /// collector actually holds the baseline the origin extended
    /// (`prev_hi`). A mismatch means a missed generation (loss window,
    /// collector restart): the delta is discarded and coverage is
    /// repaired with an ordinary pull fetch, whose reply carries the
    /// origin's full history and a fresh baseline watermark.
    fn ship_accept_announce(
        &mut self,
        src: &Addr,
        relation: &str,
        frame: AnnounceFrame,
        now: Time,
    ) {
        self.ship.stats.announce_chunks_received += 1;
        self.ship.stats.bytes_received += frame.bytes.len() as u64;
        let key = (src.as_str().to_string(), relation.to_string());
        let gen = frame.gen;
        if self.ship.announce_last.get(&key).is_some_and(|&g| gen <= g) {
            return; // stale generation
        }
        let rx = self
            .ship
            .announce_rx
            .entry(key.clone())
            .or_insert_with(|| (gen, Reassembly::new()));
        if rx.0 < gen {
            *rx = (gen, Reassembly::new()); // newer snapshot supersedes
        } else if rx.0 > gen {
            return;
        }
        let payload = match rx.1.offer(frame.chunk, frame.chunks, frame.bytes) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) => {
                self.ship.announce_rx.remove(&key);
                self.ship.record_failure(ShipFailure::BadSegment {
                    origin: key.0,
                    relation: relation.to_string(),
                    detail: e.to_string(),
                });
                return;
            }
        };
        self.ship.announce_rx.remove(&key);
        if frame.delta {
            let held = self.ship.announce_watermark.get(&key).copied();
            if held.is_none_or(|w| w < frame.prev_hi) {
                // Gap: we never saw the baseline this delta extends.
                // Keep what we hold and re-fetch the full history.
                self.ship_refetch(src, relation, now);
                return;
            }
        }
        match ship_decode_segments(&payload, relation) {
            Ok(segments) => {
                if frame.delta {
                    self.catalog.import_history_delta(
                        src.as_str(),
                        relation,
                        frame.prev_hi,
                        frame.oldest_lo,
                        segments,
                    );
                } else {
                    self.catalog
                        .import_history(src.as_str(), relation, segments);
                }
                if frame.watermark == u64::MAX {
                    self.ship.announce_watermark.remove(&key);
                } else {
                    self.ship
                        .announce_watermark
                        .insert(key.clone(), frame.watermark);
                }
                self.ship.announce_last.insert(key.clone(), gen);
                self.ship.covered.insert(key);
                self.ship.stats.announces_applied += 1;
                self.ship_clear_unreachable(src, relation);
            }
            Err(detail) => {
                self.ship.record_failure(ShipFailure::BadSegment {
                    origin: key.0,
                    relation: relation.to_string(),
                    detail,
                });
            }
        }
    }

    /// Issue a standalone full fetch of `(peer, relation)` — the
    /// delta-gap repair path — joining any in-flight fetch of the same
    /// pair instead of duplicating it. Nothing stages on it; the
    /// timeout machinery retries and resolves it like any other fetch.
    fn ship_refetch(&mut self, peer: &Addr, relation: &str, now: Time) {
        let dup = self
            .ship
            .pending
            .values()
            .any(|p| &p.peer == peer && p.relation == relation);
        if !dup {
            self.ship_send_request(peer, relation, now);
        }
    }

    // ------------------------------------------------------- pull staging

    /// Decide whether an event trigger must be staged behind fetches.
    /// Called by the dispatcher just before firing event strands: when
    /// any watching strand scans history through the deployment
    /// provider and some enrolled `(peer, relation)` pair is not yet
    /// covered, requests go out, the trigger parks, and the caller
    /// must *not* fire the strands now. Periodic- and table-triggered
    /// deployment scans are not staged — they see whatever coverage
    /// subscribe mode (or earlier fetches) already established.
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
        let mut rels: BTreeSet<String> = BTreeSet::new();
        for &idx in strand_idxs {
            for rel in self.strands[idx].remote_history_relations() {
                rels.insert(rel.to_string());
            }
        }
        if rels.is_empty() {
            return false;
        }
        let mut outstanding = BTreeSet::new();
        let peers = self.ship.peers.clone();
        for peer in &peers {
            for rel in &rels {
                let key = (peer.as_str().to_string(), rel.clone());
                if self.ship.covered.contains(&key) {
                    continue;
                }
                // Join an in-flight fetch of the same pair rather than
                // issuing a duplicate.
                if let Some((&req, _)) = self
                    .ship
                    .pending
                    .iter()
                    .find(|(_, p)| &p.peer == peer && &p.relation == rel)
                {
                    outstanding.insert(req);
                    continue;
                }
                let req = self.ship_send_request(peer, rel, now);
                outstanding.insert(req);
            }
        }
        if outstanding.is_empty() {
            return false; // full coverage: fire immediately
        }
        self.ship.stats.triggers_staged += 1;
        self.ship.staged.push(StagedTrigger {
            tuple: tuple.clone(),
            traced,
            outstanding,
        });
        true
    }

    /// Issue one fetch request and register its pending entry.
    fn ship_send_request(&mut self, peer: &Addr, relation: &str, now: Time) -> u64 {
        self.ship.next_req += 1;
        let req = self.ship.next_req;
        self.ship.pending.insert(
            req,
            PendingFetch {
                peer: peer.clone(),
                relation: relation.to_string(),
                deadline: now + self.config.ship.fetch_timeout,
                retries: 0,
                reassembly: Reassembly::new(),
            },
        );
        self.ship.stats.requests_sent += 1;
        self.ship_send(
            peer,
            &ShipMsg::Request {
                req_id: req,
                relation: relation.to_string(),
                t0: Time::ZERO,
                t1: Time(u64::MAX),
            },
        );
        req
    }

    /// Expire overdue fetches: resend within the retry budget (under a
    /// fresh request id, so a straggling original reply is ignored as
    /// a stray rather than corrupting reassembly), otherwise declare
    /// the peer unreachable and release the staged triggers without
    /// that coverage. Runs at the head of [`Node::fire_timers`] — the
    /// harnesses schedule the wakeup through [`Node::next_timer`].
    pub(crate) fn ship_check_timeouts(&mut self, now: Time) {
        let due: Vec<u64> = self
            .ship
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&r, _)| r)
            .collect();
        for req in due {
            let Some(p) = self.ship.pending.remove(&req) else {
                continue;
            };
            if p.retries < self.config.ship.max_retries {
                self.ship.stats.retries += 1;
                self.ship.next_req += 1;
                let fresh = self.ship.next_req;
                self.ship.pending.insert(
                    fresh,
                    PendingFetch {
                        peer: p.peer.clone(),
                        relation: p.relation.clone(),
                        deadline: now + self.config.ship.fetch_timeout,
                        retries: p.retries + 1,
                        reassembly: Reassembly::new(),
                    },
                );
                for st in &mut self.ship.staged {
                    if st.outstanding.remove(&req) {
                        st.outstanding.insert(fresh);
                    }
                }
                self.ship.stats.requests_sent += 1;
                self.ship_send(
                    &p.peer.clone(),
                    &ShipMsg::Request {
                        req_id: fresh,
                        relation: p.relation,
                        t0: Time::ZERO,
                        t1: Time(u64::MAX),
                    },
                );
            } else {
                self.ship.stats.timeouts += 1;
                self.ship.record_failure(ShipFailure::PeerUnreachable {
                    origin: p.peer.as_str().to_string(),
                    relation: p.relation,
                });
                self.ship.resolve(req);
            }
        }
    }

    // --------------------------------------------------- subscribe stream

    /// Stream changed histories to subscribed collectors. Runs from
    /// [`Node::trace_gc`] — the same population-global instant in both
    /// harnesses, which is what keeps announce timing (and therefore
    /// collector state) bit-identical at any shard count.
    ///
    /// When the sealed tier has only *grown* since the last announce
    /// (same baseline segments, new ones appended — the steady state),
    /// the stream is a **delta**: only segments sealed past the last
    /// announced watermark plus the open tail ship, and the collector
    /// splices them onto the baseline it already holds. Any rewrite of
    /// the baseline — compaction, retention pruning, age drops, or a
    /// relation with nothing sealed yet — falls back to the full
    /// snapshot, which is what keeps a collector's imported history
    /// byte-identical to the origin's export at all times.
    pub(crate) fn ship_announce_pump(&mut self, now: Time) {
        if self.ship.collectors.is_empty() {
            return;
        }
        let relations: Vec<String> = self.catalog.enrolled_relations().to_vec();
        for rel in relations {
            let version = self.catalog.version_of(&rel);
            if self.ship.announced_version.get(&rel) == Some(&version) {
                continue; // nothing moved since the last stream
            }
            let Some(export) = self.catalog.export_history_meta(&rel, now) else {
                return; // archiving off: nothing to stream at all
            };
            self.ship.announced_version.insert(rel.clone(), version);
            self.ship.announce_gen += 1;
            let gen = self.ship.announce_gen;
            let sealed = &export.frames[..export.sealed];
            let watermark = export.watermark.unwrap_or(u64::MAX);
            let oldest_lo = export.oldest.unwrap_or(u64::MAX);
            // Delta iff the previously announced baseline is still a
            // literal prefix of the sealed tier.
            let prev = self.ship.announced_baseline.get(&rel).copied();
            let delta_from = prev.and_then(|(prev_hi, fp)| {
                let baseline: Vec<&Segment> =
                    sealed.iter().filter(|s| s.epoch_hi() <= prev_hi).collect();
                (baseline_fingerprint(baseline.iter().copied()) == fp).then_some(prev_hi)
            });
            if export.sealed > 0 {
                self.ship.announced_baseline.insert(
                    rel.clone(),
                    (
                        export.watermark.unwrap_or(0),
                        baseline_fingerprint(sealed.iter()),
                    ),
                );
            } else {
                self.ship.announced_baseline.remove(&rel);
            }
            let ship_frames: Vec<&Segment> = match delta_from {
                Some(prev_hi) => {
                    let fresh: Vec<&Segment> = export.frames[..export.sealed]
                        .iter()
                        .filter(|s| s.epoch_hi() > prev_hi)
                        .chain(export.frames[export.sealed..].iter())
                        .collect();
                    self.ship.stats.delta_segments += fresh
                        .len()
                        .saturating_sub(export.frames.len() - export.sealed)
                        as u64;
                    fresh
                }
                None => export.frames.iter().collect(),
            };
            let encoded: Vec<Vec<u8>> = ship_frames.iter().map(|s| s.as_bytes().to_vec()).collect();
            let batch = encode_batch(&encoded);
            let parts = chunk_payload(&batch, self.config.ship.chunk_bytes.max(1));
            let chunks = parts.len() as u32;
            let collectors = self.ship.collectors.clone();
            for dst in &collectors {
                for (i, bytes) in parts.iter().enumerate() {
                    self.ship.stats.announce_chunks_sent += 1;
                    self.ship_send(
                        dst,
                        &ShipMsg::Announce {
                            gen,
                            relation: rel.clone(),
                            chunk: i as u32,
                            chunks,
                            delta: delta_from.is_some(),
                            prev_hi: delta_from.unwrap_or(0),
                            watermark,
                            oldest_lo,
                            bytes: bytes.clone(),
                        },
                    );
                }
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
