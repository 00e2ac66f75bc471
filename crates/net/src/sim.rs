//! Deterministic discrete-event simulated network.
//!
//! All nodes run in one process over a virtual clock (owned by the
//! simulation harness in `p2-core`); this module is the message fabric:
//!
//! * **Per-link FIFO.** The Chandy–Lamport snapshot implementation of
//!   §3.3 assumes FIFO channels; even with latency jitter enabled, a
//!   message never overtakes an earlier message on the same (src, dst)
//!   link — delivery times are clamped to be non-decreasing per link.
//! * **Fault injection.** Nodes can be crashed/revived and links can be
//!   partitioned or lossy — the oscillation and ring-consistency
//!   detectors of §3.1 are tested against these.
//! * **Exact counters.** Messages sent per node back the *Tx messages*
//!   series of Figures 6 and 7.
//! * **Shardable.** The fabric can be split across population shards for
//!   the conservative parallel harness (DESIGN.md §2.10): each
//!   shard owns one `SimNetwork` whose *local* set covers its nodes;
//!   envelopes addressed to other shards land in an outbound mailbox
//!   instead of the delivery heap, already carrying the canonical
//!   [`Stamp`] that makes the merged delivery order independent of the
//!   shard count. Jitter/loss randomness comes from **per-source** RNG
//!   streams derived from the seed, so draws do not depend on how the
//!   population is sharded.
//!
//! Deliveries are ordered by `(deliver_at, stamp)` where the stamp
//! `(sent_at, epoch, src_idx, seq)` is assigned at send time and is
//! *chronological*: any send the simulation performs later in causal
//! order gets a larger stamp. Two harness runs that perform the same
//! sends in the same causal order therefore deliver in the same order —
//! this is the determinism keystone of the parallel harness.

use crate::envelope::Envelope;
use p2_types::{Addr, DetRng, Time, TimeDelta};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Network configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Base one-way latency. Also the conservative lookahead of the
    /// parallel harness: no envelope is ever delivered earlier than
    /// `send time + latency`.
    pub latency: TimeDelta,
    /// Uniform extra latency in `[0, jitter]`.
    pub jitter: TimeDelta,
    /// Probability a message is dropped (0.0 = reliable).
    pub loss_rate: f64,
    /// RNG seed for jitter/loss decisions.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: TimeDelta::from_millis(10),
            jitter: TimeDelta::ZERO,
            loss_rate: 0.0,
            seed: 0,
        }
    }
}

/// Per-network counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Envelopes accepted for transmission, per source node.
    pub sent_by: HashMap<Addr, u64>,
    /// Envelopes delivered, per destination node.
    pub delivered_to: HashMap<Addr, u64>,
    /// Envelopes dropped (loss, partitions, dead nodes, unknown dest).
    pub dropped: u64,
}

impl NetStats {
    /// Total envelopes sent.
    pub fn total_sent(&self) -> u64 {
        self.sent_by.values().sum()
    }

    /// Envelopes sent by one node.
    pub fn sent_by(&self, a: &Addr) -> u64 {
        self.sent_by.get(a).copied().unwrap_or(0)
    }

    /// Fold another network's counters into this one (the parallel
    /// harness sums its shard fabrics into one population view).
    pub fn merge(&mut self, other: &NetStats) {
        for (a, n) in &other.sent_by {
            *self.sent_by.entry(a.clone()).or_insert(0) += n;
        }
        for (a, n) in &other.delivered_to {
            *self.delivered_to.entry(a.clone()).or_insert(0) += n;
        }
        self.dropped += other.dropped;
    }
}

/// The canonical send-order stamp carried by every in-flight envelope.
///
/// Ordering is lexicographic over `(sent_at, epoch, src_idx, seq)`:
/// virtual send time, then the settle-wave epoch within that instant,
/// then the sender's registration index (= population insertion order),
/// then the sender's own send counter. Within one run the stamp order of
/// any two sends equals their causal order, so sorting equal-`deliver_at`
/// envelopes by stamp reproduces one delivery order under any sharding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp {
    /// Virtual time of the send.
    pub sent_at: Time,
    /// Settle-wave counter within `sent_at` (see [`SimNetwork::set_stamp`]).
    pub epoch: u32,
    /// The sender's registration index.
    pub src_idx: u32,
    /// The sender's monotonically increasing send counter.
    pub seq: u64,
}

/// An envelope in flight, with its delivery time and canonical stamp.
/// Public so the parallel harness can move cross-shard traffic between
/// fabrics without re-deriving either.
#[derive(Debug, Clone)]
pub struct StampedEnvelope {
    /// When the fabric will deliver it.
    pub deliver_at: Time,
    /// Canonical send-order stamp.
    pub stamp: Stamp,
    /// The payload.
    pub env: Envelope,
}

impl PartialEq for StampedEnvelope {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.stamp == other.stamp
    }
}
impl Eq for StampedEnvelope {}
impl PartialOrd for StampedEnvelope {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for StampedEnvelope {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.stamp).cmp(&(other.deliver_at, other.stamp))
    }
}

/// Per-source sending state: registration index, send counter, and the
/// jitter/loss RNG stream (derived from seed + address so it is the same
/// no matter which shard the source lives on).
#[derive(Debug)]
struct SrcState {
    idx: u32,
    seq: u64,
    rng: DetRng,
}

/// The simulated fabric.
#[derive(Debug)]
pub struct SimNetwork {
    config: SimConfig,
    queue: BinaryHeap<Reverse<StampedEnvelope>>,
    /// Envelopes addressed to nodes another shard owns, in send order.
    outbound: Vec<StampedEnvelope>,
    /// Last scheduled delivery per (src, dst) link, for the FIFO clamp.
    link_horizon: HashMap<(Addr, Addr), Time>,
    /// Every known address in the population (unknown destinations drop).
    nodes: HashSet<Addr>,
    /// Addresses whose deliveries this fabric handles itself.
    locals: HashSet<Addr>,
    down: HashSet<Addr>,
    /// Severed directed links.
    cut: HashSet<(Addr, Addr)>,
    src_states: HashMap<Addr, SrcState>,
    next_src_idx: u32,
    /// Current stamp position: instant and settle-wave epoch.
    stamp_time: Time,
    stamp_epoch: u32,
    stats: NetStats,
}

impl SimNetwork {
    /// Create a network with the given config.
    pub fn new(config: SimConfig) -> SimNetwork {
        SimNetwork {
            config,
            queue: BinaryHeap::new(),
            outbound: Vec::new(),
            link_horizon: HashMap::new(),
            nodes: HashSet::new(),
            locals: HashSet::new(),
            down: HashSet::new(),
            cut: HashSet::new(),
            src_states: HashMap::new(),
            next_src_idx: 0,
            stamp_time: Time::ZERO,
            stamp_epoch: 0,
            stats: NetStats::default(),
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Register a node address this fabric delivers to itself.
    pub fn register(&mut self, addr: Addr) {
        self.register_at(addr, true);
    }

    /// Register a node address, marking whether its deliveries are
    /// handled locally or routed to the outbound mailbox. Registration
    /// order assigns the stamp's `src_idx`, so every shard fabric must
    /// register the whole population in the same (insertion) order.
    pub fn register_at(&mut self, addr: Addr, local: bool) {
        if self.nodes.insert(addr.clone()) {
            let idx = self.next_src_idx;
            self.next_src_idx += 1;
            let rng = DetRng::derive(self.config.seed ^ 0x006e_6574_776f_726b, addr.as_str());
            self.src_states
                .insert(addr.clone(), SrcState { idx, seq: 0, rng });
        }
        if local {
            self.locals.insert(addr);
        }
    }

    /// Crash a node: its in-flight and future messages drop.
    pub fn set_down(&mut self, addr: &Addr, down: bool) {
        if down {
            self.down.insert(addr.clone());
        } else {
            self.down.remove(addr);
        }
    }

    /// Whether a node is currently marked down.
    pub fn is_down(&self, addr: &Addr) -> bool {
        self.down.contains(addr)
    }

    /// Sever or restore a directed link.
    pub fn set_cut(&mut self, src: &Addr, dst: &Addr, cut: bool) {
        if cut {
            self.cut.insert((src.clone(), dst.clone()));
        } else {
            self.cut.remove(&(src.clone(), dst.clone()));
        }
    }

    /// Change the loss rate on the fly (fault campaigns).
    pub fn set_loss_rate(&mut self, rate: f64) {
        self.config.loss_rate = rate.clamp(0.0, 1.0);
    }

    /// Counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Messages currently in flight (delivery heap plus outbound mailbox).
    pub fn in_flight(&self) -> usize {
        self.queue.len() + self.outbound.len()
    }

    /// Position the stamp clock: the instant and its settle-wave epoch
    /// (0 at a fresh instant, one more per wave). The population engine
    /// drives epochs from its run loop so every shard fabric stamps
    /// identically; sends in later waves of the same instant carry
    /// larger stamps, preserving causal order among same-instant sends.
    pub fn set_stamp(&mut self, now: Time, epoch: u32) {
        self.stamp_time = now;
        self.stamp_epoch = epoch;
    }

    /// Accept an envelope for transmission at virtual time `now`.
    pub fn send(&mut self, env: Envelope, now: Time) {
        *self.stats.sent_by.entry(env.src.clone()).or_insert(0) += 1;
        if !self.nodes.contains(&env.dst)
            || self.down.contains(&env.dst)
            || self.down.contains(&env.src)
            || self.cut.contains(&(env.src.clone(), env.dst.clone()))
        {
            self.stats.dropped += 1;
            return;
        }
        let loss_rate = self.config.loss_rate;
        let jitter_max = self.config.jitter.micros();
        let src = match self.src_states.get_mut(&env.src) {
            Some(s) => s,
            None => {
                // Unregistered sender (never the case under a harness):
                // give it a stream and an index after all registered ones.
                let idx = self.next_src_idx;
                self.next_src_idx += 1;
                let rng =
                    DetRng::derive(self.config.seed ^ 0x006e_6574_776f_726b, env.src.as_str());
                self.src_states
                    .entry(env.src.clone())
                    .or_insert(SrcState { idx, seq: 0, rng })
            }
        };
        if loss_rate > 0.0 && src.rng.unit_f64() < loss_rate {
            self.stats.dropped += 1;
            return;
        }
        let jitter = if jitter_max > 0 {
            TimeDelta::from_micros(src.rng.below(jitter_max + 1))
        } else {
            TimeDelta::ZERO
        };
        src.seq += 1;
        let stamp = Stamp {
            sent_at: now,
            epoch: if self.stamp_time == now {
                self.stamp_epoch
            } else {
                // Bare caller that never positions the stamp clock:
                // fresh instants start at epoch 0.
                self.stamp_time = now;
                self.stamp_epoch = 0;
                0
            },
            src_idx: src.idx,
            seq: src.seq,
        };
        let mut deliver_at = now + self.config.latency + jitter;
        // FIFO clamp: never overtake an earlier message on the same link.
        let key = (env.src.clone(), env.dst.clone());
        if let Some(h) = self.link_horizon.get(&key) {
            if deliver_at < *h {
                deliver_at = *h;
            }
        }
        self.link_horizon.insert(key, deliver_at);
        let se = StampedEnvelope {
            deliver_at,
            stamp,
            env,
        };
        if self.locals.contains(&se.env.dst) {
            self.queue.push(Reverse(se));
        } else {
            self.outbound.push(se);
        }
    }

    /// Take every cross-shard envelope sent since the last call, in send
    /// order. The caller (the population engine) routes each to the
    /// fabric owning its destination via [`SimNetwork::accept`].
    pub fn take_outbound(&mut self) -> Vec<StampedEnvelope> {
        std::mem::take(&mut self.outbound)
    }

    /// Admit an envelope stamped by another shard's fabric. The
    /// destination must be local here; send-side checks (loss, cuts,
    /// down-at-send) already happened on the sending fabric, and the
    /// died-in-flight check happens at [`SimNetwork::pop_due`] like any
    /// other delivery.
    pub fn accept(&mut self, se: StampedEnvelope) {
        debug_assert!(self.locals.contains(&se.env.dst), "accept of non-local dst");
        self.queue.push(Reverse(se));
    }

    /// The virtual time of the earliest pending local delivery. (The
    /// outbound mailbox is not consulted — routing it is the population
    /// engine's job.)
    pub fn next_delivery(&self) -> Option<Time> {
        self.queue.peek().map(|Reverse(m)| m.deliver_at)
    }

    /// Pop every envelope due at or before `now` (in delivery order).
    /// Envelopes addressed to nodes that died while the message was in
    /// flight are dropped here.
    pub fn pop_due(&mut self, now: Time) -> Vec<Envelope> {
        let mut out = Vec::new();
        while let Some(Reverse(m)) = self.queue.peek() {
            if m.deliver_at > now {
                break;
            }
            let Some(Reverse(m)) = self.queue.pop() else {
                break;
            };
            if self.down.contains(&m.env.dst) {
                self.stats.dropped += 1;
                continue;
            }
            *self
                .stats
                .delivered_to
                .entry(m.env.dst.clone())
                .or_insert(0) += 1;
            out.push(m.env);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_types::{Tuple, Value};
    use proptest::prelude::*;

    fn env(src: &str, dst: &str, x: i64) -> Envelope {
        Envelope::new(
            Tuple::new("m", [Value::addr(dst), Value::Int(x)]),
            Addr::new(src),
            Addr::new(dst),
        )
    }

    fn net() -> SimNetwork {
        let mut n = SimNetwork::new(SimConfig::default());
        for a in ["a", "b", "c"] {
            n.register(Addr::new(a));
        }
        n
    }

    #[test]
    fn delivers_after_latency() {
        let mut n = net();
        n.send(env("a", "b", 1), Time::ZERO);
        assert_eq!(n.next_delivery(), Some(Time::from_millis(10)));
        assert!(n.pop_due(Time::from_millis(9)).is_empty());
        let got = n.pop_due(Time::from_millis(10));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].tuples[0].get(1), Some(&Value::Int(1)));
        assert_eq!(n.stats().sent_by(&Addr::new("a")), 1);
    }

    #[test]
    fn fifo_per_link_even_with_jitter() {
        let mut n = SimNetwork::new(SimConfig {
            jitter: TimeDelta::from_millis(50),
            ..Default::default()
        });
        n.register(Addr::new("a"));
        n.register(Addr::new("b"));
        for i in 0..50 {
            n.send(env("a", "b", i), Time::from_millis(i as u64));
        }
        let got = n.pop_due(Time::from_secs(10));
        assert_eq!(got.len(), 50);
        let xs: Vec<i64> = got
            .iter()
            .map(|e| match e.tuples[0].get(1) {
                Some(Value::Int(n)) => *n,
                _ => panic!(),
            })
            .collect();
        let mut sorted = xs.clone();
        sorted.sort();
        assert_eq!(xs, sorted, "per-link delivery must be FIFO");
    }

    #[test]
    fn unknown_destination_drops() {
        let mut n = net();
        n.send(env("a", "ghost", 1), Time::ZERO);
        assert_eq!(n.stats().dropped, 1);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn down_node_drops_current_and_in_flight() {
        let mut n = net();
        n.send(env("a", "b", 1), Time::ZERO);
        n.set_down(&Addr::new("b"), true);
        // New sends drop immediately; in-flight drop at delivery.
        n.send(env("a", "b", 2), Time::ZERO);
        assert!(n.pop_due(Time::from_secs(1)).is_empty());
        assert_eq!(n.stats().dropped, 2);
        // Revive: traffic flows again.
        n.set_down(&Addr::new("b"), false);
        n.send(env("a", "b", 3), Time::from_secs(1));
        assert_eq!(n.pop_due(Time::from_secs(2)).len(), 1);
    }

    #[test]
    fn cut_link_is_directional() {
        let mut n = net();
        n.set_cut(&Addr::new("a"), &Addr::new("b"), true);
        n.send(env("a", "b", 1), Time::ZERO);
        n.send(env("b", "a", 2), Time::ZERO);
        let got = n.pop_due(Time::from_secs(1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].dst, Addr::new("a"));
    }

    #[test]
    fn loss_rate_drops_roughly_proportionally() {
        let mut n = SimNetwork::new(SimConfig {
            loss_rate: 0.5,
            ..Default::default()
        });
        n.register(Addr::new("a"));
        n.register(Addr::new("b"));
        for i in 0..1000 {
            n.send(env("a", "b", i), Time::ZERO);
        }
        let delivered = n.pop_due(Time::from_secs(1)).len();
        assert!((300..700).contains(&delivered), "got {delivered}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut n = SimNetwork::new(SimConfig {
                jitter: TimeDelta::from_millis(5),
                loss_rate: 0.2,
                seed: 7,
                ..Default::default()
            });
            n.register(Addr::new("a"));
            n.register(Addr::new("b"));
            for i in 0..100 {
                n.send(env("a", "b", i), Time::from_millis(i as u64));
            }
            n.pop_due(Time::from_secs(5))
                .iter()
                .map(|e| format!("{}", e.tuples[0]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// Splitting the population across two fabrics and routing the
    /// mailbox by hand delivers exactly what one fabric would, in the
    /// same order — the unit-level statement of the sharding theorem.
    #[test]
    fn split_fabrics_match_single_fabric() {
        let config = SimConfig {
            jitter: TimeDelta::from_millis(3),
            seed: 11,
            ..Default::default()
        };
        let addrs: Vec<Addr> = ["a", "b", "c", "d"].iter().map(Addr::new).collect();
        // One fabric owning everyone.
        let mut whole = SimNetwork::new(config.clone());
        for a in &addrs {
            whole.register(a.clone());
        }
        // Two fabrics, each owning half, both registering all.
        let mut left = SimNetwork::new(config.clone());
        let mut right = SimNetwork::new(config.clone());
        for (i, a) in addrs.iter().enumerate() {
            left.register_at(a.clone(), i % 2 == 0);
            right.register_at(a.clone(), i % 2 == 1);
        }
        // Everyone sends to everyone at two instants with two epochs.
        let mut x = 0;
        for t in [Time::ZERO, Time::from_millis(2)] {
            for epoch in 0..2 {
                whole.set_stamp(t, epoch);
                left.set_stamp(t, epoch);
                right.set_stamp(t, epoch);
                for (i, src) in addrs.iter().enumerate() {
                    for dst in &addrs {
                        if src == dst {
                            continue;
                        }
                        whole.send(env(src.as_str(), dst.as_str(), x), t);
                        let shard = if i % 2 == 0 { &mut left } else { &mut right };
                        shard.send(env(src.as_str(), dst.as_str(), x), t);
                        x += 1;
                    }
                }
            }
        }
        // Route the mailboxes.
        for se in left.take_outbound() {
            right.accept(se);
        }
        for se in right.take_outbound() {
            left.accept(se);
        }
        // What each destination observes must be identical (same
        // envelopes, same per-destination order) however the fabric is
        // sharded.
        let by_dst = |envs: Vec<Envelope>| {
            let mut m: HashMap<Addr, Vec<String>> = HashMap::new();
            for e in envs {
                m.entry(e.dst.clone())
                    .or_default()
                    .push(format!("{}->{} {}", e.src, e.dst, e.tuples[0]));
            }
            m
        };
        let deadline = Time::from_secs(1);
        let whole_view = by_dst(whole.pop_due(deadline));
        let mut shard_view = by_dst(left.pop_due(deadline));
        for (dst, lines) in by_dst(right.pop_due(deadline)) {
            assert!(
                shard_view.insert(dst, lines).is_none(),
                "a destination was delivered to by both shards"
            );
        }
        assert_eq!(shard_view, whole_view);
    }

    proptest! {
        /// Deliveries never reorder within a link, for any send schedule.
        #[test]
        fn prop_fifo(times in proptest::collection::vec(0u64..1000, 1..60), seed: u64) {
            let mut n = SimNetwork::new(SimConfig {
                jitter: TimeDelta::from_millis(20),
                seed,
                ..Default::default()
            });
            n.register(Addr::new("a"));
            n.register(Addr::new("b"));
            let mut sorted_times = times.clone();
            sorted_times.sort();
            for (i, t) in sorted_times.iter().enumerate() {
                n.send(env("a", "b", i as i64), Time::from_millis(*t));
            }
            let got = n.pop_due(Time::from_secs(100));
            let xs: Vec<i64> = got.iter().map(|e| match e.tuples[0].get(1) {
                Some(Value::Int(v)) => *v,
                _ => unreachable!(),
            }).collect();
            let mut s = xs.clone();
            s.sort();
            prop_assert_eq!(xs, s);
        }
    }
}
