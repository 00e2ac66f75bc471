//! The population engine: one deterministic discrete-event simulator
//! for any number of shards (DESIGN.md §2.10).
//!
//! An [`Engine`] splits the node population round-robin across shards,
//! each owning its nodes and one shard-local [`SimNetwork`] fabric, and
//! advances virtual time in **conservative windows** of the network's
//! base latency: because every envelope takes at least
//! `SimConfig.latency` to arrive, no envelope sent inside window *k* can
//! be delivered inside window *k* — shards therefore execute a window
//! with no communication at all, and exchange mailboxes at a barrier
//! between windows. With more than one shard the windows run on OS
//! worker threads (std `mpsc` only); with one shard — what
//! [`crate::SimHarness`] builds — they run inline and the mailbox stays
//! empty.
//!
//! Within a window a shard visits each of its event instants in order:
//! fire due timers, sweep the tracer on GC instants, then settle in
//! waves (pump the nodes that have work, deliver everything due) with
//! one stamp epoch per wave. Tracer GC is a population-global event, so
//! GC instants run as dedicated single-instant windows in which every
//! shard participates. Control operations (install, inject, restart)
//! happen between runs on the calling thread and settle the same way,
//! over every live node.
//!
//! **Determinism.** Every send is stamped `(sent_at, epoch, src_idx,
//! seq)` — see [`p2_net::Stamp`] — and every fabric orders deliveries by
//! `(deliver_at, stamp)`. None of the four depends on which shard the
//! sender lives on, so every shard count produces bit-identical tuple
//! stores, tracer tuple IDs, counters and golden traces. The one
//! excluded surface is wall-clock measurements (`busyMicros`).
//!
//! **Dirty-node pumping.** A wave pumps only nodes whose timers fired
//! this instant, nodes handed a delivery in the previous wave, and
//! every node on a GC instant. A pump runs a node to quiescence, so a
//! pump of any other node is a no-op and skipping it changes nothing
//! observable. The one pump that does not reach quiescence is the one
//! cut by `max_dispatch_per_pump`: a node it leaves with a backlog
//! stays dirty and is pumped again in the next wave of the same
//! instant, so it never waits on who else has events. [`crate::sim`]
//! keeps the scan-everything stepper this is tested against.

use crate::metrics::ShardStats;
use crate::node::{InstallError, Node, NodeConfig, ProgramId};
use p2_net::{NetStats, SimConfig, SimNetwork, StampedEnvelope};
use p2_types::{Addr, Time, TimeDelta, Tuple};
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::mpsc;
use std::time::Duration;

/// One shard's slice of the population: its nodes (in global insertion
/// order, restricted), their inboxes, and the shard-local fabric.
pub(crate) struct ShardNode {
    pub(crate) addr: Addr,
    pub(crate) node: Node,
    inbox: VecDeque<p2_net::Envelope>,
}

pub(crate) struct Shard {
    id: usize,
    pub(crate) nodes: Vec<ShardNode>,
    local_idx: HashMap<Addr, usize>,
    pub(crate) net: SimNetwork,
    stats: ShardStats,
    /// Per-node "might have runnable work" flags, reused across instants
    /// (always all-false between instants).
    dirty: Vec<bool>,
    /// Nodes whose state changed this instant (their cached timer needs
    /// recomputing). Drained at the end of every instant.
    touched: Vec<usize>,
    /// Cached `Node::next_timer` per node, so the per-instant fire scan
    /// and `next_event` read a flat vector instead of peeking every
    /// node's timer heap. Refreshed wholesale at `run_until` entry
    /// (control ops between runs can change any timer) and
    /// incrementally for touched nodes inside a window.
    timers: Vec<Option<Time>>,
    /// Cached down-ness per local node — crash/revive only happen
    /// between runs, so this is constant across a window and saves an
    /// address hash per node per scan. Synced in `refresh_caches`.
    down: Vec<bool>,
}

/// One conservative window's work order for a shard.
struct WindowCmd {
    start: Time,
    end: Time,
    gc: bool,
    /// Stamp epoch the first instant starts at, when that instant
    /// continues a virtual time the coordinator already stamped at
    /// (control ops can leave timers due at the current instant).
    epoch_base: u32,
    /// Cross-shard envelopes routed to this shard since it last ran.
    incoming: Vec<StampedEnvelope>,
}

/// What a shard reports back at the window barrier.
struct WindowReply {
    shard: usize,
    outbound: Vec<StampedEnvelope>,
    next_event: Option<Time>,
    /// Last instant executed and the next free stamp epoch at it.
    last: Option<(Time, u32)>,
}

impl Shard {
    /// Re-sync the timer and down caches from the nodes and fabric.
    /// Called once at `run_until` entry: control operations between
    /// runs (install, inject, crash, direct `node_mut` access) can
    /// change any node's schedule or liveness.
    fn refresh_caches(&mut self) {
        for (i, sn) in self.nodes.iter().enumerate() {
            self.timers[i] = sn.node.next_timer();
            self.down[i] = self.net.is_down(&sn.addr);
        }
    }

    /// Mark a node as having runnable work this instant.
    fn mark(&mut self, i: usize) {
        if !self.dirty[i] {
            self.dirty[i] = true;
            self.touched.push(i);
        }
    }

    /// Earliest pending local event: a live node's timer or a queued
    /// delivery (including deliveries addressed to down nodes, which
    /// still consume an instant to be dropped).
    fn next_event(&self) -> Option<Time> {
        let timers = self.timers.iter().zip(&self.down);
        let live = timers.filter_map(|(t, down)| t.filter(|_| !down));
        live.chain(self.net.next_delivery()).min()
    }

    /// Execute one conservative window `[start, end)`.
    fn run_window(&mut self, cmd: WindowCmd) -> WindowReply {
        for se in cmd.incoming {
            self.net.accept(se);
        }
        let mut last = None;
        if cmd.gc {
            // GC windows are single-instant and every shard runs the
            // sweep, events or not.
            let e = self.run_instant(cmd.start, cmd.epoch_base, true);
            last = Some((cmd.start, e));
            self.stats.events += 1;
        } else {
            while let Some(u_raw) = self.next_event() {
                if u_raw >= cmd.end {
                    break;
                }
                // A timer can predate the window when a node revived
                // with a stale schedule; it fires "now".
                let u = u_raw.max(cmd.start);
                let base = if u == cmd.start { cmd.epoch_base } else { 0 };
                let e = self.run_instant(u, base, false);
                last = Some((u, e));
                self.stats.events += 1;
            }
        }
        self.stats.barrier_waits += 1;
        let outbound = self.net.take_outbound();
        self.stats.mailbox_envelopes += outbound.len() as u64;
        WindowReply {
            shard: self.id,
            outbound,
            next_event: self.next_event(),
            last,
        }
    }

    /// Run one event instant: fire due timers, sweep the tracer on GC
    /// instants, then settle in waves, pumping only dirty nodes (see
    /// the module docs). Returns the next free stamp epoch at `u`.
    fn run_instant(&mut self, u: Time, base: u32, gc: bool) -> u32 {
        for i in 0..self.nodes.len() {
            if self.down[i] {
                continue;
            }
            if self.timers[i].is_some_and(|t| t <= u) {
                self.nodes[i].node.fire_timers(u);
                self.mark(i);
            }
        }
        if gc {
            // The sweep does not skip down nodes; it can also free
            // watched state, so every node gets pumped after it.
            for i in 0..self.nodes.len() {
                self.nodes[i].node.trace_gc(u);
                self.mark(i);
            }
        }
        let mut epoch = base;
        loop {
            self.net.set_stamp(u, epoch);
            let mut progress = false;
            for i in 0..self.nodes.len() {
                if !self.dirty[i] {
                    continue;
                }
                self.dirty[i] = false;
                if self.down[i] {
                    continue;
                }
                let sn = &mut self.nodes[i];
                while let Some(env) = sn.inbox.pop_front() {
                    sn.node.deliver(env, u);
                }
                for env in sn.node.pump(u) {
                    self.net.send(env, u);
                    progress = true;
                }
                if sn.node.has_backlog() {
                    self.mark(i);
                    progress = true;
                }
            }
            for env in self.net.pop_due(u) {
                let ni = self.local_idx[&env.dst];
                self.nodes[ni].inbox.push_back(env);
                self.mark(ni);
                progress = true;
            }
            epoch += 1;
            if !progress {
                break;
            }
        }
        // Touched nodes fired, pumped, or were delivered to — their
        // schedules may have changed; the rest kept their cached timer.
        while let Some(i) = self.touched.pop() {
            self.timers[i] = self.nodes[i].node.next_timer();
        }
        // Restore the all-false invariant for the next instant (the
        // last wave clears every mark it visits, so this is a cheap
        // safety net, not a correctness dependency).
        self.dirty.fill(false);
        epoch
    }
}

/// Coordinator state threaded through the window loop (split out of the
/// engine so the shards can be mutably lent to worker threads).
struct Coord<'a> {
    index: &'a HashMap<Addr, (usize, usize)>,
    clock: &'a mut Time,
    next_gc: &'a mut Time,
    stamp_time: &'a mut Time,
    stamp_epoch: &'a mut u32,
    gc_period: TimeDelta,
    lookahead: TimeDelta,
}

/// How an [`Engine`] is built and stepped. The three implementors exist
/// so that [`crate::SimHarness`] (one shard), [`ParallelHarness`] (any
/// shard count) and the test oracle can each have their own constructor
/// over the one struct.
pub trait Mode {
    /// Step with the scan-everything reference loop of [`crate::sim`]
    /// instead of the window protocol.
    #[doc(hidden)]
    const NAIVE: bool = false;
}

/// Marker for [`ParallelHarness`].
pub struct Sharded;
impl Mode for Sharded {}

/// A sharded, conservatively windowed population.
pub type ParallelHarness = Engine<Sharded>;

/// A population of simulated P2 nodes over a virtual clock: the shards,
/// the window coordinator's state, and the control plane.
pub struct Engine<M> {
    pub(crate) shards: Vec<Shard>,
    index: HashMap<Addr, (usize, usize)>,
    order: Vec<Addr>,
    pub(crate) clock: Time,
    /// Period of the tracer's reference-count GC sweep.
    pub(crate) gc_period: TimeDelta,
    pub(crate) next_gc: Time,
    lookahead: TimeDelta,
    base_node_config: NodeConfig,
    seed: u64,
    /// Next free stamp epoch at `stamp_time`.
    stamp_time: Time,
    stamp_epoch: u32,
    /// Per-node config as registered, replayed on [`Engine::restart`].
    configs: HashMap<Addr, NodeConfig>,
    /// Programs installed through the harness, replayed on restart.
    programs: HashMap<Addr, Vec<String>>,
    mode: PhantomData<M>,
}

impl ParallelHarness {
    /// Create a harness with the given network config, node config
    /// template, seed (node RNGs derive from it), and shard count.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`, or when there are several shards and
    /// the network latency is zero — the base latency is the
    /// conservative lookahead, so it must be positive for windows
    /// between shards to exist at all.
    pub fn new(
        net_config: SimConfig,
        node_config: NodeConfig,
        seed: u64,
        shards: usize,
    ) -> ParallelHarness {
        Engine::build(net_config, node_config, seed, shards)
    }

    /// A harness with default network (10 ms links) and node settings.
    pub fn with_seed(seed: u64, shards: usize) -> ParallelHarness {
        ParallelHarness::new(SimConfig::default(), NodeConfig::default(), seed, shards)
    }
}

impl<M: Mode> Engine<M> {
    pub(crate) fn build(
        net_config: SimConfig,
        node_config: NodeConfig,
        seed: u64,
        shards: usize,
    ) -> Engine<M> {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            shards == 1 || net_config.latency > TimeDelta::ZERO,
            "several shards need a positive latency lookahead"
        );
        let mut nc = node_config;
        nc.seed = seed;
        // One shard has nobody to wait for: any positive window is sound.
        let lookahead = net_config.latency.max(TimeDelta::from_micros(1));
        let shards = (0..shards)
            .map(|id| Shard {
                id,
                nodes: Vec::new(),
                local_idx: HashMap::new(),
                net: SimNetwork::new(SimConfig {
                    seed,
                    ..net_config.clone()
                }),
                stats: ShardStats {
                    shard: id as u64,
                    ..ShardStats::default()
                },
                dirty: Vec::new(),
                touched: Vec::new(),
                timers: Vec::new(),
                down: Vec::new(),
            })
            .collect();
        Engine {
            shards,
            index: HashMap::new(),
            order: Vec::new(),
            clock: Time::ZERO,
            gc_period: TimeDelta::from_secs(30),
            next_gc: Time::from_secs(30),
            lookahead,
            base_node_config: nc,
            seed,
            stamp_time: Time::ZERO,
            stamp_epoch: 0,
            configs: HashMap::new(),
            programs: HashMap::new(),
            mode: PhantomData,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.clock
    }

    /// The harness seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Add a node (default config template). Returns its address.
    pub fn add_node(&mut self, name: &str) -> Addr {
        self.add_node_with(name, self.base_node_config.clone())
    }

    /// Add a node with an explicit config (e.g. tracing enabled on the
    /// measured node only, as in §4's setup). Nodes are assigned to
    /// shards round-robin in insertion order; every shard fabric
    /// registers every address (in the same order, so stamp indices
    /// agree).
    pub fn add_node_with(&mut self, name: &str, mut config: NodeConfig) -> Addr {
        let addr = Addr::new(name);
        config.seed = self.seed;
        self.configs.insert(addr.clone(), config.clone());
        let si = self.order.len() % self.shards.len();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.net.register_at(addr.clone(), i == si);
        }
        let shard = &mut self.shards[si];
        let ni = shard.nodes.len();
        shard.local_idx.insert(addr.clone(), ni);
        shard.nodes.push(ShardNode {
            addr: addr.clone(),
            node: Node::new(addr.clone(), config),
            inbox: VecDeque::new(),
        });
        shard.dirty.push(false);
        shard.timers.push(None);
        shard.down.push(false);
        self.index.insert(addr.clone(), (si, ni));
        self.order.push(addr.clone());
        addr
    }

    /// Access a node.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was never added to the harness.
    pub fn node(&self, addr: &Addr) -> &Node {
        let (si, ni) = self.index[addr];
        &self.shards[si].nodes[ni].node
    }

    /// Access a node mutably.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was never added to the harness.
    pub fn node_mut(&mut self, addr: &Addr) -> &mut Node {
        let (si, ni) = self.index[addr];
        &mut self.shards[si].nodes[ni].node
    }

    /// All node addresses in insertion order.
    pub fn addrs(&self) -> &[Addr] {
        &self.order
    }

    /// Install a program on one node at the current time and settle.
    pub fn install(&mut self, addr: &Addr, source: &str) -> Result<ProgramId, InstallError> {
        let pid = self.install_recorded(addr, source)?;
        self.control_settle();
        Ok(pid)
    }

    /// Install the same program on every node, then settle once.
    pub fn install_all(&mut self, source: &str) -> Result<Vec<ProgramId>, InstallError> {
        let mut out = Vec::new();
        for i in 0..self.order.len() {
            let addr = self.order[i].clone();
            out.push(self.install_recorded(&addr, source)?);
        }
        self.control_settle();
        Ok(out)
    }

    /// Install at the current time and record the source for restart.
    fn install_recorded(&mut self, addr: &Addr, source: &str) -> Result<ProgramId, InstallError> {
        let now = self.clock;
        let pid = self.node_mut(addr).install(source, now)?;
        self.programs
            .entry(addr.clone())
            .or_default()
            .push(source.to_string());
        Ok(pid)
    }

    /// Inject a tuple at a node and settle.
    pub fn inject(&mut self, addr: &Addr, tuple: Tuple) {
        self.node_mut(addr).inject(tuple);
        self.control_settle();
    }

    /// Crash a node: every shard fabric drops its traffic and the node
    /// stops executing until revived.
    pub fn crash(&mut self, addr: &Addr) {
        for shard in &mut self.shards {
            shard.net.set_down(addr, true);
        }
    }

    /// Revive a crashed node.
    pub fn revive(&mut self, addr: &Addr) {
        for shard in &mut self.shards {
            shard.net.set_down(addr, false);
        }
    }

    /// Whether the node is crashed.
    pub fn is_down(&self, addr: &Addr) -> bool {
        self.shards[0].net.is_down(addr)
    }

    /// Restart a node from scratch: every piece of soft state — tables,
    /// dataflow, pending timers, queued inbox mail — is lost, exactly as
    /// in a process crash. If the node's config enables durability, the
    /// sealed archive is recovered from its durable store; otherwise
    /// the node comes back empty. Programs installed *through the
    /// harness* are reinstalled at the current virtual time, and every
    /// shard fabric marks the node reachable again.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was never added to the harness.
    pub fn restart(&mut self, addr: &Addr) -> Result<(), InstallError> {
        let (si, ni) = self.index[addr];
        let config = self
            .configs
            .get(addr)
            .cloned()
            .unwrap_or_else(|| self.base_node_config.clone());
        let slot = &mut self.shards[si].nodes[ni];
        // Swap in a throwaway placeholder so the dying node can be
        // consumed for its durable store — the only thing that
        // survives the crash.
        let old = std::mem::replace(
            &mut slot.node,
            Node::new(addr.clone(), NodeConfig::default()),
        );
        let store = old.into_durable();
        slot.node = Node::with_recovered(addr.clone(), config, store);
        slot.inbox.clear();
        self.shards[si].timers[ni] = None;
        let now = self.clock;
        let node = &mut self.shards[si].nodes[ni].node;
        let reinstalled = self
            .programs
            .get(addr)
            .into_iter()
            .flatten()
            .try_for_each(|source| node.install(source, now).map(drop));
        self.revive(addr);
        self.control_settle();
        reinstalled
    }

    /// Sever or restore a directed link on every shard fabric.
    pub fn set_cut(&mut self, src: &Addr, dst: &Addr, cut: bool) {
        for shard in &mut self.shards {
            shard.net.set_cut(src, dst, cut);
        }
    }

    /// Set the uniform packet-loss rate (0.0 ..= 1.0) on every shard
    /// fabric.
    pub fn set_loss_rate(&mut self, rate: f64) {
        for shard in &mut self.shards {
            shard.net.set_loss_rate(rate);
        }
    }

    /// Population-wide network counters, summed across shard fabrics.
    pub fn net_stats(&self) -> NetStats {
        let mut out = NetStats::default();
        for shard in &self.shards {
            out.merge(shard.net.stats());
        }
        out
    }

    /// Per-shard runtime counters (events, barrier waits, mailbox
    /// envelopes), in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Hand the current stamp epoch out and advance past it, resetting
    /// at a fresh instant.
    fn alloc_epoch(&mut self, t: Time) -> u32 {
        if self.stamp_time != t {
            self.stamp_time = t;
            self.stamp_epoch = 0;
        }
        let e = self.stamp_epoch;
        self.stamp_epoch += 1;
        e
    }

    /// Pump all nodes and exchange due messages until nothing more can
    /// happen at the current virtual time: every live node in insertion
    /// order, one stamp epoch per wave, cross-shard mail routed
    /// directly. Sends from later waves of the same instant carry
    /// larger stamps, so delivery order reproduces causal order. Runs on
    /// the calling thread — control ops happen between runs, when the
    /// coordinator owns all shards.
    pub(crate) fn control_settle(&mut self) {
        let t = self.clock;
        loop {
            let e = self.alloc_epoch(t);
            for shard in &mut self.shards {
                shard.net.set_stamp(t, e);
            }
            let mut progress = false;
            for i in 0..self.order.len() {
                let (si, ni) = self.index[&self.order[i]];
                let shard = &mut self.shards[si];
                let sn = &mut shard.nodes[ni];
                if shard.net.is_down(&sn.addr) {
                    continue;
                }
                while let Some(env) = sn.inbox.pop_front() {
                    sn.node.deliver(env, t);
                }
                for env in sn.node.pump(t) {
                    shard.net.send(env, t);
                    progress = true;
                }
                progress |= sn.node.has_backlog();
            }
            self.route_outbound();
            for shard in &mut self.shards {
                for env in shard.net.pop_due(t) {
                    let ni = shard.local_idx[&env.dst];
                    shard.nodes[ni].inbox.push_back(env);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
    }

    /// Move every shard's outbound mailbox into the owning fabric's
    /// delivery heap (coordinator-side routing, between windows).
    fn route_outbound(&mut self) {
        let mut moved: Vec<StampedEnvelope> = Vec::new();
        for shard in &mut self.shards {
            let out = shard.net.take_outbound();
            shard.stats.mailbox_envelopes += out.len() as u64;
            moved.extend(out);
        }
        for se in moved {
            let (ds, _) = self.index[&se.env.dst];
            self.shards[ds].net.accept(se);
        }
    }

    /// Copy each shard's counters into its member nodes so `sysStat`
    /// carries `shard.*` rows. A single shard has no barrier or mailbox
    /// to report, and publishes nothing.
    fn publish_shard_stats(&mut self) {
        if self.shards.len() == 1 {
            return;
        }
        for shard in &mut self.shards {
            let snap = shard.stats;
            for sn in &mut shard.nodes {
                sn.node.set_shard_stats(snap);
            }
        }
    }

    /// Advance virtual time to `deadline`, firing timers and deliveries
    /// in order.
    pub fn run_until(&mut self, deadline: Time) {
        if M::NAIVE {
            return self.run_until_naive(deadline);
        }
        // Settle on entry (work left behind by control ops — e.g. a
        // tuple injected into a then-down node that has since revived —
        // dispatches *before* the first event) and again at the deadline.
        self.control_settle();
        if self.order.is_empty() {
            self.clock = deadline;
            return;
        }
        for shard in &mut self.shards {
            shard.refresh_caches();
        }
        let initial: Vec<Option<Time>> = self.shards.iter().map(Shard::next_event).collect();
        let gc_period = self.gc_period;
        let lookahead = self.lookahead;
        let Engine {
            shards,
            index,
            clock,
            next_gc,
            stamp_time,
            stamp_epoch,
            ..
        } = self;
        let coord = Coord {
            index,
            clock,
            next_gc,
            stamp_time,
            stamp_epoch,
            gc_period,
            lookahead,
        };
        // With one shard — or one hardware thread, where workers can
        // only add channel round-trips — run windows inline. Reply
        // handling is order-insensitive, so both paths merge identically.
        // (The core count is a handful of file reads on Linux; one shard
        // never asks.)
        let inline =
            shards.len() == 1 || std::thread::available_parallelism().map_or(1, |p| p.get()) == 1;
        let leftover = if inline {
            drive(coord, deadline, initial, |jobs| {
                jobs.into_iter()
                    .map(|(si, cmd)| shards[si].run_window(cmd))
                    .collect()
            })
        } else {
            run_threaded(shards, coord, deadline, initial)
        };
        // Envelopes still in the coordinator's hands (due beyond the
        // deadline) go back into the owning fabric for the next run.
        for (s, list) in leftover.into_iter().enumerate() {
            for se in list {
                self.shards[s].net.accept(se);
            }
        }
        self.control_settle();
        self.publish_shard_stats();
    }

    /// Advance virtual time by `delta`.
    pub fn run_for(&mut self, delta: TimeDelta) {
        let deadline = self.clock + delta;
        self.run_until(deadline);
    }
}

/// Spawn one worker per shard (scoped, std mpsc) and run the window
/// loop against them. Returns undelivered cross-shard envelopes.
#[expect(
    clippy::expect_used,
    reason = "a dead or wedged shard worker is unrecoverable; fail loudly instead of hanging the barrier"
)]
fn run_threaded(
    shards: &mut [Shard],
    coord: Coord<'_>,
    deadline: Time,
    initial: Vec<Option<Time>>,
) -> Vec<Vec<StampedEnvelope>> {
    std::thread::scope(|scope| {
        let (reply_tx, reply_rx) = mpsc::channel::<WindowReply>();
        let mut cmd_txs = Vec::new();
        for shard in shards.iter_mut() {
            let (tx, rx) = mpsc::channel::<WindowCmd>();
            cmd_txs.push(tx);
            let rtx = reply_tx.clone();
            scope.spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    if rtx.send(shard.run_window(cmd)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(reply_tx);
        drive(coord, deadline, initial, move |jobs| {
            let k = jobs.len();
            for (si, cmd) in jobs {
                cmd_txs[si].send(cmd).expect("shard worker hung up mid-run");
            }
            (0..k)
                .map(|_| {
                    reply_rx
                        .recv_timeout(Duration::from_secs(120))
                        .expect("shard worker stalled or died")
                })
                .collect()
        })
    })
}

/// The coordinator's window loop: pick the next global event time, open
/// a conservative window (or a single-instant GC round), dispatch it to
/// the shards that have work, then merge mailboxes at the barrier.
/// Returns per-shard envelopes still undelivered at the deadline.
fn drive(
    coord: Coord<'_>,
    deadline: Time,
    mut next_event: Vec<Option<Time>>,
    mut exec: impl FnMut(Vec<(usize, WindowCmd)>) -> Vec<WindowReply>,
) -> Vec<Vec<StampedEnvelope>> {
    let n = next_event.len();
    let mut pending: Vec<Vec<StampedEnvelope>> = vec![Vec::new(); n];
    let micro = TimeDelta::from_micros(1);
    loop {
        // Earliest event anywhere: shard-local timers/deliveries, plus
        // cross-shard envelopes still in the coordinator's hands.
        let in_hand = pending.iter().flatten().map(|se| se.deliver_at);
        let t = match next_event.iter().flatten().copied().chain(in_hand).min() {
            Some(t) if t <= deadline => t.max(*coord.clock),
            _ => break,
        };
        // The tracer sweep is population-global: the first event instant
        // at or past the GC deadline runs as its own single-instant
        // window with every shard participating.
        let (end, gc) = if t >= *coord.next_gc {
            (t + micro, true)
        } else {
            let mut e = t + coord.lookahead;
            if *coord.next_gc < e {
                e = *coord.next_gc;
            }
            if deadline + micro < e {
                e = deadline + micro;
            }
            (e, false)
        };
        let epoch_base = if t == *coord.stamp_time {
            *coord.stamp_epoch
        } else {
            0
        };
        let mut jobs = Vec::new();
        for s in 0..n {
            let has_event = next_event[s].is_some_and(|x| x < end)
                || pending[s].iter().any(|se| se.deliver_at < end);
            if gc || has_event {
                jobs.push((
                    s,
                    WindowCmd {
                        start: t,
                        end,
                        gc,
                        epoch_base,
                        incoming: std::mem::take(&mut pending[s]),
                    },
                ));
            }
        }
        let mut last: Option<(Time, u32)> = None;
        for r in exec(jobs) {
            next_event[r.shard] = r.next_event;
            for se in r.outbound {
                pending[coord.index[&se.env.dst].0].push(se);
            }
            last = last.max(r.last);
        }
        if let Some((u, e)) = last {
            *coord.stamp_time = u;
            *coord.stamp_epoch = e;
        }
        if gc {
            *coord.next_gc = t + coord.gc_period;
        }
    }
    *coord.clock = deadline;
    pending
}
