//! The population engine: one deterministic discrete-event simulator
//! for any number of shards (DESIGN.md §2.10).
//!
//! An [`Engine`] splits the node population round-robin across shards,
//! each owning its nodes and one shard-local [`SimNetwork`] fabric, and
//! advances virtual time **conservatively on published clocks**. Every
//! envelope takes at least `SimConfig.latency` to arrive, so a shard may
//! run an instant `u` once every peer has finished everything before
//! `u − latency`. Each shard publishes a clock — the virtual time before
//! which it will execute, and therefore send, nothing more — and owns a
//! mailbox its peers post cross-shard envelopes into (`Shard::advance`
//! is the whole protocol). Nobody coordinates: `min(shards, cores)`
//! workers — the calling thread and scoped threads — step their shards
//! round-robin and spin only while none of them can move. One shard —
//! what [`crate::SimHarness`] builds — has no peers, and the calling
//! thread takes it to the deadline in one pass.
//!
//! At an instant a shard fires due timers, sweeps the tracer on GC
//! instants, then settles in waves (pump the nodes that have work,
//! deliver everything due) with one stamp epoch per wave. Tracer GC is
//! population-global: a stepping *phase* ends at the GC deadline (or the
//! run's), and every shard runs the first instant at or past it. Control
//! operations (install, inject, restart) happen between runs on the
//! calling thread and settle the same way, over the nodes they marked.
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
//! instant, so it never waits on who else has events. A control
//! settle follows the same rule: it pumps the nodes a control op
//! touched (`node_mut`, `install`, `inject`, `restart`, `revive`) and
//! then those handed a delivery or left with a backlog.
//! [`crate::sim`] keeps the scan-everything stepper this is tested
//! against, whose settles pump every live node.

use crate::installer::CompileMap;
use crate::metrics::ShardStats;
use crate::node::{InstallError, Node, NodeConfig, ProgramId};
use p2_net::{NetStats, SimConfig, SimNetwork, StampedEnvelope};
use p2_types::{Addr, Time, TimeDelta, Tuple};
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
    /// Per-node "might have runnable work" flags, reused across instants.
    /// Control ops set them between runs; every instant and every
    /// control settle leaves them all-false.
    dirty: Vec<bool>,
    /// Nodes marked this instant (their cached timer needs recomputing).
    /// Drained at the end of every instant; a control settle only
    /// clears it.
    touched: Vec<usize>,
    /// Cached `Node::next_timer` per node, so the per-instant fire scan
    /// and `next_event` read a flat vector instead of peeking every
    /// node's timer heap. Refreshed wholesale at `run_until` entry
    /// (control ops between runs can change any timer) and
    /// incrementally for touched nodes inside a run.
    timers: Vec<Option<Time>>,
    /// Cached down-ness per local node — crash/revive only happen
    /// between runs, so this is constant across a run and saves an
    /// address hash per node per scan. Synced in `refresh_caches`.
    down: Vec<bool>,
    /// Last instant stamped at and the next free stamp epoch at it,
    /// synced with the engine's around every phase: an instant that
    /// continues a time control ops already stamped at continues its
    /// epochs.
    stamp: (Time, u32),
}

/// What a shard shows its peers. Cache-line aligned: a clock is written
/// by one thread and polled by the others.
#[derive(Default)]
#[repr(align(64))]
struct Port {
    /// Virtual µs before which the shard will execute, and therefore
    /// send, nothing more. Written by the shard's worker, only upwards.
    done: AtomicU64,
    /// Cross-shard envelopes for the shard's nodes, pushed by senders.
    mail: Mutex<Vec<StampedEnvelope>>,
}

impl Port {
    /// The mailbox. A push that panicked leaves a valid `Vec`, so a
    /// poisoned lock is recovered ([`on_workers`] carries the panic).
    fn mail(&self) -> MutexGuard<'_, Vec<StampedEnvelope>> {
        self.mail.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What the workers of one [`Engine::phase`] share.
struct Run<'a> {
    ports: &'a [Port],
    index: &'a HashMap<Addr, (usize, usize)>,
    /// The clock at `run_until` entry: an event left in the past (a node
    /// revived with a stale schedule) fires here.
    floor: Time,
    lookahead: TimeDelta,
    /// Set by a worker that panicked, so that peers waiting on its clock
    /// stop instead of spinning forever. Publishes nothing: `Relaxed`.
    abort: AtomicBool,
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

    /// Mark a node as having runnable work: the next wave pumps it.
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

    /// Move the mailbox into the fabric.
    fn collect(&mut self, port: &Port) {
        for se in std::mem::take(&mut *port.mail()) {
            self.net.accept(se);
        }
    }

    /// One step of the published-clock protocol: run every local instant
    /// the peers' clocks allow below `limit`; whether the own clock moved.
    ///
    /// The bit-identity of §2.10 rests on two orderings: the peers'
    /// clocks are read (`Acquire`) *before* the mailbox is drained, and a
    /// sender pushes an instant's mail *before* it publishes (`Release`)
    /// a clock past that instant. So everything a peer sent before the
    /// `done` read here is in the fabric before an instant runs, and what
    /// it sends later arrives at or after `done + lookahead ≥ h`.
    fn advance(&mut self, run: &Run<'_>, limit: Time) -> bool {
        let port = &run.ports[self.id];
        #[cfg(test)]
        tests::perturb();
        let peers = run.ports.iter().enumerate().filter(|(p, _)| *p != self.id);
        let slowest = peers.map(|(_, p)| p.done.load(Ordering::Acquire)).min();
        let h = slowest.map_or(limit, |d| limit.min(Time(d) + run.lookahead));
        if h.0 <= port.done.load(Ordering::Relaxed) {
            return false;
        }
        self.collect(port);
        loop {
            // Nothing arrives before `h` any more, so the next local
            // event (a stale one fires at the floor) is the next instant.
            let u = self.next_event().map_or(h, |e| e.max(run.floor).min(h));
            port.done.store(u.0, Ordering::Release);
            if u == h {
                return true;
            }
            self.run_instant(u, false);
            #[cfg(test)]
            tests::perturb();
            let outbound = self.net.take_outbound();
            self.stats.mailbox_envelopes += outbound.len() as u64;
            for se in outbound {
                run.ports[run.index[&se.env.dst].0].mail().push(se);
            }
        }
    }

    /// Run one event instant: fire due timers, sweep the tracer on GC
    /// instants, then settle in waves, pumping only dirty nodes (see
    /// the module docs).
    fn run_instant(&mut self, u: Time, gc: bool) {
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
        let mut epoch = if self.stamp.0 == u { self.stamp.1 } else { 0 };
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
        self.stamp = (u, epoch);
        self.stats.events += 1;
    }
}

impl Run<'_> {
    /// A worker's share of a stepping phase: step its shards round-robin
    /// until each has published `limit`, spinning — then yielding —
    /// only while none of them can move.
    fn step(&self, group: &mut [&mut Shard], limit: Time) {
        let mut idle = 0u32;
        loop {
            let mut moved = false;
            let mut open = false;
            for shard in group.iter_mut() {
                moved |= shard.advance(self, limit);
                open |= self.ports[shard.id].done.load(Ordering::Relaxed) < limit.0;
            }
            if !open || self.abort.load(Ordering::Relaxed) {
                return;
            }
            if moved {
                idle = 0;
            } else if idle < 64 {
                idle += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Sets the run's abort flag when its worker unwinds.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Run `work` over the shards on `threads` workers: the calling thread
/// is worker 0, scoped threads are the rest, and worker *k* gets shards
/// *k, k + threads, …*. A worker that panics raises `run.abort` so its
/// peers return instead of waiting on its clock, and its panic is
/// re-raised here once every worker has stopped.
fn on_workers(
    shards: &mut [Shard],
    threads: usize,
    run: &Run<'_>,
    work: impl Fn(&Run<'_>, &mut [&mut Shard]) + Sync,
) {
    let workers = threads.clamp(1, shards.len());
    let mut groups: Vec<Vec<&mut Shard>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, shard) in shards.iter_mut().enumerate() {
        groups[i % workers].push(shard);
    }
    let work = |group: &mut [&mut Shard]| {
        let _guard = AbortOnPanic(&run.abort);
        work(run, group);
    };
    std::thread::scope(|scope| {
        let mut groups = groups.into_iter();
        let mut mine = groups.next().unwrap_or_default();
        let work = &work;
        let rest: Vec<_> = groups
            .map(|mut group| scope.spawn(move || work(&mut group)))
            .collect();
        work(&mut mine);
        for worker in rest {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// How an [`Engine`] is built and stepped. The three implementors exist
/// so that [`crate::SimHarness`] (one shard), [`ParallelHarness`] (any
/// shard count) and the test oracle can each have their own constructor
/// over the one struct.
pub trait Mode {
    /// Step with the scan-everything reference loop of [`crate::sim`]
    /// instead of the published-clock protocol.
    #[doc(hidden)]
    const NAIVE: bool = false;
}

/// Marker for [`ParallelHarness`].
pub struct Sharded;
impl Mode for Sharded {}

/// A sharded, conservatively synchronised population.
pub type ParallelHarness = Engine<Sharded>;

/// A population of simulated P2 nodes over a virtual clock: the shards,
/// their ports, the run loop's state, and the control plane.
pub struct Engine<M> {
    pub(crate) shards: Vec<Shard>,
    ports: Vec<Port>,
    index: HashMap<Addr, (usize, usize)>,
    order: Vec<Addr>,
    pub(crate) clock: Time,
    /// Period of the tracer's reference-count GC sweep.
    pub(crate) gc_period: TimeDelta,
    pub(crate) next_gc: Time,
    lookahead: TimeDelta,
    base_node_config: NodeConfig,
    seed: u64,
    /// Last instant stamped at and the next free stamp epoch at it.
    stamp: (Time, u32),
    /// Per-node config as registered, replayed on [`Engine::restart`].
    configs: HashMap<Addr, NodeConfig>,
    /// Every program this engine installed, compiled once per catalog.
    compiles: CompileMap,
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
    /// conservative lookahead, so it must be positive for a shard ever
    /// to run ahead of a peer's clock.
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
        let lookahead = net_config.latency;
        let ports = (0..shards).map(|_| Port::default()).collect();
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
                stamp: (Time::ZERO, 0),
            })
            .collect();
        Engine {
            shards,
            ports,
            index: HashMap::new(),
            order: Vec::new(),
            clock: Time::ZERO,
            gc_period: TimeDelta::from_secs(30),
            next_gc: Time::from_secs(30),
            lookahead,
            base_node_config: nc,
            seed,
            stamp: (Time::ZERO, 0),
            configs: HashMap::new(),
            compiles: CompileMap::default(),
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
        // Whatever the caller does to it, the next settle pumps it.
        let shard = &mut self.shards[si];
        shard.mark(ni);
        &mut shard.nodes[ni].node
    }

    /// All node addresses in insertion order.
    pub fn addrs(&self) -> &[Addr] {
        &self.order
    }

    /// Install a program on one node at the current time and settle.
    pub fn install(&mut self, addr: &Addr, source: &str) -> Result<ProgramId, InstallError> {
        let pid = self.install_on(addr, source)?;
        self.control_settle();
        Ok(pid)
    }

    /// Install the same program on every node, then settle once.
    pub fn install_all(&mut self, source: &str) -> Result<Vec<ProgramId>, InstallError> {
        let mut out = Vec::new();
        for i in 0..self.order.len() {
            let addr = self.order[i].clone();
            out.push(self.install_on(&addr, source)?);
        }
        self.control_settle();
        Ok(out)
    }

    /// Install on one node at the current time, compiling only if no
    /// node with the same catalog has installed `source` before.
    fn install_on(&mut self, addr: &Addr, source: &str) -> Result<ProgramId, InstallError> {
        let (si, ni) = self.index[addr];
        let shard = &mut self.shards[si];
        shard.mark(ni);
        let node = &mut shard.nodes[ni].node;
        let compiled = self.compiles.get(source, node.catalog.table_names())?;
        node.install_compiled(compiled, self.clock)
    }

    /// How many (source, catalog) pairs this engine has compiled: every
    /// other install reused one of those compiles.
    pub fn compiled_programs(&self) -> usize {
        self.compiles.len()
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

    /// Revive a crashed node. What it was handed while down (an
    /// injected tuple) runs at the next settle.
    pub fn revive(&mut self, addr: &Addr) {
        for shard in &mut self.shards {
            shard.net.set_down(addr, false);
        }
        if let Some(&(si, ni)) = self.index.get(addr) {
            self.shards[si].mark(ni);
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
    /// the node comes back empty. The programs it had installed and
    /// not uninstalled are reinstalled, in install order, at the current
    /// virtual time, and every shard fabric marks the node reachable
    /// again.
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
        let mut old = std::mem::replace(
            &mut slot.node,
            Node::new(addr.clone(), NodeConfig::default()),
        );
        let programs = std::mem::take(&mut old.programs);
        let store = old.into_durable();
        slot.node = Node::with_recovered(addr.clone(), config, store);
        slot.inbox.clear();
        self.shards[si].timers[ni] = None;
        let reinstalled = programs
            .iter()
            .try_for_each(|(_, source)| self.install_on(addr, source).map(drop));
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

    /// Per-shard runtime counters (events, rendezvous, mailbox
    /// envelopes), in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Hand the current stamp epoch out and advance past it, resetting
    /// at a fresh instant.
    fn alloc_epoch(&mut self, t: Time) -> u32 {
        if self.stamp.0 != t {
            self.stamp = (t, 0);
        }
        self.stamp.1 += 1;
        self.stamp.1 - 1
    }

    /// Pump the marked nodes and exchange due messages until nothing
    /// more can happen at the current virtual time: marked live nodes in
    /// insertion order, one stamp epoch per wave, cross-shard mail
    /// routed directly. A node handed a delivery or left with a backlog
    /// is marked for the next wave; a pump of any other node would be a
    /// no-op (see the module docs). The oracle pumps every live node in
    /// every wave. Sends from later waves of the same instant carry
    /// larger stamps, so delivery order reproduces causal order. Runs on
    /// the calling thread — control ops happen between runs, when it
    /// owns all shards.
    pub(crate) fn control_settle(&mut self) {
        let t = self.clock;
        let width = self.shards.len();
        loop {
            let e = self.alloc_epoch(t);
            for shard in &mut self.shards {
                shard.net.set_stamp(t, e);
            }
            let mut progress = false;
            for i in 0..self.order.len() {
                // Round-robin placement: the i-th node added is local
                // node i / width of shard i % width.
                let (shard, ni) = (&mut self.shards[i % width], i / width);
                if !(M::NAIVE || shard.dirty[ni]) {
                    continue;
                }
                shard.dirty[ni] = false;
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
                if sn.node.has_backlog() {
                    shard.mark(ni);
                    progress = true;
                }
            }
            self.route_outbound();
            for shard in &mut self.shards {
                for env in shard.net.pop_due(t) {
                    let ni = shard.local_idx[&env.dst];
                    shard.nodes[ni].inbox.push_back(env);
                    shard.mark(ni);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        // No timer cache to update: `run_until` re-reads them on entry.
        for shard in &mut self.shards {
            shard.touched.clear();
        }
    }

    /// Move every shard's outbound mailbox into the owning fabric's
    /// delivery heap (calling-thread routing, between phases).
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
    /// carries `shard.*` rows. A single shard has no peers or mailbox
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
    /// in order. A deadline in the past is the current time: the clock
    /// never runs backwards.
    pub fn run_until(&mut self, deadline: Time) {
        let deadline = deadline.max(self.clock);
        if M::NAIVE {
            return self.run_until_naive(deadline);
        }
        // One worker per shard, up to the hardware's threads (a handful
        // of file reads on Linux; one shard never asks).
        let threads = match self.shards.len() {
            1 => 1,
            _ => std::thread::available_parallelism().map_or(1, |p| p.get()),
        };
        self.run_until_on(deadline, threads);
    }

    /// [`Engine::run_until`] on a given number of workers (which must not
    /// change anything observable; tests sweep it).
    pub(crate) fn run_until_on(&mut self, deadline: Time, threads: usize) {
        // Settle on entry (work left behind by control ops — e.g. a
        // tuple injected into a then-down node that has since revived —
        // dispatches *before* the first event) and again at the deadline.
        self.control_settle();
        if self.order.is_empty() {
            self.clock = deadline;
            return;
        }
        for (shard, port) in self.shards.iter_mut().zip(&self.ports) {
            shard.refresh_caches();
            port.done.store(self.clock.0, Ordering::Relaxed);
        }
        loop {
            // A phase runs every instant before `limit`, which no shard
            // passes alone: the deadline, or the tracer sweep.
            let limit = self.next_gc.min(deadline + TimeDelta::from_micros(1));
            self.phase(threads, |run, group| run.step(group, limit));
            // Mail posted after its reader finished is due at or past
            // the limit.
            for (shard, port) in self.shards.iter_mut().zip(&self.ports) {
                shard.collect(port);
                shard.stats.barrier_waits += 1;
            }
            let next = self.shards.iter().filter_map(Shard::next_event).min();
            let t = match next {
                Some(t) if t <= deadline => t.max(self.clock),
                _ => break,
            };
            // The tracer sweep is population-global: the first instant at
            // or past the GC deadline is run by every shard, events or
            // not.
            self.phase(threads, |_, group| {
                for shard in group {
                    shard.run_instant(t, true);
                }
            });
            self.route_outbound();
            self.next_gc = t + self.gc_period;
            for port in &self.ports {
                port.done.store(t.0, Ordering::Relaxed);
            }
        }
        self.clock = deadline;
        self.control_settle();
        self.publish_shard_stats();
    }

    /// Lend the shards to `threads` workers for one job, threading the
    /// stamp epoch through it.
    fn phase(&mut self, threads: usize, work: impl Fn(&Run<'_>, &mut [&mut Shard]) + Sync) {
        for shard in &mut self.shards {
            shard.stamp = self.stamp;
        }
        let run = Run {
            ports: &self.ports,
            index: &self.index,
            floor: self.clock,
            lookahead: self.lookahead,
            abort: AtomicBool::new(false),
        };
        on_workers(&mut self.shards, threads, &run, work);
        for shard in &self.shards {
            self.stamp = self.stamp.max(shard.stamp);
        }
    }

    /// Advance virtual time by `delta`.
    pub fn run_for(&mut self, delta: TimeDelta) {
        let deadline = self.clock + delta;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SequentialOracle;
    use std::fmt::Write as _;

    /// The workers' interleaving perturbation: a stream every worker
    /// draws from, 0 while off. Process-wide, so other tests running
    /// beside the one that turns it on are perturbed too — it moves
    /// timing only, which is the point.
    static PERTURB: AtomicU64 = AtomicU64::new(0);

    /// Vary the interleaving of workers: a seeded choice of nothing, a
    /// yield, or a short sleep, taken before a shard reads its peers'
    /// clocks and before it posts an instant's mail.
    pub(super) fn perturb() {
        if PERTURB.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut x = PERTURB.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        match x % 8 {
            0..=2 => std::thread::yield_now(),
            3 => std::thread::sleep(std::time::Duration::from_micros((x >> 32) % 100)),
            _ => {}
        }
    }

    /// A traced token ring run across a tracer-GC instant (30 s) and a
    /// `restart`: per node, the sorted rows of the scenario and tracer
    /// tables, then the fabric's counters.
    fn token_ring<M: Mode>(sim: &mut Engine<M>, threads: usize) -> String {
        let run = |sim: &mut Engine<M>, secs: u64| {
            let deadline = sim.now() + TimeDelta::from_secs(secs);
            if M::NAIVE {
                sim.run_until(deadline);
            } else {
                sim.run_until_on(deadline, threads);
            }
        };
        let n = 16;
        let addrs: Vec<Addr> = (0..n).map(|i| sim.add_node(&format!("m{i}"))).collect();
        sim.install_all(
            "materialize(succ, infinity, 8, keys(1)).
             materialize(seen, infinity, infinity, keys(1, 2, 3)).
             tick token@M(E, 5) :- periodic@N(E, 1), succ@N(M).
             fwd token@M(E, C2) :- token@N(E, C), C > 0, succ@N(M), C2 := C - 1.
             rec seen@N(E, C) :- token@N(E, C).",
        )
        .unwrap();
        for (i, addr) in addrs.iter().enumerate() {
            let fact = format!("succ@\"m{i}\"(\"m{}\").\n", (i + 1) % n);
            sim.install(addr, &fact).unwrap();
        }
        run(sim, 17);
        sim.restart(&addrs[4]).unwrap();
        run(sim, 18);
        let now = sim.now();
        let stats = sim.net_stats();
        let mut out = String::new();
        for a in &addrs {
            let delivered = stats.delivered_to.get(a).copied().unwrap_or(0);
            writeln!(out, "{a} sent={} delivered={delivered}", stats.sent_by(a)).unwrap();
            for table in ["seen", "ruleExec", "tupleTable"] {
                let rows = sim.node_mut(a).table_scan(table, now);
                let mut rows: Vec<String> = rows.iter().map(|t| t.to_string()).collect();
                rows.sort();
                out.push_str(&rows.join("\n"));
            }
        }
        writeln!(out, "dropped={}", stats.dropped).unwrap();
        out
    }

    /// Every shard count × worker count is the oracle's bits, and the
    /// shard counters do not depend on the worker count — with the
    /// workers' interleaving perturbed, on any host (`threads` is an
    /// argument here, `available_parallelism` only in production). Two
    /// fabrics: in lockstep (no jitter, unstaggered timers) every
    /// delivery lands exactly on a horizon; jittered and staggered, a
    /// lookahead holds several instants of each shard.
    ///
    /// Three mutations of [`Shard::advance`] must each fail this test,
    /// and did (three runs of three, two cores) when it was written:
    /// the horizon test `u <= h` for `u < h`; publishing `done` for the
    /// next instant before the last one's outbound is in the mailboxes;
    /// draining the mailbox before the perturbed read of the peers'
    /// `done`. Each splits an instant in two, which `events` shows even
    /// where the tables come out the same.
    #[test]
    fn every_shard_and_worker_count_is_the_oracle() {
        let lockstep = NodeConfig {
            tracing: true,
            stagger_timers: false,
            ..Default::default()
        };
        let staggered = NodeConfig {
            tracing: true,
            ..Default::default()
        };
        let jittered = SimConfig {
            jitter: TimeDelta::from_millis(6),
            ..Default::default()
        };
        PERTURB.store(0x2545_f491_4f6c_dd1d, Ordering::Relaxed);
        for (net, node) in [(SimConfig::default(), lockstep), (jittered, staggered)] {
            let want = token_ring(&mut SequentialOracle::new(net.clone(), node.clone(), 77), 1);
            assert!(want.contains("ruleExec"), "the scenario is traced");
            for shards in [1usize, 2, 3, 8] {
                let mut counters = Vec::new();
                for threads in [1, 2, shards] {
                    let mut sim = ParallelHarness::new(net.clone(), node.clone(), 77, shards);
                    let got = token_ring(&mut sim, threads);
                    assert!(got == want, "{shards} shards on {threads} workers diverged");
                    counters.push(sim.shard_stats());
                }
                assert!(
                    counters.iter().all(|c| *c == counters[0]),
                    "{shards} shards: counters moved with the worker count: {counters:?}"
                );
                assert!(counters[0].iter().all(|s| s.events > 0));
            }
        }
        PERTURB.store(0, Ordering::Relaxed);
    }

    /// A compile shared between nodes is the compile each would make
    /// alone. `ping` is a table on `a` and `c` and an event on `b`, so
    /// one source compiles twice — once per catalog — and `a` and `c`
    /// run the same strands. Each node's plans and outputs are those of
    /// a lone node that compiled the source itself.
    #[test]
    fn a_shared_compile_is_each_nodes_own() {
        fn plans(node: &Node) -> Vec<&p2_planner::plan::Strand> {
            let branches = node.strands.iter().flat_map(|s| s.branches());
            branches.map(|(plan, _)| plan).collect()
        }
        let table = "materialize(ping, infinity, infinity, keys(1, 2)).";
        let source = "r pong@N(Y) :- ping@N(X), Y := X * 2.";
        let mut sim = ParallelHarness::with_seed(3, 2);
        let nodes = [("a", true), ("b", false), ("c", true)];
        for (name, has_table) in nodes {
            let addr = sim.add_node(name);
            if has_table {
                sim.install(&addr, table).unwrap();
            }
        }
        sim.install_all(source).unwrap();
        let compiles = sim.compiled_programs();
        assert_eq!(compiles, 3, "the table, and the source once per catalog");
        {
            let [a, b, c] = ["a", "b", "c"].map(|name| plans(sim.node(&Addr::new(name))));
            let same = |x: &[&_], y: &[&_]| x.iter().zip(y).all(|(p, q)| std::ptr::eq(*p, *q));
            assert!(same(&a, &c), "a and c share one compile's strands");
            assert!(!same(&a, &b), "b's catalog has its own compile");
        }

        for (name, has_table) in nodes {
            let addr = Addr::new(name);
            let mut alone = Node::new(addr.clone(), NodeConfig::default());
            if has_table {
                alone.install(table, sim.now()).unwrap();
            }
            alone.install(source, sim.now()).unwrap();
            assert_eq!(
                plans(sim.node(&addr)),
                plans(&alone),
                "{name}: plans differ"
            );

            let ping = Tuple::new("ping", [p2_types::Value::Addr(addr.clone()), 21.into()]);
            alone.watch("pong");
            alone.inject(ping.clone());
            alone.pump(sim.now());
            sim.node_mut(&addr).watch("pong");
            sim.inject(&addr, ping);
            let got = sim.node_mut(&addr).take_watched("pong");
            assert_eq!(got, alone.take_watched("pong"), "{name}: outputs differ");
            assert_eq!(got.len(), 1);
        }
    }

    /// A worker that dies mid-phase fails the run with its own panic;
    /// the peers spinning on its clock stop instead of hanging.
    #[test]
    fn a_dying_worker_fails_the_phase() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut sim = ParallelHarness::with_seed(1, 3);
            for i in 0..3 {
                sim.add_node(&format!("n{i}"));
            }
            let limit = Time::from_secs(5);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.phase(3, |run, group| {
                    if group[0].id == 1 {
                        panic!("shard 1 died");
                    }
                    run.step(group, limit);
                });
            }));
            let _ = tx.send(caught.map_err(|p| p.downcast_ref::<&str>().copied()));
        });
        let got = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert_eq!(
            got,
            Ok(Err(Some("shard 1 died"))),
            "hung, or lost the panic"
        );
    }
}
