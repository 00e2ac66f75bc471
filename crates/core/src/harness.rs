//! The harness abstraction: one population at any shard count.
//!
//! Testbed builders (the Chord ring of `p2-chord`, the measurement rigs
//! of `p2-bench`) and generic experiments drive a simulated population
//! through this trait, so they run unchanged on [`crate::SimHarness`],
//! on [`crate::ParallelHarness`] at any shard count, and on the
//! [`crate::sim::SequentialOracle`] the equivalence suite compares them
//! against. All three are the one [`Engine`] of DESIGN.md §2.10,
//! bit-identical for the same seed.

use crate::node::{InstallError, Node, NodeConfig, ProgramId};
use crate::parallel::{Engine, Mode};
use p2_net::NetStats;
use p2_types::{Addr, Time, TimeDelta, Tuple};

/// A driveable population of simulated P2 nodes over a virtual clock.
pub trait Population {
    /// The current virtual time.
    fn now(&self) -> Time;

    /// The harness seed (node RNGs and ring IDs derive from it).
    fn seed(&self) -> u64;

    /// Add a node using the harness's node-config template.
    fn add_node(&mut self, name: &str) -> Addr;

    /// Add a node with an explicit config.
    fn add_node_with(&mut self, name: &str, config: NodeConfig) -> Addr;

    /// All node addresses in insertion order.
    fn addrs(&self) -> &[Addr];

    /// Access a node.
    fn node(&self, addr: &Addr) -> &Node;

    /// Access a node mutably.
    fn node_mut(&mut self, addr: &Addr) -> &mut Node;

    /// Install a program on one node at the current time and settle.
    fn install(&mut self, addr: &Addr, source: &str) -> Result<ProgramId, InstallError>;

    /// Install the same program on every node, then settle once.
    fn install_all(&mut self, source: &str) -> Result<Vec<ProgramId>, InstallError>;

    /// Inject a tuple at a node and settle.
    fn inject(&mut self, addr: &Addr, tuple: Tuple);

    /// Crash a node: the network drops its traffic and the node stops
    /// executing until revived.
    fn crash(&mut self, addr: &Addr);

    /// Revive a crashed node.
    fn revive(&mut self, addr: &Addr);

    /// Whether the node is crashed.
    fn is_down(&self, addr: &Addr) -> bool;

    /// Restart a node: all soft state is lost (as in a process crash),
    /// archived history is recovered from the node's durable store when
    /// durability is configured, the programs the node had installed
    /// and not uninstalled are
    /// reinstalled at the current virtual time, and the node becomes
    /// reachable again. Bit-identical across shard counts for the same
    /// seed and fault schedule.
    fn restart(&mut self, addr: &Addr) -> Result<(), InstallError>;

    /// Set the uniform packet-loss rate on the fabric (0.0 ..= 1.0).
    fn set_loss_rate(&mut self, rate: f64);

    /// Sever (`cut`) or restore the directed link `src → dst`.
    fn set_cut(&mut self, src: &Addr, dst: &Addr, cut: bool);

    /// Advance virtual time to `deadline`, firing timers and deliveries
    /// in order.
    fn run_until(&mut self, deadline: Time);

    /// Advance virtual time by `delta`.
    fn run_for(&mut self, delta: TimeDelta) {
        let deadline = self.now() + delta;
        self.run_until(deadline);
    }

    /// Population-wide network counters (merged across shard fabrics).
    fn net_stats(&self) -> NetStats;
}

impl<M: Mode> Population for Engine<M> {
    fn now(&self) -> Time {
        Engine::now(self)
    }
    fn seed(&self) -> u64 {
        Engine::seed(self)
    }
    fn add_node(&mut self, name: &str) -> Addr {
        Engine::add_node(self, name)
    }
    fn add_node_with(&mut self, name: &str, config: NodeConfig) -> Addr {
        Engine::add_node_with(self, name, config)
    }
    fn addrs(&self) -> &[Addr] {
        Engine::addrs(self)
    }
    fn node(&self, addr: &Addr) -> &Node {
        Engine::node(self, addr)
    }
    fn node_mut(&mut self, addr: &Addr) -> &mut Node {
        Engine::node_mut(self, addr)
    }
    fn install(&mut self, addr: &Addr, source: &str) -> Result<ProgramId, InstallError> {
        Engine::install(self, addr, source)
    }
    fn install_all(&mut self, source: &str) -> Result<Vec<ProgramId>, InstallError> {
        Engine::install_all(self, source)
    }
    fn inject(&mut self, addr: &Addr, tuple: Tuple) {
        Engine::inject(self, addr, tuple)
    }
    fn crash(&mut self, addr: &Addr) {
        Engine::crash(self, addr)
    }
    fn revive(&mut self, addr: &Addr) {
        Engine::revive(self, addr)
    }
    fn is_down(&self, addr: &Addr) -> bool {
        Engine::is_down(self, addr)
    }
    fn restart(&mut self, addr: &Addr) -> Result<(), InstallError> {
        Engine::restart(self, addr)
    }
    fn set_loss_rate(&mut self, rate: f64) {
        Engine::set_loss_rate(self, rate)
    }
    fn set_cut(&mut self, src: &Addr, dst: &Addr, cut: bool) {
        Engine::set_cut(self, src, dst, cut)
    }
    fn run_until(&mut self, deadline: Time) {
        Engine::run_until(self, deadline)
    }
    fn net_stats(&self) -> NetStats {
        Engine::net_stats(self)
    }
}
