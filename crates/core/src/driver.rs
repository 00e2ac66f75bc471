//! The transport-agnostic node driver.
//!
//! The realtime substrates — OS threads over in-process channels, UDP
//! sockets — share one service loop (drain the transport, pump the
//! node, transmit the outputs, fire timers, sweep the tracer).
//! [`Driver`] is that loop, written once against the tiny [`Transport`]
//! pluggability seam; the runtimes call [`Driver::run_realtime`] on a
//! thread per node. The simulator does not go through it: the
//! population engine ([`crate::parallel`]) owns its nodes' inboxes and
//! the virtual clock directly.

use crate::node::Node;
use p2_net::{Envelope, ThreadedHub, UdpRecv, UdpTransport};
use p2_types::{Time, TimeDelta};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A node's view of its network substrate: somewhere to push outgoing
/// envelopes and somewhere to poll incoming ones.
///
/// Implementations must be non-blocking: `try_recv` returns `None` when
/// nothing is pending (including transient/undecodable input — a hostile
/// datagram must surface as "nothing", never wedge the loop).
pub trait Transport {
    /// Transmit one envelope. Best-effort: delivery failure is the
    /// remote's problem (soft state regenerates, §1).
    fn send(&mut self, env: &Envelope);
    /// Poll one incoming envelope, if any.
    fn try_recv(&mut self) -> Option<Envelope>;
}

/// One node bound to one transport, plus the periodic bookkeeping every
/// substrate needs (tracer reference-count GC).
pub struct Driver<T: Transport> {
    node: Node,
    transport: T,
    gc_period: TimeDelta,
    next_gc: Time,
}

impl<T: Transport> Driver<T> {
    /// Bind `node` to `transport`.
    pub fn new(node: Node, transport: T) -> Driver<T> {
        let gc_period = TimeDelta::from_secs(30);
        Driver {
            node,
            transport,
            gc_period,
            next_gc: Time::ZERO + gc_period,
        }
    }

    /// The driven node.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The driven node, mutably (install programs, watch relations).
    pub fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }

    /// The bound transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Unbind, returning the node (end-of-run inspection).
    pub fn into_node(self) -> Node {
        self.node
    }

    /// One service round at time `now`: drain the transport into the
    /// node, pump to quiescence, transmit the outputs. Fires no timers —
    /// the caller owns the clock ([`Driver::tick`] is handed it).
    pub fn service(&mut self, now: Time) {
        while let Some(env) = self.transport.try_recv() {
            self.node.deliver(env, now);
        }
        for env in self.node.pump(now) {
            self.transport.send(&env);
        }
    }

    /// One realtime iteration: fire due timers, service, and run the
    /// tracer GC sweep on its period.
    pub fn tick(&mut self, now: Time) {
        self.node.fire_timers(now);
        self.service(now);
        if now >= self.next_gc {
            self.node.trace_gc(now);
            self.next_gc = now + self.gc_period;
        }
    }

    /// Drive against the wall clock until `stop` is raised, polling every
    /// `poll` interval, then drain what is already in flight. Node time
    /// is micros since entry.
    pub fn run_realtime(&mut self, stop: &AtomicBool, poll: Duration) {
        let epoch = Instant::now();
        let now = |epoch: Instant| Time(epoch.elapsed().as_micros() as u64);
        while !stop.load(Ordering::Relaxed) {
            self.tick(now(epoch));
            std::thread::sleep(poll);
        }
        // Final drain: frames already queued when the flag flipped.
        self.service(now(epoch));
    }
}

/// In-memory port for driving a [`Driver`] by hand (tests, the bench
/// ledger's tick probe): the caller fills `inbox` and takes `outbox`.
#[derive(Default)]
pub struct SimPort {
    inbox: VecDeque<Envelope>,
    outbox: Vec<Envelope>,
}

impl SimPort {
    /// Queue an envelope for the node's next service round.
    pub fn enqueue(&mut self, env: Envelope) {
        self.inbox.push_back(env);
    }

    /// Take everything the node transmitted this round.
    pub fn drain_outbox(&mut self) -> Vec<Envelope> {
        std::mem::take(&mut self.outbox)
    }
}

impl Transport for SimPort {
    fn send(&mut self, env: &Envelope) {
        self.outbox.push(env.clone());
    }
    fn try_recv(&mut self) -> Option<Envelope> {
        self.inbox.pop_front()
    }
}

/// Port over the in-process threaded hub (`p2-net`'s marshaling channel
/// substrate).
pub struct ThreadedPort {
    hub: ThreadedHub,
    mailbox: p2_net::threaded::Mailbox,
}

impl ThreadedPort {
    /// Register `addr` on the hub and bind the resulting mailbox.
    pub fn register(hub: &ThreadedHub, addr: p2_types::Addr) -> ThreadedPort {
        ThreadedPort {
            hub: hub.clone(),
            mailbox: hub.register(addr),
        }
    }
}

impl Transport for ThreadedPort {
    fn send(&mut self, env: &Envelope) {
        self.hub.send(env);
    }
    fn try_recv(&mut self) -> Option<Envelope> {
        // A decode error is a corrupt peer frame: drop it, keep serving.
        self.mailbox.try_recv().ok().flatten()
    }
}

/// Port over a bound UDP socket (the paper's deployment substrate).
pub struct UdpPort {
    transport: UdpTransport,
    /// Undecodable datagrams seen (hostile or corrupt peers).
    pub malformed: u64,
}

impl UdpPort {
    /// Wrap a bound socket.
    pub fn new(transport: UdpTransport) -> UdpPort {
        UdpPort {
            transport,
            malformed: 0,
        }
    }
}

impl Transport for UdpPort {
    fn send(&mut self, env: &Envelope) {
        let _ = self.transport.send(env);
    }
    fn try_recv(&mut self) -> Option<Envelope> {
        loop {
            match self.transport.try_recv() {
                Ok(UdpRecv::Envelope(env)) => return Some(env),
                Ok(UdpRecv::Malformed { .. }) => self.malformed += 1,
                Ok(UdpRecv::Empty) | Err(_) => return None,
            }
        }
    }
}
