//! The transport-agnostic node driver.
//!
//! The realtime substrates — OS threads over in-process channels, UDP
//! sockets — share one service loop (drain the transport, pump the
//! node, transmit the outputs, fire timers, sweep the tracer, then
//! block on the transport until the next envelope or deadline).
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
/// envelopes, somewhere to poll incoming ones, and a way to sleep until
/// there is something to poll.
///
/// `send` and `try_recv` never block. `wait` is the one call that may,
/// and only for as long as it is told. Transient and undecodable input
/// — a hostile datagram — surfaces as "nothing" from either receive
/// call: it is counted and dropped, it never panics and never leaves
/// the port unable to receive.
pub trait Transport {
    /// Transmit one envelope. Best-effort: delivery failure is the
    /// remote's problem (soft state regenerates, §1).
    fn send(&mut self, env: &Envelope);
    /// Poll one incoming envelope, if any: first the one a `wait`
    /// stashed, then the substrate.
    fn try_recv(&mut self) -> Option<Envelope>;
    /// Block in the OS until an envelope is pending or `timeout` has
    /// passed, whichever is first; [`Driver::run_realtime`] parks here
    /// between ticks. An envelope `wait` has to take off the substrate
    /// to learn that it arrived is the port's to keep (its stash) until
    /// the next `try_recv` hands it out, so none is lost or reordered.
    /// `wait` may return early (a frame it had to discard, a stash
    /// already full); it must not block when `timeout` is zero or an
    /// envelope is already pending, must not busy-wait, and must not
    /// outstay `timeout` by more than the OS timer's slack — the caller
    /// re-checks its stop flag and timers only when it returns.
    fn wait(&mut self, timeout: Duration);
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

    /// Drive against the wall clock until `stop` is raised, then drain
    /// what is already in flight. Node time is micros since entry.
    ///
    /// Event-driven: after each tick the thread blocks in
    /// [`Transport::wait`] until an envelope arrives or the earliest of
    /// the node's next timer (ship deadlines included), the next tracer
    /// GC, and `poll` from now — so a message is served when it lands
    /// and a periodic rule fires at its deadline. `poll` is only the
    /// longest the loop goes without looking at `stop`: an idle node
    /// with no timers wakes once per `poll`, and nothing spins.
    pub fn run_realtime(&mut self, stop: &AtomicBool, poll: Duration) {
        let epoch = Instant::now();
        let now = |epoch: Instant| Time(epoch.elapsed().as_micros() as u64);
        let poll = TimeDelta::from_micros(poll.as_micros().try_into().unwrap_or(u64::MAX));
        while !stop.load(Ordering::Relaxed) {
            let t = now(epoch);
            self.tick(t);
            let wake = self
                .node
                .next_timer()
                .map_or(self.next_gc, |timer| timer.min(self.next_gc))
                .min(t + poll);
            // Measured after the tick, which may have been long; a
            // deadline already behind us waits zero, i.e. not at all.
            let left = wake.since(now(epoch));
            self.transport.wait(Duration::from_micros(left.micros()));
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
    fn wait(&mut self, timeout: Duration) {
        // Only the thread that owns the port can fill the inbox, so an
        // empty one stays empty for the whole timeout.
        if self.inbox.is_empty() {
            std::thread::sleep(timeout);
        }
    }
}

/// Port over the in-process threaded hub (`p2-net`'s marshaling channel
/// substrate).
pub struct ThreadedPort {
    hub: ThreadedHub,
    mailbox: p2_net::threaded::Mailbox,
    /// The envelope the last `wait` woke on, for the next `try_recv`.
    stash: Option<Envelope>,
    /// Undecodable frames seen (a corrupt peer): dropped, keep serving.
    pub malformed: u64,
}

impl ThreadedPort {
    /// Register `addr` on the hub and bind the resulting mailbox.
    pub fn register(hub: &ThreadedHub, addr: p2_types::Addr) -> ThreadedPort {
        ThreadedPort {
            hub: hub.clone(),
            mailbox: hub.register(addr),
            stash: None,
            malformed: 0,
        }
    }
}

impl Transport for ThreadedPort {
    fn send(&mut self, env: &Envelope) {
        self.hub.send(env);
    }
    fn try_recv(&mut self) -> Option<Envelope> {
        if let Some(env) = self.stash.take() {
            return Some(env);
        }
        loop {
            match self.mailbox.try_recv() {
                Ok(env) => return env,
                Err(_) => self.malformed += 1,
            }
        }
    }
    fn wait(&mut self, timeout: Duration) {
        if self.stash.is_some() {
            return;
        }
        match self.mailbox.recv_timeout(timeout) {
            Ok(env) => self.stash = env,
            Err(_) => self.malformed += 1,
        }
    }
}

/// Port over a bound UDP socket (the paper's deployment substrate).
pub struct UdpPort {
    transport: UdpTransport,
    /// The envelope the last `wait` woke on, for the next `try_recv`.
    stash: Option<Envelope>,
    /// Undecodable datagrams seen (hostile or corrupt peers).
    pub malformed: u64,
    /// Datagrams the OS refused to send (oversized, unroutable): the
    /// envelope is lost like any dropped datagram, but not silently.
    pub send_errors: u64,
}

impl UdpPort {
    /// Wrap a bound socket.
    pub fn new(transport: UdpTransport) -> UdpPort {
        UdpPort {
            transport,
            stash: None,
            malformed: 0,
            send_errors: 0,
        }
    }
}

impl Transport for UdpPort {
    fn send(&mut self, env: &Envelope) {
        if self.transport.send(env).is_err() {
            self.send_errors += 1;
        }
    }
    fn try_recv(&mut self) -> Option<Envelope> {
        if let Some(env) = self.stash.take() {
            return Some(env);
        }
        loop {
            match self.transport.try_recv() {
                Ok(UdpRecv::Envelope(env)) => return Some(env),
                Ok(UdpRecv::Malformed { .. }) => self.malformed += 1,
                Ok(UdpRecv::Empty) | Err(_) => return None,
            }
        }
    }
    fn wait(&mut self, timeout: Duration) {
        if self.stash.is_some() {
            return;
        }
        match self.transport.recv_timeout(timeout) {
            Ok(UdpRecv::Envelope(env)) => self.stash = Some(env),
            Ok(UdpRecv::Malformed { .. }) => self.malformed += 1,
            Ok(UdpRecv::Empty) => {}
            // A socket that fails at once would otherwise turn the
            // caller's loop into a spin.
            Err(_) => std::thread::sleep(timeout),
        }
    }
}
