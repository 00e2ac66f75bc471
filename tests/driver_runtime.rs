//! The shared [`Driver`] service loop over both realtime substrates.
//!
//! These tests drive the loop over the threaded hub and real UDP
//! sockets via [`Driver::run_realtime`]. The loop is event-driven: it
//! blocks in [`Transport::wait`] until an envelope or a deadline, and
//! `poll` only bounds how long it goes without looking at `stop` — so
//! the tests below run with a `poll` far longer than what they time.

use p2ql::core::{Driver, Node, NodeConfig, ThreadedPort, Transport, UdpPort};
use p2ql::net::{Envelope, ThreadedHub, UdpTransport};
use p2ql::types::{Addr, DetRng, Time, Tuple, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A port that counts how often the driver parks on it.
struct Counting<T> {
    inner: T,
    waits: Arc<AtomicU64>,
}

impl<T: Transport> Transport for Counting<T> {
    fn send(&mut self, env: &Envelope) {
        self.inner.send(env)
    }
    fn try_recv(&mut self) -> Option<Envelope> {
        self.inner.try_recv()
    }
    fn wait(&mut self, timeout: Duration) {
        self.waits.fetch_add(1, Ordering::Relaxed);
        self.inner.wait(timeout)
    }
}

/// A driver running on its own thread until stopped.
struct Running<T: Transport> {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Driver<T>>,
}

impl<T: Transport + Send + 'static> Running<T> {
    fn start(node: Node, port: T, poll: Duration) -> Running<T> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut driver = Driver::new(node, port);
            driver.run_realtime(&flag, poll);
            driver
        });
        Running { stop, thread }
    }

    fn stop(self) -> Driver<T> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("the driver thread panicked")
    }
}

fn node_with(addr: &Addr, program: &str) -> Node {
    let mut node = Node::new(
        addr.clone(),
        NodeConfig {
            stagger_timers: false,
            ..Default::default()
        },
    );
    node.install(program, Time::ZERO).unwrap();
    node
}

/// Answers `ping@N(Src, Seq)` with `pong@Src(N, Seq)`.
fn echo_node(addr: &Addr) -> Node {
    node_with(addr, "e1 pong@Src(N, Seq) :- ping@N(Src, Seq).")
}

fn ping(server: &Addr, client: &Addr, seq: i64) -> Envelope {
    Envelope::new(
        Tuple::new(
            "ping",
            [
                Value::Addr(server.clone()),
                Value::Addr(client.clone()),
                Value::Int(seq),
            ],
        ),
        client.clone(),
        server.clone(),
    )
}

/// Block on the client's own port until the pong for `seq` arrives.
fn await_pong<T: Transport>(client: &mut T, seq: i64, within: Duration) -> bool {
    let deadline = Instant::now() + within;
    loop {
        while let Some(env) = client.try_recv() {
            if env
                .tuples
                .iter()
                .any(|t| t.get(2) == Some(&Value::Int(seq)))
            {
                return true;
            }
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        client.wait(left);
    }
}

fn bind_udp() -> (UdpTransport, Addr) {
    let t = UdpTransport::bind(&Addr::new("127.0.0.1:0")).unwrap();
    let addr = t.local_addr().unwrap();
    (t, addr)
}

/// A threaded server port and a client port on one hub.
fn threaded_pair() -> ((ThreadedPort, Addr), (ThreadedPort, Addr), ThreadedHub) {
    let hub = ThreadedHub::new();
    let (server, client) = (Addr::new("server"), Addr::new("client"));
    (
        (ThreadedPort::register(&hub, server.clone()), server),
        (ThreadedPort::register(&hub, client.clone()), client),
        hub,
    )
}

/// A UDP server port and a client port on loopback.
fn udp_pair() -> ((UdpPort, Addr), (UdpPort, Addr)) {
    let (server_t, server) = bind_udp();
    let (client_t, client) = bind_udp();
    (
        (UdpPort::new(server_t), server),
        (UdpPort::new(client_t), client),
    )
}

/// Twenty echoes, each sent only after the previous pong: a loop that
/// sleeps `poll` between looks at the transport needs ≥ 20 × `poll`.
fn sequential_echoes<T: Transport + Send + 'static>(
    (port, server): (T, Addr),
    (mut client_port, client): (T, Addr),
) {
    let running = Running::start(echo_node(&server), port, Duration::from_millis(500));
    let started = Instant::now();
    for seq in 0..20 {
        client_port.send(&ping(&server, &client, seq));
        assert!(
            await_pong(&mut client_port, seq, Duration::from_secs(5)),
            "pong {seq} never came"
        );
    }
    let took = started.elapsed();
    running.stop();
    assert!(
        took < Duration::from_secs(2),
        "20 sequential echoes took {took:?} with a 500-ms poll: every message waited for the poll"
    );
}

#[test]
fn threaded_echoes_are_served_on_arrival_not_on_the_poll() {
    let (server, client, _hub) = threaded_pair();
    sequential_echoes(server, client);
}

#[test]
fn udp_echoes_are_served_on_arrival_not_on_the_poll() {
    let (server, client) = udp_pair();
    sequential_echoes(server, client);
}

/// A 100-ms periodic rule under a 500-ms poll fires at its deadline —
/// about 20 times in 2 s, not once per poll — and the loop iterates
/// about once per firing or poll, not more.
fn periodic_fires_at_its_deadline<T: Transport + Send + 'static>(port: T, addr: Addr) {
    let mut node = node_with(&addr, "f1 fired@N(E) :- periodic@N(E, 0.1).");
    node.watch("fired");
    let waits = Arc::new(AtomicU64::new(0));
    let port = Counting {
        inner: port,
        waits: waits.clone(),
    };
    let running = Running::start(node, port, Duration::from_millis(500));
    std::thread::sleep(Duration::from_secs(2));
    let driver = running.stop();
    let fired = driver.node().watched("fired").len();
    assert!(fired >= 15, "fired {fired} times in 2 s, wanted ≈ 20");
    let waits = waits.load(Ordering::Relaxed);
    assert!(
        waits <= 2 * fired as u64 + 10,
        "{waits} loop iterations for {fired} firings: the loop spins"
    );
}

#[test]
fn threaded_periodic_rule_fires_at_its_deadline() {
    let ((port, addr), _, _hub) = threaded_pair();
    periodic_fires_at_its_deadline(port, addr);
}

#[test]
fn udp_periodic_rule_fires_at_its_deadline() {
    let ((port, addr), _) = udp_pair();
    periodic_fires_at_its_deadline(port, addr);
}

/// An idle node with no timers parks for `poll` at a time: about
/// `1 s ÷ poll` loop iterations in a second, counted on the test's port.
fn idle_node_wakes_once_per_poll<T: Transport + Send + 'static>(port: T, addr: Addr) {
    let waits = Arc::new(AtomicU64::new(0));
    let port = Counting {
        inner: port,
        waits: waits.clone(),
    };
    let running = Running::start(echo_node(&addr), port, Duration::from_millis(50));
    std::thread::sleep(Duration::from_secs(1));
    running.stop();
    let waits = waits.load(Ordering::Relaxed);
    assert!(
        (5..=40).contains(&waits),
        "{waits} loop iterations in an idle second at a 50-ms poll, wanted ≈ 20"
    );
}

#[test]
fn threaded_idle_node_does_not_spin() {
    let ((port, addr), _, _hub) = threaded_pair();
    idle_node_wakes_once_per_poll(port, addr);
}

#[test]
fn udp_idle_node_does_not_spin() {
    let ((port, addr), _) = udp_pair();
    idle_node_wakes_once_per_poll(port, addr);
}

/// Raising `stop` on a parked node ends the run within about one
/// `poll`, and a frame queued just before is still delivered (by a tick
/// or by the final drain).
fn stop_returns_within_a_poll_and_drains<T: Transport + Send + 'static>(
    (port, server): (T, Addr),
    (mut client_port, client): (T, Addr),
) {
    let poll = Duration::from_millis(200);
    let mut node = node_with(&server, "r1 got@N(Seq) :- ping@N(Src, Seq).");
    node.watch("got");
    let running = Running::start(node, port, poll);
    std::thread::sleep(Duration::from_millis(50));
    client_port.send(&ping(&server, &client, 7));
    let raised = Instant::now();
    let driver = running.stop();
    let took = raised.elapsed();
    assert!(
        took < poll + Duration::from_secs(1),
        "stop took {took:?} at a {poll:?} poll"
    );
    assert_eq!(driver.node().watched("got").len(), 1, "queued frame lost");
}

#[test]
fn threaded_stop_returns_within_a_poll_and_drains() {
    let (server, client, _hub) = threaded_pair();
    stop_returns_within_a_poll_and_drains(server, client);
}

#[test]
fn udp_stop_returns_within_a_poll_and_drains() {
    let (server, client) = udp_pair();
    stop_returns_within_a_poll_and_drains(server, client);
}

#[test]
fn final_drain_hands_out_what_the_last_wait_stashed() {
    /// A port whose first `wait` receives a frame and sees `stop` raised
    /// meanwhile: the loop exits with the frame still in the stash.
    struct StopsWhileParked {
        stop: Arc<AtomicBool>,
        arriving: Option<Envelope>,
        stash: Option<Envelope>,
    }
    impl Transport for StopsWhileParked {
        fn send(&mut self, _: &Envelope) {}
        fn try_recv(&mut self) -> Option<Envelope> {
            self.stash.take()
        }
        fn wait(&mut self, _: Duration) {
            self.stash = self.arriving.take();
            self.stop.store(true, Ordering::SeqCst);
        }
    }
    let (server, client) = (Addr::new("server"), Addr::new("client"));
    let mut node = node_with(&server, "r1 got@N(Seq) :- ping@N(Src, Seq).");
    node.watch("got");
    let stop = Arc::new(AtomicBool::new(false));
    let port = StopsWhileParked {
        stop: stop.clone(),
        arriving: Some(ping(&server, &client, 1)),
        stash: None,
    };
    let mut driver = Driver::new(node, port);
    driver.run_realtime(&stop, Duration::from_secs(60));
    assert_eq!(driver.node().watched("got").len(), 1);
}

#[test]
fn udp_driver_counts_hostile_datagrams_that_arrive_while_it_is_parked() {
    let ((port, server), (mut client_port, client)) = udp_pair();
    // Parked for 2 s at a time: only an arrival can wake it within 1 s.
    let running = Running::start(echo_node(&server), port, Duration::from_secs(2));
    std::thread::sleep(Duration::from_millis(100));
    let raw = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    for _ in 0..5 {
        raw.send_to(&[0xBA, 0xD0, 0xCA, 0xFE], server.as_str())
            .unwrap();
    }
    client_port.send(&ping(&server, &client, 1));
    assert!(
        await_pong(&mut client_port, 1, Duration::from_secs(1)),
        "the valid frame behind the garbage was not served"
    );
    let mut driver = running.stop();
    assert_eq!(driver.transport_mut().malformed, 5);
}

#[test]
fn threaded_port_counts_undecodable_frames_on_both_receive_paths() {
    let ((port, server), (mut client_port, client), hub) = threaded_pair();
    let garbage = || vec![0xBA, 0xD0, 0xCA, 0xFE];
    let mut node = echo_node(&server);
    node.watch("ping");

    // The polling path: garbage ahead of a valid frame, one direct tick.
    let mut driver = Driver::new(node, port);
    assert!(hub.send_frame(&server, garbage()));
    client_port.send(&ping(&server, &client, 1));
    driver.tick(Time::ZERO);
    assert_eq!(driver.node().watched("ping").len(), 1, "good frame served");
    assert_eq!(driver.transport_mut().malformed, 1);

    // The blocking path: the same pair arriving while the loop is parked
    // (2 s at a time: only an arrival can wake it within 1 s).
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let thread = std::thread::spawn(move || {
        driver.run_realtime(&flag, Duration::from_secs(2));
        driver
    });
    std::thread::sleep(Duration::from_millis(100));
    assert!(hub.send_frame(&server, garbage()));
    client_port.send(&ping(&server, &client, 2));
    assert!(
        await_pong(&mut client_port, 2, Duration::from_secs(1)),
        "the valid frame behind the garbage was not served"
    );
    stop.store(true, Ordering::SeqCst);
    let mut driver = thread.join().unwrap();
    assert_eq!(driver.node().watched("ping").len(), 2);
    assert_eq!(driver.transport_mut().malformed, 2);
}

#[test]
fn duplicated_and_reordered_frames_converge_to_the_same_rows() {
    // ROADMAP 4(d): what UDP may do to a stream — deliver a frame twice,
    // deliver frames out of order — played through the threaded port. A
    // keyed table absorbs both: node `b` sees every frame twice in a
    // seeded shuffle and ends with the rows node `a` got once, in order.
    let hub = ThreadedHub::new();
    let program = "materialize(kv, infinity, infinity, keys(1, 2)).
                   k1 kv@N(K, V) :- put@N(K, V).";
    let put = |dst: &Addr, k: i64| {
        Envelope::new(
            Tuple::new(
                "put",
                [Value::Addr(dst.clone()), Value::Int(k), Value::Int(k * k)],
            ),
            Addr::new("writer"),
            dst.clone(),
        )
    };
    let (a, b) = (Addr::new("a"), Addr::new("b"));
    let run = |addr: &Addr| {
        Running::start(
            node_with(addr, program),
            ThreadedPort::register(&hub, addr.clone()),
            Duration::from_millis(20),
        )
    };
    let (run_a, run_b) = (run(&a), run(&b));

    let keys: Vec<i64> = (0..200).collect();
    for &k in &keys {
        assert!(hub.send(&put(&a, k)));
    }
    let mut twice: Vec<i64> = keys.iter().chain(&keys).copied().collect();
    let mut rng = DetRng::new(4);
    for i in (1..twice.len()).rev() {
        twice.swap(i, rng.below(i as u64 + 1) as usize);
    }
    assert_ne!(&twice[..keys.len()], &keys[..], "the shuffle reorders");
    for &k in &twice {
        assert!(hub.send(&put(&b, k)));
    }

    // Everything is queued before `stop` is raised, so the final drain
    // (at the latest) delivers it.
    let rows = |running: Running<ThreadedPort>| {
        let mut node = running.stop().into_node();
        let mut rows: Vec<(Value, Value)> = node
            .table_scan("kv", Time(u64::MAX / 2))
            .iter()
            .map(|t| (t.get(1).unwrap().clone(), t.get(2).unwrap().clone()))
            .collect();
        rows.sort_by(|x, y| x.partial_cmp(y).expect("ints compare"));
        (rows, node.metrics().msgs_received)
    };
    let (rows_a, received_a) = rows(run_a);
    let (rows_b, received_b) = rows(run_b);
    assert_eq!(received_a, 200);
    assert_eq!(received_b, 400, "b really saw every frame twice");
    assert_eq!(rows_a.len(), 200);
    assert_eq!(rows_a, rows_b);
}

#[test]
fn threaded_nodes_relay_through_shared_driver() {
    let hub = ThreadedHub::new();
    let stop = Arc::new(AtomicBool::new(false));
    let names = ["da", "db"];
    let mut handles = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let addr = Addr::new(*name);
        let mut node = Node::new(
            addr.clone(),
            NodeConfig {
                stagger_timers: false,
                seed: i as u64,
                ..Default::default()
            },
        );
        node.install(
            "materialize(seen, infinity, infinity, keys(1, 2)).
             s1 seen@N(E) :- token@N(E).",
            Time::ZERO,
        )
        .unwrap();
        if i == 0 {
            node.install(
                r#"d1 token@N(E) :- periodic@N(E, 1).
                   d2 token@"db"(E) :- token@N(E)."#,
                Time::ZERO,
            )
            .unwrap();
        }
        let port = ThreadedPort::register(&hub, addr);
        let mut driver = Driver::new(node, port);
        let stop2 = stop.clone();
        handles.push(std::thread::spawn(move || {
            driver.run_realtime(&stop2, Duration::from_millis(2));
            driver.into_node()
        }));
    }
    std::thread::sleep(Duration::from_millis(2_500));
    stop.store(true, Ordering::Relaxed);
    let mut nodes: Vec<Node> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let now = Time(10_000_000_000);
    let seen_a = nodes[0].table_scan("seen", now).len();
    let seen_b = nodes[1].table_scan("seen", now).len();
    assert!(seen_a >= 2, "da generated tokens: {seen_a}");
    assert!(seen_b >= 2, "db received tokens over the hub: {seen_b}");
    assert!(nodes[1].metrics().msgs_received >= 2);
}

#[test]
fn udp_nodes_exchange_through_shared_driver() {
    let ta = UdpTransport::bind(&Addr::new("127.0.0.1:0")).unwrap();
    let tb = UdpTransport::bind(&Addr::new("127.0.0.1:0")).unwrap();
    let a_addr = ta.local_addr().unwrap();
    let b_addr = tb.local_addr().unwrap();

    let mut a = Node::new(
        a_addr.clone(),
        NodeConfig {
            stagger_timers: false,
            ..Default::default()
        },
    );
    a.install(
        &format!(
            r#"d1 tick@N(E) :- periodic@N(E, 1).
               d2 report@"{b_addr}"(E) :- tick@N(E)."#
        ),
        Time::ZERO,
    )
    .unwrap();
    let mut b = Node::new(b_addr.clone(), NodeConfig::default());
    b.install(
        "materialize(reports, infinity, infinity, keys(1, 2)).
         r1 reports@N(E) :- report@N(E).",
        Time::ZERO,
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let spawn = |node: Node, transport: UdpTransport, stop: Arc<AtomicBool>| {
        std::thread::spawn(move || {
            let mut driver = Driver::new(node, UdpPort::new(transport));
            driver.run_realtime(&stop, Duration::from_millis(2));
            driver.into_node()
        })
    };
    let ha = spawn(a, ta, stop.clone());
    let hb = spawn(b, tb, stop.clone());
    std::thread::sleep(Duration::from_millis(2_500));
    stop.store(true, Ordering::Relaxed);
    let a = ha.join().unwrap();
    let mut b = hb.join().unwrap();

    let now = Time(u64::MAX / 2);
    let reports = b.table_scan("reports", now).len();
    assert!(reports >= 1, "b received {reports} reports over UDP");
    assert!(a.metrics().msgs_sent >= 1);
    assert!(b.metrics().msgs_received >= 1);
}

#[test]
fn udp_driver_counts_hostile_datagrams() {
    let t = UdpTransport::bind(&Addr::new("127.0.0.1:0")).unwrap();
    let addr = t.local_addr().unwrap();
    let mut node = Node::new(addr.clone(), NodeConfig::default());
    node.install("r1 out@N(X) :- in@N(X).", Time::ZERO).unwrap();
    node.watch("out");
    let mut driver = Driver::new(node, UdpPort::new(t));

    // Garbage datagrams followed by one valid frame.
    let raw = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    for _ in 0..5 {
        raw.send_to(&[0xBA, 0xD0, 0xCA, 0xFE], addr.as_str())
            .unwrap();
    }
    let peer = UdpTransport::bind(&Addr::new("127.0.0.1:0")).unwrap();
    peer.send(&p2ql::net::Envelope::new(
        p2ql::types::Tuple::new("in", [Value::Addr(addr.clone()), Value::Int(1)]),
        peer.local_addr().unwrap(),
        addr,
    ))
    .unwrap();

    // Service until the good frame lands (datagram delivery on loopback
    // is fast but not instant).
    let deadline = std::time::Instant::now() + Duration::from_secs(3);
    while std::time::Instant::now() < deadline && driver.node().watched("out").is_empty() {
        driver.tick(Time::ZERO);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        driver.node().watched("out").len(),
        1,
        "good frame processed"
    );
    assert!(
        driver.transport_mut().malformed >= 1,
        "garbage must be counted, not fatal"
    );
}

/// A port that holds what the driver sends until the test lets it out,
/// one envelope at a time: a burst of 48-KiB datagrams would overflow
/// the receiving socket's default buffer before a hand-ticked receiver
/// gets to read any, and UDP drops what does not fit.
struct Held<T> {
    inner: T,
    queue: std::collections::VecDeque<Envelope>,
}

impl<T: Transport> Held<T> {
    fn new(inner: T) -> Held<T> {
        Held {
            inner,
            queue: Default::default(),
        }
    }

    fn release_one(&mut self) -> bool {
        match self.queue.pop_front() {
            Some(env) => {
                self.inner.send(&env);
                true
            }
            None => false,
        }
    }
}

impl<T: Transport> Transport for Held<T> {
    fn send(&mut self, env: &Envelope) {
        self.queue.push_back(env.clone());
    }
    fn try_recv(&mut self) -> Option<Envelope> {
        self.inner.try_recv()
    }
    fn wait(&mut self, timeout: Duration) {
        self.inner.wait(timeout)
    }
}

/// An archiving origin whose sealed `ruleExec` history needs more than
/// two ship chunks, a collector subscribed to it, each under its own
/// [`Driver`] on the given transport. After the origin's GC sweeps the
/// collector must hold, for the origin, exactly the origin's own
/// history. Returns the origin's driver, for its port's own counters.
fn history_ships_over<T: Transport>(
    (origin_port, origin): (T, Addr),
    (collector_port, collector): (T, Addr),
) -> Driver<Held<T>> {
    use p2ql::core::ArchiveMode;
    const RULE_EXEC: &str = "ruleExec";
    const FIRINGS: i64 = 1_500;

    let mut node = Node::new(
        origin.clone(),
        NodeConfig {
            stagger_timers: false,
            ..NodeConfig::forensic()
        },
    );
    node.install("r1 out@N(X) :- in@N(X).", Time::ZERO).unwrap();
    node.ship_subscribe(collector.clone());
    let mut o = Driver::new(node, Held::new(origin_port));
    // The collector archives (it must, to import) but does not trace:
    // every `ruleExec` row it can answer with is the origin's.
    let node = Node::new(
        collector,
        NodeConfig {
            archive: Some(ArchiveMode::default()),
            ..Default::default()
        },
    );
    let mut c = Driver::new(node, collector_port);

    let fire = |o: &mut Driver<Held<T>>, xs: std::ops::Range<i64>| {
        for x in xs {
            o.node_mut().inject(Tuple::new(
                "in",
                [Value::Addr(origin.clone()), Value::Int(x)],
            ));
        }
    };
    fire(&mut o, 0..FIRINGS);
    let mut now = Time::from_secs(1);
    o.tick(now);
    // Outlive the 120-s `ruleExec` lifetime twice: the first wave's
    // epoch seals when the second wave's rows expire into a later one.
    // Every tick past the 30-s GC period sweeps and pushes what moved;
    // what a sweep queues leaves with the next tick's pump.
    for t in [200u64, 240, 280, 320, 360, 400] {
        now = Time::from_secs(t);
        if t == 200 {
            fire(&mut o, FIRINGS..FIRINGS + 10);
        }
        o.tick(now);
        while o.transport_mut().release_one() {
            let seen = c.node().metrics().msgs_received;
            let deadline = Instant::now() + Duration::from_secs(5);
            while c.node().metrics().msgs_received == seen && Instant::now() < deadline {
                c.tick(now);
                c.transport_mut().wait(Duration::from_millis(1));
            }
        }
    }

    let sent = o.node().ship_stats();
    let got = c.node().ship_stats();
    let want = o
        .node_mut()
        .history_scan(RULE_EXEC, Time::ZERO, now, now)
        .unwrap();
    assert!(want.len() >= FIRINGS as usize, "{} rows", want.len());
    assert!(want.iter().all(|r| r.dropped_at.is_some()), "all expired");
    let sealed = o.node_mut().catalog_mut().archive_stats();
    let sealed = sealed.iter().find(|(rel, _)| rel == RULE_EXEC).unwrap().1;
    assert!(
        sealed.sealed_bytes > 2 * 48 * 1024,
        "more than two 48-KiB chunks sealed: {sealed:?}"
    );
    let have = c
        .node_mut()
        .deployment_history_scan(RULE_EXEC, Time::ZERO, now, now)
        .unwrap();
    assert_eq!(
        have.len(),
        want.len(),
        "origin sent {sent:?}, collector got {got:?}"
    );
    assert_eq!(have, want);
    assert_eq!(got.announce_chunks_received, sent.announce_chunks_sent);
    assert_eq!(got.bytes_received, sent.bytes_sent);
    assert_eq!(got.timeouts, 0);
    assert_eq!(c.node().ship_failures().count(), 0);
    o
}

#[test]
fn sealed_history_ships_over_udp() {
    let (origin, collector) = udp_pair();
    let mut origin = history_ships_over(origin, collector);
    assert_eq!(origin.transport_mut().inner.send_errors, 0);
}

#[test]
fn sealed_history_ships_over_the_threaded_hub() {
    let (origin, collector, _hub) = threaded_pair();
    history_ships_over(origin, collector);
}
