//! The shared [`Driver`] service loop over both realtime substrates.
//!
//! These tests drive the loop over the threaded hub and real UDP
//! sockets via [`Driver::run_realtime`].

use p2ql::core::{Driver, Node, NodeConfig, ThreadedPort, UdpPort};
use p2ql::net::{ThreadedHub, UdpTransport};
use p2ql::types::{Addr, Time, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
