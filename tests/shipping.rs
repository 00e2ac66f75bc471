//! Segment shipping, end to end (ISSUE 8 acceptance criteria).
//!
//! The tentpole claim of DESIGN.md §2.12: a `past()` on a collector
//! node answers **byte-identically** whether
//! the history it ranges over was
//!
//! * **born local** — the origin answers for itself,
//! * **fetched** — pull mode: the collector's trigger stages while
//!   sealed segments are requested on demand, or
//! * **streamed** — subscribe mode: origins push segments at every GC
//!   sweep before anyone asks,
//!
//! and identically on the sequential oracle and on the engine at every
//! shard count tried. Alongside: export → wire → import bit-identity
//! under proptest, hostile bytes (truncated / bit-flipped frames)
//! decode to typed errors without panicking, and remote-fetch failures
//! surface as typed, queryable diagnostics.

use p2ql::core::{
    NodeConfig, ParallelHarness, Population, SequentialOracle, ShipFailure, SimHarness,
};
use p2ql::net::ship::{chunk_payload, Reassembly, Shipment};
use p2ql::net::SimConfig;
use p2ql::store::Segment;
use p2ql::types::{Time, Tuple, Value};
use proptest::prelude::*;

const APP: &str = r#"
materialize(seen, 5, 32, keys(1, 2)).
r1 seen@N(X) :- ping@N(X).
"#;

/// The deployment-wide forensic question. `O` is free: it binds to
/// each archived row's own location, whichever origin shipped it.
const DEPLOY_FORENSICS: &str = r#"
materialize(seen, 5, 32, keys(1, 2)).
f1 hist@N(O, S) :- probe@N(T0, T1), past@N("seen", T0, T1, O, S).
"#;

fn forensic_config() -> NodeConfig {
    NodeConfig {
        stagger_timers: false,
        ..NodeConfig::forensic()
    }
}

/// Drive the §3-style incident on `origin`: three pings inside
/// [0s, 40s], then outlive the 5 s row lifetime with GC sweeps along
/// the way (the sweeps are also what streams segments in subscribe
/// mode).
fn incident<H: Population>(sim: &mut H, origin: &p2ql::types::Addr) {
    for (t, x) in [(10u64, 7i64), (20, 11), (30, 42)] {
        sim.run_until(Time::from_secs(t));
        sim.inject(
            origin,
            Tuple::new("ping", [Value::Addr(origin.clone()), Value::Int(x)]),
        );
    }
    // Periodic GC sweeps are the deployed shape (cf. tests/forensics.rs);
    // in subscribe mode each sweep is also the announce pump.
    for t in [100u64, 200, 300] {
        sim.run_until(Time::from_secs(t));
        sim.node_mut(origin).trace_gc(Time::from_secs(t));
    }
    sim.run_until(Time::from_secs(301));
    let now = sim.now();
    assert!(
        sim.node_mut(origin).table_scan("seen", now).is_empty(),
        "live rows must be gone before anyone asks"
    );
}

/// Ask `asker` the forensic question and return canonical answers with
/// the head's location stripped (the flavors answer from different
/// nodes; the *content* must agree).
fn ask<H: Population>(sim: &mut H, asker: &p2ql::types::Addr) -> Vec<String> {
    ask_until(sim, asker, 40)
}

/// [`ask`] over the window `[0, t1]` seconds.
fn ask_until<H: Population>(sim: &mut H, asker: &p2ql::types::Addr, t1: i64) -> Vec<String> {
    sim.node_mut(asker).watch("hist");
    sim.inject(
        asker,
        Tuple::new(
            "probe",
            [Value::Addr(asker.clone()), Value::Int(0), Value::Int(t1)],
        ),
    );
    // Pull mode stages the trigger behind a fetch round-trip; give the
    // request/reply envelopes their network latency. Local and
    // streamed flavors answer at the inject instant — running on is a
    // no-op for them.
    sim.run_for(p2ql::types::TimeDelta::from_secs(1));
    let mut out: Vec<String> = sim
        .node_mut(asker)
        .take_watched("hist")
        .into_iter()
        .map(|(_, t)| sans_location(&t))
        .collect();
    out.sort();
    out
}

/// A watched head tuple with its location stripped.
fn sans_location(t: &Tuple) -> String {
    let args: Vec<String> = t.values().iter().skip(1).map(|v| v.to_string()).collect();
    args.join(", ")
}

#[derive(Clone, Copy)]
enum Flavor {
    Local,
    Fetched,
    Streamed,
}

/// One full scenario under one engine: incident on the origin, then
/// the question, answered per flavor.
fn scenario<H: Population>(sim: &mut H, flavor: Flavor) -> Vec<String> {
    let origin = sim.add_node_with("a", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    match flavor {
        Flavor::Local => {
            incident(sim, &origin);
            sim.install(&origin, DEPLOY_FORENSICS)
                .expect("query installs");
            ask(sim, &origin)
        }
        Flavor::Fetched => {
            let coll = sim.add_node_with("coll", forensic_config());
            incident(sim, &origin);
            sim.install(&coll, DEPLOY_FORENSICS)
                .expect("query installs");
            sim.node_mut(&coll).ship_add_peer(origin.clone());
            let got = ask(sim, &coll);
            assert!(
                sim.node(&coll).ship_covered(&origin, "seen"),
                "pull mode must have resolved coverage"
            );
            assert!(sim.node(&coll).ship_stats().fetches_completed >= 1);
            got
        }
        Flavor::Streamed => {
            let coll = sim.add_node_with("coll", forensic_config());
            sim.node_mut(&origin).ship_subscribe(coll.clone());
            incident(sim, &origin);
            sim.install(&coll, DEPLOY_FORENSICS)
                .expect("query installs");
            let got = ask(sim, &coll);
            assert!(
                sim.node(&coll).ship_stats().announces_applied >= 1,
                "subscribe mode must have imported via announces"
            );
            got
        }
    }
}

#[test]
fn fetched_and_streamed_match_local_at_every_shard_count() {
    let seed = 7;
    let want = scenario(
        &mut SequentialOracle::new(SimConfig::default(), forensic_config(), seed),
        Flavor::Local,
    );
    assert_eq!(want.len(), 3, "three pings reconstruct: {want:?}");
    for flavor in [Flavor::Local, Flavor::Fetched, Flavor::Streamed] {
        let got = scenario(
            &mut SequentialOracle::new(SimConfig::default(), forensic_config(), seed),
            flavor,
        );
        assert_eq!(got, want, "sequential oracle diverged");
        for shards in [1usize, 2, 4] {
            let mut sim =
                ParallelHarness::new(SimConfig::default(), forensic_config(), seed, shards);
            let got = scenario(&mut sim, flavor);
            assert_eq!(got, want, "diverged at {shards} shards");
        }
    }
}

/// The scope rule: the location field of `past()` *is* the scope. `O`
/// free ranges over every history the node holds; `N` (the rule's own
/// location) pins it to the rows born here.
const SCOPE_FORENSICS: &str = r#"
materialize(seen, 5, 32, keys(1, 2)).
f1 hist@N(O, S) :- probe@N(T0, T1), past@N("seen", T0, T1, O, S).
f2 own@N(S) :- probe@N(T0, T1), past@N("seen", T0, T1, N, S).
"#;

/// A collector that archives its own `seen` rows *and* holds a
/// subscribed origin's. Returns what `hist` and `own` answered, in
/// emission order with the head's location stripped.
fn scope_scenario<H: Population>(sim: &mut H) -> (Vec<String>, Vec<String>) {
    let origin = sim.add_node_with("a", forensic_config());
    let coll = sim.add_node_with("coll", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    sim.install(&coll, APP).expect("app installs");
    sim.node_mut(&origin).ship_subscribe(coll.clone());
    for (t, x) in [(5u64, 5i64), (15, 9)] {
        sim.run_until(Time::from_secs(t));
        sim.inject(
            &coll,
            Tuple::new("ping", [Value::Addr(coll.clone()), Value::Int(x)]),
        );
    }
    incident(sim, &origin);
    sim.install(&coll, SCOPE_FORENSICS).expect("query installs");
    sim.node_mut(&coll).watch("hist");
    sim.node_mut(&coll).watch("own");
    sim.inject(
        &coll,
        Tuple::new(
            "probe",
            [Value::Addr(coll.clone()), Value::Int(0), Value::Int(40)],
        ),
    );
    sim.run_for(p2ql::types::TimeDelta::from_secs(1));
    let [hist, own] = ["hist", "own"].map(|name| {
        sim.node_mut(&coll)
            .take_watched(name)
            .into_iter()
            .map(|(_, t)| sans_location(&t))
            .collect::<Vec<String>>()
    });
    let now = sim.now();
    let scanned: Vec<String> = sim
        .node_mut(&coll)
        .history_scan("seen", Time::ZERO, Time::from_secs(40), now)
        .expect("collector's own scan")
        .iter()
        .map(|r| r.tuple.values()[1].to_string())
        .collect();
    assert_eq!(own, scanned, "past(.., N, ..) is history_scan");
    (hist, own)
}

#[test]
fn location_field_scopes_past_on_every_engine() {
    let seed = 29;
    let (hist, own) = scope_scenario(&mut SequentialOracle::new(
        SimConfig::default(),
        forensic_config(),
        seed,
    ));
    // The union, origins in sorted address order ("a" < "coll"), each
    // origin's rows in its own spill order.
    assert_eq!(hist, ["a, 7", "a, 11", "a, 42", "coll, 5", "coll, 9"]);
    assert_eq!(own, ["5", "9"], "only the rows born on the collector");
    for shards in [1usize, 2, 4] {
        let mut sim = ParallelHarness::new(SimConfig::default(), forensic_config(), seed, shards);
        assert_eq!(
            scope_scenario(&mut sim),
            (hist.clone(), own.clone()),
            "diverged at {shards} shards"
        );
    }
}

/// One more archived ping on `origin`: inject at `at` s, sweep at
/// `sweep` s (the 5 s row lifetime is long over by then).
fn late_ping<H: Population>(sim: &mut H, origin: &p2ql::types::Addr, at: u64, sweep: u64, x: i64) {
    sim.run_until(Time::from_secs(at));
    sim.inject(
        origin,
        Tuple::new("ping", [Value::Addr(origin.clone()), Value::Int(x)]),
    );
    sim.run_until(Time::from_secs(sweep));
    sim.node_mut(origin).trace_gc(Time::from_secs(sweep));
    sim.run_for(p2ql::types::TimeDelta::from_secs(1));
}

#[test]
fn pull_coverage_is_refetched_by_the_next_staged_trigger() {
    // What a fetch brought is as old as that fetch. A pull-mode
    // collector that answered once must not answer every later question
    // from that first snapshot: the next staged trigger asks again.
    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), 21);
    let origin = sim.add_node_with("a", forensic_config());
    let coll = sim.add_node_with("coll", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    incident(&mut sim, &origin);
    sim.install(&coll, DEPLOY_FORENSICS)
        .expect("query installs");
    sim.node_mut(&coll).ship_add_peer(origin.clone());
    assert_eq!(ask_until(&mut sim, &coll, 330).len(), 3);
    assert_eq!(sim.node(&coll).ship_stats().requests_sent, 1);

    late_ping(&mut sim, &origin, 320, 330, 77);
    let now = sim.now();
    let at_origin = sim
        .node_mut(&origin)
        .history_scan("seen", Time::ZERO, Time::from_secs(330), now)
        .expect("origin scan");
    assert_eq!(at_origin.len(), 4, "the origin archived a fourth ping");
    let got = ask_until(&mut sim, &coll, 330);
    assert_eq!(got.len(), 4, "the second ask sees the fourth ping: {got:?}");
    let stats = sim.node(&coll).ship_stats();
    assert_eq!(stats.requests_sent, 2, "one fetch per staged trigger");
    assert_eq!(stats.fetches_completed, 2);
    assert_eq!(stats.triggers_released, 2);

    // Once the origin streams to the collector the pair is warm: the
    // push keeps it current and no trigger waits on a fetch again.
    sim.node_mut(&origin).ship_subscribe(coll.clone());
    late_ping(&mut sim, &origin, 340, 350, 78);
    let got = ask_until(&mut sim, &coll, 350);
    assert_eq!(got.len(), 5, "answered from the pushed shipment: {got:?}");
    let stats = sim.node(&coll).ship_stats();
    assert_eq!(stats.requests_sent, 2, "a streamed pair is not fetched");
    assert_eq!(stats.triggers_staged, 2);
}

/// The delta-gap repair: collector `c1` misses one pushed generation
/// (its link is cut during a sweep), collector `c2` subscribes after
/// the first full shipment and so never held a baseline. The next delta
/// finds neither holding the baseline it extends; each must re-baseline
/// with exactly one solicited shipment and end holding frames
/// byte-identical to the origin's own export.
fn gap_repair<H: Population>(sim: &mut H) {
    // Compaction off keeps the sealed tier append-only, so every push
    // after the first is a delta; tracing off leaves `seen` the one
    // relation shipped, so the counters below count one pair.
    let mut archive = p2ql::core::ArchiveMode::default();
    archive.config.compact_min_bytes = 0;
    let origin = sim.add_node_with(
        "a",
        NodeConfig {
            tracing: false,
            archive: Some(archive),
            ..forensic_config()
        },
    );
    let c1 = sim.add_node_with("c1", forensic_config());
    let c2 = sim.add_node_with("c2", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    sim.node_mut(&origin).ship_subscribe(c1.clone());
    incident(sim, &origin);
    assert!(sim.node(&c1).ship_stats().announces_applied >= 1);

    sim.node_mut(&origin).ship_subscribe(c2.clone());
    sim.set_cut(&origin, &c1, true);
    late_ping(sim, &origin, 320, 400, 77); // c1 misses it; c2 has no base
    sim.set_cut(&origin, &c1, false);
    assert_eq!(sim.node(&c1).ship_stats().requests_sent, 0);
    assert_eq!(sim.node(&c2).ship_stats().requests_sent, 1);
    late_ping(sim, &origin, 420, 500, 78); // extends what c1 never saw
    assert!(sim.node(&origin).ship_stats().delta_segments >= 2);
    assert_eq!(sim.node(&origin).ship_stats().requests_served, 2);

    let now = sim.now();
    let export: Vec<Vec<u8>> = sim
        .node_mut(&origin)
        .catalog_mut()
        .export_history("seen", now)
        .expect("archiving is on")
        .frames
        .iter()
        .map(|f| f.as_bytes().to_vec())
        .collect();
    let want = sim
        .node_mut(&origin)
        .history_scan("seen", Time::ZERO, now, now)
        .expect("origin scan");
    assert_eq!(want.len(), 5);
    for coll in [&c1, &c2] {
        let stats = sim.node(coll).ship_stats();
        assert_eq!(stats.requests_sent, 1, "{coll}: one repair: {stats:?}");
        assert_eq!(stats.fetches_completed, 1, "{coll}: {stats:?}");
        assert_eq!((stats.retries, stats.timeouts, stats.strays), (0, 0, 0));
        let held: Vec<Vec<u8>> = sim
            .node_mut(coll)
            .catalog_mut()
            .imported()
            .frames("a", "seen")
            .expect("history imported")
            .iter()
            .map(|f| f.as_bytes().to_vec())
            .collect();
        assert_eq!(held, export, "{coll} holds the origin's export");
        let got = sim
            .node_mut(coll)
            .deployment_history_scan("seen", Time::ZERO, now, now)
            .expect("collector scan");
        assert_eq!(got, want, "{coll} scans what the origin scans");
    }
}

#[test]
fn delta_gap_is_repaired_by_one_solicited_shipment_on_every_engine() {
    let seed = 23;
    gap_repair(&mut SequentialOracle::new(
        SimConfig::default(),
        forensic_config(),
        seed,
    ));
    for shards in [1usize, 2, 4] {
        gap_repair(&mut ParallelHarness::new(
            SimConfig::default(),
            forensic_config(),
            seed,
            shards,
        ));
    }
}

#[test]
fn nack_is_a_typed_queryable_no_history_answer() {
    // The peer exists and responds, but archives nothing: pull mode
    // must resolve with an authoritative "no history" — a typed
    // P2S901 failure, coverage marked, and the trigger released (the
    // query answers from whatever else is covered, here nothing).
    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), 11);
    let bare = sim.add_node_with("bare", NodeConfig::default());
    let coll = sim.add_node_with("coll", forensic_config());
    sim.run_until(Time::from_secs(1));
    sim.install(&coll, DEPLOY_FORENSICS)
        .expect("query installs");
    sim.node_mut(&coll).ship_add_peer(bare.clone());
    let got = ask(&mut sim, &coll);
    assert!(got.is_empty(), "no history anywhere: {got:?}");
    assert!(sim.node(&coll).ship_covered(&bare, "seen"));
    let fails: Vec<String> = sim
        .node(&coll)
        .ship_failures()
        .map(|f| f.code().to_string())
        .collect();
    assert_eq!(fails, vec!["P2S901".to_string()], "typed NoHistory");
    assert!(matches!(
        sim.node(&coll).ship_failures().next(),
        Some(ShipFailure::NoHistory { .. })
    ));
    // And it is queryable: the failure surfaces as a sysDiag row.
    let now = sim.now();
    sim.node_mut(&coll).refresh_introspection(now);
    let diags = sim.node_mut(&coll).table_scan("sysDiag", now);
    assert!(
        diags
            .iter()
            .any(|t| t.values().iter().any(|v| v.to_string().contains("P2S901"))),
        "P2S901 must appear in sysDiag: {diags:?}"
    );
}

#[test]
fn unreachable_peer_times_out_into_a_typed_failure() {
    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), 12);
    let origin = sim.add_node_with("a", forensic_config());
    let coll = sim.add_node_with("coll", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    sim.run_until(Time::from_secs(1));
    sim.install(&coll, DEPLOY_FORENSICS)
        .expect("query installs");
    sim.node_mut(&coll).ship_add_peer(origin.clone());
    sim.crash(&origin);
    sim.node_mut(&coll).watch("hist");
    sim.inject(
        &coll,
        Tuple::new(
            "probe",
            [Value::Addr(coll.clone()), Value::Int(0), Value::Int(40)],
        ),
    );
    // Ride out the retry schedule (2 s timeout, 2 retries).
    sim.run_for(p2ql::types::TimeDelta::from_secs(30));
    let stats = sim.node(&coll).ship_stats();
    assert!(stats.retries >= 1, "resends happened: {stats:?}");
    assert!(stats.timeouts >= 1, "gave up: {stats:?}");
    assert!(
        sim.node(&coll)
            .ship_failures()
            .any(|f| matches!(f, ShipFailure::PeerUnreachable { .. }) && f.code() == "P2S902"),
        "typed PeerUnreachable"
    );
    assert_eq!(
        stats.triggers_released, stats.triggers_staged,
        "the staged trigger must be released, not wedged"
    );
    assert!(
        !sim.node(&coll).ship_covered(&origin, "seen"),
        "an unreachable peer is NOT coverage — a later ask retries"
    );
}

#[test]
fn hostile_segment_bytes_never_panic() {
    // Build a real exported segment, then attack it: every truncation
    // and a sweep of single-bit flips must come back as typed
    // `SegmentError`s (or a still-valid parse) — never a panic, never
    // an import of garbage under the wrong relation.
    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), 13);
    let origin = sim.add_node_with("a", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    incident(&mut sim, &origin);
    let now = sim.now();
    let frames = sim
        .node_mut(&origin)
        .catalog_mut()
        .export_history("seen", now)
        .expect("archiving is on")
        .frames;
    assert!(!frames.is_empty());
    let bytes = frames[0].as_bytes().to_vec();
    let good = Segment::from_bytes(&bytes).expect("untouched frame round-trips");
    assert_eq!(good.relation(), "seen");

    for len in 0..bytes.len() {
        let _ = Segment::from_bytes(&bytes[..len]);
    }
    for i in 0..bytes.len() {
        for bit in [0u8, 3, 7] {
            let mut evil = bytes.clone();
            evil[i] ^= 1 << bit;
            if let Ok(seg) = Segment::from_bytes(&evil) {
                // A flip that survives parsing must not have moved the
                // frame to another relation unnoticed by the importer's
                // relation check path.
                let _ = seg.relation();
            }
        }
    }
}

#[test]
fn export_wire_import_is_bit_identical() {
    // The full pipeline a shipped segment travels — export, encode,
    // chunk, reassemble, decode, import — reproduces the origin's
    // archive scan exactly, at every chunk size tried (1 byte forces
    // maximal fragmentation).
    let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), 17);
    let origin = sim.add_node_with("a", forensic_config());
    let coll = sim.add_node_with("coll", forensic_config());
    sim.install(&origin, APP).expect("app installs");
    incident(&mut sim, &origin);
    let now = sim.now();
    let want = sim
        .node_mut(&origin)
        .history_scan("seen", Time::ZERO, now, now)
        .expect("origin scan");
    assert!(!want.is_empty());
    let frames = sim
        .node_mut(&origin)
        .catalog_mut()
        .export_history("seen", now)
        .expect("archiving is on")
        .frames;

    for chunk_bytes in [1usize, 7, 64, 1 << 20] {
        let encoded: Vec<Vec<u8>> = frames.iter().map(|s| s.as_bytes().to_vec()).collect();
        let batch = p2ql::net::ship::encode_batch(&encoded);
        let parts = chunk_payload(&batch, chunk_bytes);
        let mut rx = Reassembly::new();
        let chunks = parts.len() as u32;
        let mut payload = None;
        for (i, part) in parts.iter().enumerate() {
            let shipped = p2ql::net::ShipMsg::Shipment(Shipment {
                gen: 1,
                relation: "seen".into(),
                chunk: i as u32,
                chunks,
                solicited: true,
                base: None,
                watermark: 0,
                oldest_lo: 0,
                bytes: part.clone(),
            });
            let wire = p2ql::net::ShipMsg::decode(&shipped.encode()).expect("frame decodes");
            let p2ql::net::ShipMsg::Shipment(Shipment { bytes, .. }) = &wire else {
                unreachable!()
            };
            if let Some(done) = rx.offer(i as u32, chunks, bytes.clone()).expect("in-order") {
                payload = Some(done);
            }
        }
        let payload = payload.expect("reassembly completes");
        assert_eq!(payload, batch, "wire trip is bit-identical");
        let segs: Vec<Segment> = p2ql::net::ship::decode_batch(&payload)
            .expect("batch decodes")
            .iter()
            .map(|b| Segment::from_bytes(b).expect("frame decodes"))
            .collect();
        sim.node_mut(&coll)
            .catalog_mut()
            .import_history("a", "seen", None, segs);
        let got = sim
            .node_mut(&coll)
            .deployment_history_scan("seen", Time::ZERO, now, now)
            .expect("collector scan");
        assert_eq!(
            got, want,
            "imported scan == origin scan (chunk={chunk_bytes})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Export → wire → import is bit-identical for arbitrary row
    /// values, row counts, and chunk sizes: the collector's scan of the
    /// imported history reproduces the origin's own archive scan
    /// exactly, however awkwardly the frames were fragmented in flight.
    #[test]
    fn prop_export_wire_import_roundtrip(
        vals in proptest::collection::vec(any::<i64>(), 1..6),
        chunk_bytes in 1u64..2048,
    ) {
        let mut sim = SimHarness::new(SimConfig::default(), forensic_config(), 19);
        let origin = sim.add_node_with("a", forensic_config());
        sim.install(&origin, APP).expect("app installs");
        for (i, v) in vals.iter().enumerate() {
            sim.run_until(Time::from_secs(10 + 10 * i as u64));
            sim.inject(
                &origin,
                Tuple::new("ping", [Value::Addr(origin.clone()), Value::Int(*v)]),
            );
        }
        let settle = Time::from_secs(10 + 10 * vals.len() as u64 + 60);
        sim.run_until(settle);
        sim.node_mut(&origin).trace_gc(settle);
        let now = sim.now();
        let want = sim
            .node_mut(&origin)
            .history_scan("seen", Time::ZERO, now, now)
            .expect("origin scan");
        let frames = sim
            .node_mut(&origin)
            .catalog_mut()
            .export_history("seen", now)
            .expect("archiving is on")
            .frames;

        let encoded: Vec<Vec<u8>> = frames.iter().map(|f| f.as_bytes().to_vec()).collect();
        let batch = p2ql::net::ship::encode_batch(&encoded);
        let parts = chunk_payload(&batch, chunk_bytes as usize);
        let mut rx = Reassembly::new();
        let chunks = parts.len() as u32;
        let mut payload = None;
        for (i, part) in parts.iter().enumerate() {
            if let Some(done) = rx.offer(i as u32, chunks, part.clone()).expect("in-order") {
                payload = Some(done);
            }
        }
        let payload = payload.expect("reassembly completes");
        prop_assert_eq!(&payload, &batch, "wire trip is bit-identical");
        let segs: Vec<Segment> = p2ql::net::ship::decode_batch(&payload)
            .expect("batch decodes")
            .iter()
            .map(|b| Segment::from_bytes(b).expect("frame decodes"))
            .collect();
        let coll = sim.add_node_with("coll", forensic_config());
        sim.node_mut(&coll)
            .catalog_mut()
            .import_history("a", "seen", None, segs);
        let got = sim
            .node_mut(&coll)
            .deployment_history_scan("seen", Time::ZERO, now, now)
            .expect("collector scan");
        prop_assert_eq!(got, want, "imported scan == origin scan");
    }
}
