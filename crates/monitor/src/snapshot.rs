//! §3.3 — Chandy–Lamport consistent distributed snapshots.
//!
//! The classic algorithm assumes FIFO channels (our simulated network
//! guarantees per-link FIFO) and known incoming links. Chord nodes know
//! their *outgoing* links (`pingNode`) but not their incoming ones, so —
//! exactly as the paper does — `bp1`/`bp2` reconstruct a `backPointer`
//! view of incoming links from the liveness pings every neighbor sends.
//!
//! The snapshot rules `sr0`–`sr15` (there is no `sr14`, see below):
//!
//! * a designated initiator starts snapshot `I+1` periodically (`sr1`);
//! * starting a snapshot records `bestSucc`/`finger`/`pred` into
//!   ID-indexed `snap*` tables (`sr4`–`sr6`) and sends `marker`s on all
//!   outgoing links (`sr7`);
//! * a first marker for an unseen ID starts the snapshot at the receiver
//!   (`sr8` counts existing state — the zero-count path — and `sr9`
//!   snaps); channel recording starts for every incoming link except the
//!   marker's sender (`sr10`), and completes per link on its marker
//!   (`sr11`);
//! * `returnSucc` gossip arriving on a recording channel is dumped into
//!   `channelSuccDump` (`sr15`, the paper's example message type);
//! * when every incoming link is done, the node's snapshot phase flips
//!   to `"Done"` (`sr12`/`sr13`).
//!
//! [`snapshot_lookup_program`] adds the paper's `l1s`–`l4s`: Chord
//! lookups evaluated **over the frozen snapshot tables** instead of live
//! state — the fix for the §3.1.4 probes' false positives — while regular
//! lookups keep running on live state, no restart required. It and
//! [`snapshot_probe_program`] rewrite the live rules, not copy them.
//!
//! Deviations (documented in DESIGN.md): the paper's `sr14` treats
//! lookup responses from "the future" of a snapshot as markers; like the
//! paper itself, we assume overlay structure does not change during a
//! snapshot, and our `sLookup` traffic carries its snapshot ID
//! explicitly, so `sr14` is unnecessary for the properties we check.

use crate::consistency::{probe_program, ProbeConfig};
use p2_overlog::{Arg, Predicate, Statement, Term};
use p2_types::{Addr, Value};

/// Per-snapshot node phase: `snapState(N, I, Phase)`.
pub const SNAP_STATE: &str = "snapState";
/// Snapshotted successor pointers: `snapBestSucc(N, I, SID, SAddr)`.
pub const SNAP_BEST_SUCC: &str = "snapBestSucc";

/// The back-pointer maintenance rules (`bp1`–`bp2`).
pub fn backpointer_program() -> String {
    r#"
/* Lifetime just over two ping periods: the incoming-link view must track
   *current* pingers closely, or snapshots wait on channels whose source
   no longer links to us. */
materialize(backPointer, 12, 128, keys(1, 2)).
materialize(numBackPointers, 60, 1, keys(1)).
bp1 backPointer@NAddr(Remote) :- pingReq@NAddr(Remote, E).
/* Recount on delta AND periodically: refreshes of existing rows produce
   no delta, and the count row itself is soft state. */
bp2 numBackPointers@NAddr(count<*>) :- backPointer@NAddr(Remote).
bp3 bpTick@NAddr(E) :- periodic@NAddr(E, 10).
bp4 numBackPointers@NAddr(count<*>) :- bpTick@NAddr(E), backPointer@NAddr(Remote).
"#
    .to_string()
}

/// The snapshot protocol rules, installed on **every** node.
pub fn snapshot_program() -> String {
    r#"
/* Bounds follow the paper's §3.3 listings: 100-second lifetimes, with
   per-table caps of the same order (snapState 100, snapBestSucc 50,
   snapFinger 1600, snapPred 10, channel state/dumps 1600/100). */
materialize(snapState, 100, 100, keys(1, 2)).
materialize(currentSnap, 100, 1, keys(1)).
materialize(snapBestSucc, 100, 50, keys(1, 2)).
materialize(snapFinger, 100, 1600, keys(1, 2, 3)).
materialize(snapPred, 100, 10, keys(1, 2)).
materialize(channelState, 100, 1600, keys(1, 2, 3)).
materialize(channelSuccDump, 100, 100, keys(1, 2, 3, 4)).

sr2 snapState@NAddr(I, "Snapping") :- snap@NAddr(I).
sr3 currentSnap@NAddr(I) :- snap@NAddr(I).
sr4 snapBestSucc@NAddr(I, SID, SAddr) :- snap@NAddr(I), bestSucc@NAddr(SID, SAddr).
sr5 snapFinger@NAddr(I, FPos, FID, FAddr) :- snap@NAddr(I), finger@NAddr(FPos, FID, FAddr).
sr6 snapPred@NAddr(I, PID, PAddr) :- snap@NAddr(I), pred@NAddr(PID, PAddr).
sr7 marker@RemoteAddr(NAddr, I) :- snap@NAddr(I), pingNode@NAddr(RemoteAddr).

sr8 haveSnap@NAddr(SrcAddr, I, count<*>) :- snapState@NAddr(I, State),
     marker@NAddr(SrcAddr, I).
sr9 snap@NAddr(I) :- haveSnap@NAddr(Src, I, 0).
sr10 channelState@NAddr(Remote, I, "Start") :- haveSnap@NAddr(Src, I, 0),
     backPointer@NAddr(Remote), Remote != Src.
/* The paper writes sr11 as one rule with `(C > 0) || (Src == Remote)`
   over a backPointer join; the join multiplies every already-snapped
   marker by the whole backpointer set for nothing. Split the
   disjunction: the C>0 arm needs no join at all, and the first-marker
   arm probes backPointer on Src directly. */
sr11a channelState@NAddr(Src, I, "Done") :- haveSnap@NAddr(Src, I, C), C > 0.
sr11b channelState@NAddr(Src, I, "Done") :- haveSnap@NAddr(Src, I, 0),
     backPointer@NAddr(Src).

/* Termination: a marker has arrived on every channel of the set frozen
   at snap time — compare Done rows against ALL channelState rows for I,
   not against the live (churning) back-pointer count. */
materialize(channelDoneCount, 100, 100, keys(1, 2)).
materialize(channelTotalCount, 100, 100, keys(1, 2)).
sr12a channelDoneCount@NAddr(I, count<*>) :- channelState@NAddr(Remote, I, "Done").
sr12b channelTotalCount@NAddr(I, count<*>) :- channelState@NAddr(Remote, I, State).
sr13 snapState@NAddr(I, "Done") :- channelDoneCount@NAddr(I, C),
     channelTotalCount@NAddr(I, C), snapState@NAddr(I, "Snapping").
/* A node that snaps with no incoming links at all terminates at once. */
sr13b bpAtSnap@NAddr(I, count<*>) :- snap@NAddr(I), backPointer@NAddr(Remote).
sr13c snapState@NAddr(I, "Done") :- bpAtSnap@NAddr(I, C), C == 0.

sr15 channelSuccDump@NAddr(I, Sender, SID, SAddr, T) :-
     returnSucc@NAddr(SID, SAddr, Sender), channelState@NAddr(Sender, I, "Start"),
     T := f_now().
"#
    .to_string()
}

/// The initiator's periodic driver (`sr1`), plus the seed row it ratchets.
/// Install on exactly one node.
pub fn initiator_program(addr: &Addr, period_secs: f64) -> String {
    format!(
        r#"
sr0 snapState@"{addr}"(0, "Done").
sr1a snapTick@NAddr(E) :- periodic@NAddr(E, {period_secs}).
sr1b curSnapId@NAddr(max<I>) :- snapTick@NAddr(E), snapState@NAddr(I, State).
sr1c snap@NAddr(I + 1) :- curSnapId@NAddr(I).
"#
    )
}

/// Lookups over a frozen snapshot (`l1s`–`l4s`): [`p2_chord::LOOKUP_RULES`]
/// with each relation they touch but `node` renamed to its snapshot twin,
/// which carries a `SnapID` after the location, and an `s` after each
/// label's rule number.
pub fn snapshot_lookup_program() -> String {
    let twins = [
        ("lookup", "sLookup"),
        ("lookupResults", "sLookupResults"),
        ("bestLookupDist", "sBestLookupDist"),
        ("lookupHop", "sLookupHop"),
        ("lookupFingerCount", "sFingerCount"),
        ("finger", "snapFinger"),
        ("bestSucc", "snapBestSucc"),
    ];
    let live = crate::shipped(p2_chord::LOOKUP_RULES);
    let label = |l: &str| format!("{}s{}", &l[..2], &l[2..]);
    live.rewrite(&twins, &twins.map(|(n, _)| n), "SnapID", label)
        .to_string()
}

/// §3.3 "Routing Consistency Revisited": the §3.1.4 consistency probe
/// re-targeted at a **frozen snapshot**, so that concurrent lookups
/// racing overlay churn cannot report false inconsistencies. The rules
/// are [`probe_program`]'s `cs1`–`cs11` as `scs*`, with every relation
/// they derive (and `lookupResults`) renamed `s`-Capitalised. The rule
/// that gains a `SnapID` no body atom binds (`cs4`) reads it from the
/// initiator's `currentSnap`: the paper's `cs4s`.
///
/// Emits `sConsistency(N, ProbeID, Metric)`; requires
/// [`snapshot_program`] and [`snapshot_lookup_program`] everywhere.
pub fn snapshot_probe_program(probe_secs: f64, tally_secs: u32, wait_secs: u32) -> String {
    let cfg = ProbeConfig {
        probe_secs,
        tally_secs,
        wait_secs,
        ..Default::default()
    };
    let mut live = crate::shipped(&probe_program(&cfg));
    live.statements
        .retain(|s| !matches!(s, Statement::Rule(r) if r.label.as_deref() == Some("cs12")));
    let heads = live.rules().map(|r| r.head.name.as_str());
    let twins: Vec<_> = heads
        .chain(["lookupResults"])
        .map(|n| (n, format!("s{}{}", n[..1].to_uppercase(), &n[1..])))
        .collect();
    let threaded = ["lookup", "lookupResults"];
    let mut snap = live.rewrite(&twins, &threaded, "SnapID", |l| format!("s{l}"));
    let snap_id = Arg::Var("SnapID".into());
    let binds = |p: &Predicate| p.args.contains(&snap_id);
    for s in &mut snap.statements {
        let Statement::Rule(r) = s else { continue };
        let unbound = binds(&r.head) && !r.body_predicates().any(binds);
        let first = r.body_predicates().next().filter(|_| unbound).cloned();
        if let Some(mut pin) = first {
            pin.name = "currentSnap".into();
            pin.args = vec![pin.args[0].clone(), snap_id.clone()];
            r.body.push(Term::Pred(pin));
        }
    }
    snap.to_string()
}

/// Read a node's phase for snapshot `id` (`None` if it never saw it).
pub fn phase_of<H: p2_core::Population>(sim: &mut H, node: &Addr, id: i64) -> Option<String> {
    let now = sim.now();
    sim.node_mut(node)
        .table_scan(SNAP_STATE, now)
        .into_iter()
        .find(|r| r.get(1) == Some(&Value::Int(id)))
        .and_then(|r| r.get(2).map(|v| v.to_string()))
}

/// The snapped `bestSucc` pointer of a node for snapshot `id`.
pub fn snapped_succ<H: p2_core::Population>(sim: &mut H, node: &Addr, id: i64) -> Option<Addr> {
    let now = sim.now();
    sim.node_mut(node)
        .table_scan(SNAP_BEST_SUCC, now)
        .into_iter()
        .find(|r| r.get(1) == Some(&Value::Int(id)))
        .and_then(|r| r.get(3).and_then(Value::to_addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_chord::{build_ring, ChordConfig, ChordRing};
    use p2_core::SimHarness;
    use p2_types::{RingId, TimeDelta, Tuple};
    use std::collections::HashMap;

    /// Issue a lookup over snapshot `snap_id` starting at `at`.
    fn issue_snapshot_lookup<H: p2_core::Population>(
        sim: &mut H,
        at: &Addr,
        snap_id: i64,
        key: p2_types::RingId,
        req_addr: &Addr,
        req_id: u64,
    ) {
        sim.inject(
            at,
            Tuple::new(
                "sLookup",
                [
                    Value::Addr(at.clone()),
                    Value::Int(snap_id),
                    Value::Id(key),
                    Value::Addr(req_addr.clone()),
                    Value::id(req_id),
                ],
            ),
        );
    }

    fn snapshotting_ring(seed: u64, n: usize) -> (SimHarness, ChordRing) {
        let mut sim = SimHarness::with_seed(seed);
        let ring = build_ring(&mut sim, n, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(240));
        // Back-pointers need a few ping rounds before the first snapshot.
        for a in ring.addrs.clone() {
            sim.install(&a, &backpointer_program()).unwrap();
            sim.install(&a, &snapshot_program()).unwrap();
        }
        sim.run_for(TimeDelta::from_secs(30));
        let init = ring.addrs[0].clone();
        sim.install(&init, &initiator_program(&init, 60.0)).unwrap();
        (sim, ring)
    }

    #[test]
    fn snapshot_reaches_every_node_and_terminates() {
        let (mut sim, ring) = snapshotting_ring(61, 6);
        sim.run_for(TimeDelta::from_secs(120)); // ≥ one snapshot round
                                                // Snapshot rows are 100 s soft state; judge the freshest snapshot
                                                // the initiator completed.
        let now = sim.now();
        let latest = sim
            .node_mut(&ring.addrs[0])
            .table_scan(SNAP_STATE, now)
            .iter()
            .filter_map(|r| match (r.get(1), r.get(2)) {
                (Some(Value::Int(i)), Some(s)) if s.to_string() == "Done" => Some(*i),
                _ => None,
            })
            .max()
            .expect("initiator completed a snapshot");
        assert!(latest >= 1);
        let mut done = 0;
        for a in ring.addrs.clone() {
            match phase_of(&mut sim, &a, latest) {
                Some(p) if p == "Done" => done += 1,
                other => panic!("node {a}: snapshot {latest} state {other:?}"),
            }
        }
        assert_eq!(
            done,
            ring.addrs.len(),
            "all nodes must terminate snapshot {latest}"
        );
    }

    #[test]
    fn snapshot_ids_ratchet() {
        let (mut sim, ring) = snapshotting_ring(62, 4);
        // Read within the 100 s soft-state window: snapshot 1 fires
        // within the first initiator period, snapshot 2 one period later.
        sim.run_for(TimeDelta::from_secs(130));
        // At least snapshots 1 and 2 exist on the initiator, distinct.
        let now = sim.now();
        let states = sim.node_mut(&ring.addrs[0]).table_scan(SNAP_STATE, now);
        let ids: Vec<i64> = states
            .iter()
            .filter_map(|r| match r.get(1) {
                Some(Value::Int(i)) => Some(*i),
                _ => None,
            })
            .collect();
        // Older generations age out of the 100 s window; what must hold
        // is a ratchet: at least two *consecutive* generations live.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).any(|w| w[1] == w[0] + 1),
            "ids seen: {ids:?}"
        );
    }

    #[test]
    fn snapped_ring_is_consistent() {
        // The headline property: the union of per-node snapped bestSucc
        // pointers for one snapshot ID forms a well-formed ring — a
        // *consistent* global state, even though nodes snapped at
        // different wall-clock instants.
        let (mut sim, ring) = snapshotting_ring(63, 6);
        sim.run_for(TimeDelta::from_secs(70));
        let mut succ: HashMap<Addr, Addr> = HashMap::new();
        for a in ring.addrs.clone() {
            let s = snapped_succ(&mut sim, &a, 1)
                .unwrap_or_else(|| panic!("{a} has no snapped bestSucc"));
            succ.insert(a, s);
        }
        assert!(
            p2_chord::oracle::forms_ring(&succ, &ring.addrs),
            "snapped ring is not well-formed: {succ:?}"
        );
    }

    #[test]
    fn snapshot_lookups_read_no_live_chord_state() {
        // Every relation Chord declares or derives, except `node`, must
        // reach the snapshot lookups renamed: one left live in a body
        // would mix live state into snapshot answers.
        let chord =
            p2_overlog::parse_program(&p2_chord::chord_program(&ChordConfig::default())).unwrap();
        let heads = chord.rules().map(|r| r.head.name.as_str());
        let live: std::collections::HashSet<&str> = chord
            .materializations()
            .map(|m| m.table.as_str())
            .chain(heads)
            .collect();
        let snap = p2_overlog::parse_program(&snapshot_lookup_program()).unwrap();
        assert_eq!(snap.rules().count(), 6, "l1s, l2s, l3s, l3sb, l2sb, l4s");
        for r in snap.rules() {
            for b in r.body_predicates() {
                assert!(
                    b.name == "node" || !live.contains(b.name.as_str()),
                    "{:?} reads live Chord relation {}",
                    r.label,
                    b.name
                );
            }
        }
    }

    #[test]
    fn snapshot_lookups_agree_with_snapped_state() {
        let (mut sim, ring) = snapshotting_ring(64, 6);
        for a in ring.addrs.clone() {
            sim.install(&a, &snapshot_lookup_program()).unwrap();
        }
        sim.run_for(TimeDelta::from_secs(70));
        // Issue several snapshot lookups for random keys; answers must
        // match the oracle computed over the *snapped* pointers.
        let origin = ring.addrs[1].clone();
        sim.node_mut(&origin).watch("sLookupResults");
        let mut rng = p2_types::DetRng::new(7);
        let keys: Vec<RingId> = (0..6).map(|_| rng.ring_id()).collect();
        for (i, k) in keys.iter().enumerate() {
            issue_snapshot_lookup(&mut sim, &origin, 1, *k, &origin, 500 + i as u64);
        }
        sim.run_for(TimeDelta::from_secs(3));
        let got = sim.node_mut(&origin).take_watched("sLookupResults");
        assert!(
            got.len() == keys.len(),
            "snapshot lookups answered {} times, want one answer each for {}",
            got.len(),
            keys.len()
        );
        let answered: std::collections::BTreeSet<&Value> =
            got.iter().filter_map(|(_, t)| t.get(5)).collect();
        assert_eq!(
            answered.len(),
            keys.len(),
            "a snapshot lookup answered twice"
        );
        // Every answer names a live ring member and carries snapshot ID 1.
        for (_, t) in &got {
            assert_eq!(t.get(1), Some(&Value::Int(1)));
            let ans = t.get(4).and_then(Value::to_addr).expect("addr answer");
            assert!(ring.addrs.contains(&ans), "unknown answer {ans}");
        }
    }

    #[test]
    fn snapshot_probes_are_consistent_despite_churn() {
        // §3.3 "Routing Consistency Revisited": probe lookups over the
        // frozen snapshot agree with each other even while the live
        // overlay is churning (a node joining mid-probe).
        let (mut sim, ring) = snapshotting_ring(67, 6);
        for a in ring.addrs.clone() {
            sim.install(&a, &snapshot_lookup_program()).unwrap();
        }
        sim.run_for(TimeDelta::from_secs(90)); // first snapshot completes
        let prober = ring.addrs[2].clone();
        sim.install(&prober, &snapshot_probe_program(6.0, 5, 5))
            .unwrap();
        sim.node_mut(&prober).watch("sConsistency");
        // Churn the live overlay: a new node joins through the landmark.
        sim.run_for(TimeDelta::from_secs(15));
        let newcomer = sim.add_node("late");
        let id = p2_types::DetRng::derive(sim.seed(), "late-join").ring_id();
        sim.install(&newcomer, &p2_chord::chord_program(&ChordConfig::default()))
            .unwrap();
        sim.install(
            &newcomer,
            &p2_chord::node_facts(newcomer.as_str(), id.0, Some(ring.addrs[0].as_str())),
        )
        .unwrap();
        sim.run_for(TimeDelta::from_secs(60));
        let ms: Vec<f64> = sim
            .node_mut(&prober)
            .watched("sConsistency")
            .iter()
            .filter_map(|(_, t)| match t.get(2) {
                Some(Value::Float(m)) => Some(*m),
                Some(Value::Int(m)) => Some(*m as f64),
                _ => None,
            })
            .collect();
        assert!(!ms.is_empty(), "snapshot probe produced no metric");
        for m in &ms {
            assert!(
                (*m - 1.0).abs() < 1e-9,
                "snapshot probes must agree: {ms:?}"
            );
        }
    }

    #[test]
    fn channel_recording_captures_gossip_deterministically() {
        // Unit-style drive of sr10/sr15: make a node snap via an injected
        // marker, keep one incoming channel recording, then deliver
        // gossip on it.
        let (mut sim, ring) = snapshotting_ring(65, 4);
        sim.run_for(TimeDelta::from_secs(90));
        let node = ring.addrs[2].clone();
        let now = sim.now();
        let bps: Vec<_> = sim
            .node_mut(&node)
            .table_scan("backPointer", now)
            .into_iter()
            .filter_map(|r| r.get(1).and_then(Value::to_addr))
            .collect();
        assert!(!bps.is_empty(), "node has no back pointers");
        let recording_from = bps[0].clone();
        // Marker for a fresh snapshot id from a *different* sender, so
        // the channel from `recording_from` starts recording.
        let marker_src = Addr::new("outside");
        sim.inject(
            &node,
            Tuple::new(
                "marker",
                [
                    Value::Addr(node.clone()),
                    Value::Addr(marker_src),
                    Value::Int(99),
                ],
            ),
        );
        // Still within the same virtual instant (markers from neighbors
        // need a network round-trip), gossip arrives from the recording
        // channel.
        assert_eq!(phase_of(&mut sim, &node, 99).as_deref(), Some("Snapping"));
        sim.inject(
            &node,
            Tuple::new(
                "returnSucc",
                [
                    Value::Addr(node.clone()),
                    Value::id(0xBEEF),
                    Value::addr("whoever"),
                    Value::Addr(recording_from.clone()),
                ],
            ),
        );
        sim.run_for(TimeDelta::from_millis(50));
        let now = sim.now();
        let dumps = sim.node_mut(&node).table_scan("channelSuccDump", now);
        let hit = dumps.iter().any(|r| {
            r.get(1) == Some(&Value::Int(99))
                && r.get(2).and_then(Value::to_addr) == Some(recording_from.clone())
        });
        assert!(
            hit,
            "gossip on a recording channel was not dumped: {dumps:?}"
        );
    }

    #[test]
    fn channel_recording_captures_gossip_in_vivo() {
        // Integration flavour: slow links widen the recording windows
        // enough that live stabilization gossip lands in them.
        let mut sim = SimHarness::new(
            p2_net::SimConfig {
                latency: TimeDelta::from_millis(400),
                jitter: TimeDelta::from_millis(300),
                ..Default::default()
            },
            Default::default(),
            66,
        );
        let ring = build_ring(&mut sim, 6, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(240));
        for a in ring.addrs.clone() {
            sim.install(&a, &backpointer_program()).unwrap();
            sim.install(&a, &snapshot_program()).unwrap();
        }
        sim.run_for(TimeDelta::from_secs(30));
        let init = ring.addrs[0].clone();
        sim.install(&init, &initiator_program(&init, 20.0)).unwrap();
        sim.run_for(TimeDelta::from_secs(900));
        let now = sim.now();
        let mut dumped = 0usize;
        for a in ring.addrs.clone() {
            dumped += sim.node_mut(&a).table_scan("channelSuccDump", now).len();
        }
        assert!(dumped > 0, "no channel messages recorded during snapshots");
    }
}
