//! §3.1.1 — ring well-formedness detectors.
//!
//! *"The Chord DHT relies for its correctness on the correct maintenance
//! of a ring ... If the ring is incorrect, then depending on where a
//! lookup starts, it may return a different response."*
//!
//! Two detectors, exactly as in the paper:
//!
//! * **Active probing** (`rp1`–`rp3`): a node periodically asks its
//!   predecessor for *its* immediate successor; if the answer is not the
//!   asking node, the link between them is flawed.
//! * **Passive checking** (`rp4`): `stabilizeRequest` messages are sent
//!   by nodes to their immediate successors, so a recipient whose
//!   predecessor differs from the sender has an inconsistent ring link —
//!   no extra messages, but detection runs at the stabilization rate
//!   rather than a chosen probe rate (the trade-off §3.1.1 discusses).

use p2_types::{Time, Tuple, Value};

/// Alarm relation raised by both detectors.
pub const ALARM: &str = "inconsistentPred";

/// The active-probing program (`rp1`–`rp3`), probing every
/// `probe_secs`. The alarm tuple carries the suspected predecessor and
/// the successor it reported.
pub fn active_probe_program(probe_secs: u32) -> String {
    format!(
        r#"
rp1 reqBestSucc@PAddr(NAddr) :- periodic@NAddr(E, {probe_secs}),
     pred@NAddr(PID, PAddr), PAddr != "-".
rp2 respBestSucc@ReqAddr(NAddr, SAddr) :- reqBestSucc@NAddr(ReqAddr),
     bestSucc@NAddr(SID, SAddr).
rp3 inconsistentPred@NAddr(PAddr, Successor) :- respBestSucc@NAddr(PAddr, Successor),
     pred@NAddr(PID, PAddr), Successor != NAddr.
"#
    )
}

/// The passive check (`rp4`): piggy-backs on Chord's own stabilization
/// traffic, generating no messages of its own.
pub fn passive_check_program() -> String {
    r#"
rp4 inconsistentPred@NAddr(SomeAddr, SomeAddr) :- stabilizeRequest@NAddr(SomeID, SomeAddr),
     pred@NAddr(PID, PAddr), SomeAddr != PAddr, PAddr != "-".
"#
    .to_string()
}

/// Extract (when, suspected-predecessor) pairs from a watched alarm log.
pub fn alarms(watched: &[(Time, Tuple)]) -> Vec<(Time, String)> {
    watched
        .iter()
        .filter_map(|(t, tup)| {
            tup.get(1)
                .and_then(Value::to_addr)
                .map(|a| (*t, a.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_chord::{build_ring, ChordConfig};
    use p2_core::SimHarness;
    use p2_types::TimeDelta;

    fn stable_ring(seed: u64) -> (SimHarness, p2_chord::ChordRing) {
        let mut sim = SimHarness::with_seed(seed);
        let ring = build_ring(&mut sim, 6, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(180));
        (sim, ring)
    }

    #[test]
    fn active_probe_silent_on_healthy_ring() {
        let (mut sim, ring) = stable_ring(11);
        assert!(p2_chord::ring_is_ordered(&mut sim, &ring));
        for a in ring.addrs.clone() {
            sim.install(&a, &active_probe_program(7)).unwrap();
            sim.node_mut(&a).watch(ALARM);
        }
        sim.run_for(TimeDelta::from_secs(60));
        for a in ring.addrs.clone() {
            let got = alarms(sim.node_mut(&a).watched(ALARM));
            assert!(got.is_empty(), "false alarm at {a}: {got:?}");
        }
    }

    #[test]
    fn active_probe_detects_broken_pred_link() {
        let (mut sim, ring) = stable_ring(12);
        assert!(p2_chord::ring_is_ordered(&mut sim, &ring));
        for a in ring.addrs.clone() {
            sim.install(&a, &active_probe_program(7)).unwrap();
            sim.node_mut(&a).watch(ALARM);
        }
        // Corrupt one node's predecessor pointer: point it at a node that
        // is NOT actually behind it. Its probe will ask the wrong node,
        // whose bestSucc won't be the prober -> alarm at the prober.
        let sorted = ring.live_sorted(&sim);
        let victim = sorted[0].1.clone();
        let wrong_pred = sorted[2].1.clone(); // two positions away
        let wrong_id = ring.id_of(&wrong_pred);
        sim.inject(
            &victim,
            Tuple::new(
                "pred",
                [
                    Value::Addr(victim.clone()),
                    Value::Id(wrong_id),
                    Value::Addr(wrong_pred.clone()),
                ],
            ),
        );
        sim.run_for(TimeDelta::from_secs(20));
        let got = alarms(sim.node_mut(&victim).watched(ALARM));
        assert!(!got.is_empty(), "active probe missed the broken link");
        assert_eq!(got[0].1, wrong_pred.to_string());
    }

    #[test]
    fn passive_check_detects_stale_pred() {
        let (mut sim, ring) = stable_ring(13);
        for a in ring.addrs.clone() {
            sim.install(&a, &passive_check_program()).unwrap();
            sim.node_mut(&a).watch(ALARM);
        }
        // Healthy window first: no alarms.
        sim.run_for(TimeDelta::from_secs(30));
        for a in ring.addrs.clone() {
            assert!(
                sim.node_mut(&a).watched(ALARM).is_empty(),
                "false alarm on healthy ring at {a}"
            );
        }
        // Corrupt a node's pred; its real predecessor keeps stabilizing
        // to it, and rp4 at the corrupted node flags the mismatch.
        let sorted = ring.live_sorted(&sim);
        let victim = sorted[1].1.clone();
        let real_pred = sorted[0].1.clone();
        let wrong = sorted[3].1.clone();
        sim.inject(
            &victim,
            Tuple::new(
                "pred",
                [
                    Value::Addr(victim.clone()),
                    Value::Id(ring.id_of(&wrong)),
                    Value::Addr(wrong.clone()),
                ],
            ),
        );
        sim.run_for(TimeDelta::from_secs(15));
        let got = alarms(sim.node_mut(&victim).watched(ALARM));
        assert!(!got.is_empty(), "passive check missed the stale pred");
        assert_eq!(
            got[0].1,
            real_pred.to_string(),
            "alarm names the true sender"
        );
    }

    #[test]
    fn passive_check_sends_no_messages() {
        // §3.1.1's stated advantage: rp4 generates no traffic of its own.
        let (mut sim, _) = stable_ring(14);
        let base: u64 = sim.net_stats().total_sent();
        let mut sim2 = SimHarness::with_seed(14);
        let ring2 = build_ring(&mut sim2, 6, &ChordConfig::default());
        sim2.run_for(TimeDelta::from_secs(180));
        for a in ring2.addrs.clone() {
            sim2.install(&a, &passive_check_program()).unwrap();
        }
        // Same duration again on both; message deltas must match.
        let t0: u64 = sim2.net_stats().total_sent();
        assert_eq!(base, t0, "identical seeds diverged before the check");
        sim.run_for(TimeDelta::from_secs(60));
        sim2.run_for(TimeDelta::from_secs(60));
        let after1: u64 = sim.net_stats().total_sent();
        let after2: u64 = sim2.net_stats().total_sent();
        assert_eq!(after1, after2, "passive check altered message counts");
    }
}
