//! §1.3 — persistent watchpoints: the always-on regression suite.
//!
//! *"Watchpoints installed during debugging can be left permanently in
//! the system as an evolving set of on-line regression tests."*
//!
//! This module bundles the **cheap, passive** detectors — the ones that
//! ride existing traffic and cost no messages of their own — into one
//! installable suite (their modules' own rules, relabelled `w*`), and
//! adds a periodic roll-up so an operator (or an outer autonomic loop,
//! see `examples/autonomic.rs`) can poll a single relation instead of
//! five:
//!
//! * `rp4` — ring-link inconsistency from stabilization traffic;
//! * `ri1` — ID-ordering violations from lookup responses;
//! * `os1`/`os2` — single state oscillations from gossip, into the event
//!   `oscillW` (the suite keeps no `oscill` history);
//! * `wp*` — every alarm is logged into a bounded `alarmLog` table and
//!   counted per kind into `alarmCount` every `rollup_secs`.

use crate::{ordering, oscillation, ring};
use p2_overlog::Statement;
use p2_types::Value;

/// The per-kind roll-up relation: `alarmCount(N, Kind, Count)`.
pub const ALARM_COUNT: &str = "alarmCount";
/// The bounded alarm log: `alarmLog(N, Kind, Detail, T)`.
pub const ALARM_LOG: &str = "alarmLog";

/// The passive watchpoint suite. Installs on a node already running
/// Chord; generates no probe traffic.
pub fn suite_program(rollup_secs: u32) -> String {
    let live = ring::passive_check_program()
        + &ordering::opportunistic_program()
        + &oscillation::single_program();
    let mut rules =
        crate::shipped(&live).rewrite(&[("oscill", "oscillW")], &[], "", |l| format!("w{l}"));
    rules.statements.retain(|s| matches!(s, Statement::Rule(_)));
    format!(
        r#"
materialize(alarmLog, 300, 1000, keys(1, 2, 3, 4)).
materialize(alarmCount, 300, 64, keys(1, 2)).

/* ---- the detectors (paper rules rp4, ri1, os1, os2) ---- */
{rules}
/* ---- funnel every alarm into the log ---- */
wl1 alarmLog@NAddr("inconsistentPred", Detail, T) :- inconsistentPred@NAddr(Detail, D2),
     T := f_now().
wl2 alarmLog@NAddr("closerID", Detail, T) :- closerID@NAddr(ID, Detail), T := f_now().
wl3 alarmLog@NAddr("oscillation", Detail, T) :- oscillW@NAddr(Detail, T0), T := f_now().

/* ---- periodic roll-up per kind ---- */
wr1 rollupTick@NAddr(E) :- periodic@NAddr(E, {rollup_secs}).
wr2 alarmCount@NAddr(Kind, count<*>) :- rollupTick@NAddr(E),
     alarmLog@NAddr(Kind, Detail, T).
"#
    )
}

/// Read the latest roll-up as (kind, count) pairs.
pub fn counts<H: p2_core::Population>(sim: &mut H, node: &p2_types::Addr) -> Vec<(String, i64)> {
    let now = sim.now();
    sim.node_mut(node)
        .table_scan(ALARM_COUNT, now)
        .into_iter()
        .filter_map(|r| match (r.get(1), r.get(2)) {
            (Some(k), Some(Value::Int(c))) => Some((k.to_string(), *c)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_chord::{build_ring, ChordConfig};
    use p2_core::SimHarness;
    use p2_types::TimeDelta;

    #[test]
    fn suite_is_silent_on_health_and_free_on_the_wire() {
        let mut sim = SimHarness::with_seed(81);
        let ring = build_ring(&mut sim, 6, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(180));
        let sent_before: u64 = sim.net_stats().total_sent();

        // Install the suite everywhere; run a comparison window.
        for a in ring.addrs.clone() {
            sim.install(&a, &suite_program(15)).unwrap();
        }
        let t0: u64 = sim.net_stats().total_sent();
        assert_eq!(sent_before, t0);
        sim.run_for(TimeDelta::from_secs(120));
        for a in ring.addrs.clone() {
            for (kind, count) in counts(&mut sim, &a) {
                assert_eq!(count, 0, "false {kind} alarms at {a}");
            }
        }

        // Free on the wire: the identical seed without the suite sends
        // exactly the same number of messages over the same window.
        let mut sim2 = SimHarness::with_seed(81);
        build_ring(&mut sim2, 6, &ChordConfig::default());
        sim2.run_for(TimeDelta::from_secs(300));
        let with: u64 = sim.net_stats().total_sent();
        let without: u64 = sim2.net_stats().total_sent();
        assert_eq!(with, without, "passive suite must cost zero messages");
    }

    #[test]
    fn suite_rolls_up_alarms_under_faults() {
        let mut sim = SimHarness::with_seed(82);
        let ring = build_ring(&mut sim, 8, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(180));
        for a in ring.addrs.clone() {
            sim.install(&a, &suite_program(15)).unwrap();
        }
        // Flap a node: rp4-style inconsistencies and oscillations follow.
        let victim = ring
            .live_sorted(&sim)
            .into_iter()
            .map(|(_, a)| a)
            .find(|a| a != ring.landmark())
            .unwrap();
        for _ in 0..6 {
            sim.crash(&victim);
            sim.run_for(TimeDelta::from_secs(16));
            sim.revive(&victim);
            sim.run_for(TimeDelta::from_secs(8));
        }
        sim.run_for(TimeDelta::from_secs(30));
        let mut total = 0i64;
        for a in ring.addrs.clone() {
            if sim.is_down(&a) {
                continue;
            }
            total += counts(&mut sim, &a).iter().map(|(_, c)| *c).sum::<i64>();
        }
        assert!(total > 0, "the flapping node left no trace in the roll-up");
    }
}
