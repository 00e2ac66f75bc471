//! Native invariant oracles.
//!
//! The monitoring rules of §3.1 detect ring malformation *from inside*
//! the system; these Rust-side oracles compute ground truth *from
//! outside* (by reading node tables directly), so tests can check both
//! that the ring actually converges and that the in-band detectors agree
//! with the out-of-band truth.
//!
//! The two §3.1 judgments, [`forms_ring`] and [`misordered`], are pure
//! functions over a successor map: the live oracles here feed them the
//! pointers nodes hold now, `monitor::retrospect` the pointers it
//! reconstructs from history at a past instant, and the snapshot tests
//! the pointers a Chandy–Lamport snapshot recorded.

use crate::testbed::ChordRing;
use p2_core::Population;
use p2_types::{Addr, Interval, RingId, Value};
use std::collections::HashMap;

/// A §3.1.2 ordering violation: `node` pointed at `actual` while the
/// ID order demanded `expected`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderingViolation {
    /// The node holding the bad pointer.
    pub node: Addr,
    /// Where its `bestSucc` pointed.
    pub actual: Addr,
    /// The member with the next-higher ring ID.
    pub expected: Addr,
}

/// Read each live node's `bestSucc` pointer.
pub fn collect_ring<H: Population>(sim: &mut H, ring: &ChordRing) -> HashMap<Addr, Addr> {
    let now = sim.now();
    let mut out = HashMap::new();
    for addr in ring.addrs.clone() {
        if sim.is_down(&addr) {
            continue;
        }
        let rows = sim.node_mut(&addr).table_scan("bestSucc", now);
        if let Some(s) = rows
            .first()
            .and_then(|row| row.get(2))
            .and_then(Value::to_addr)
        {
            out.insert(addr.clone(), s);
        }
    }
    out
}

/// Ring well-formedness (§3.1.1) over a successor map whose keys are
/// all in `members`: following pointers from any member visits every
/// member exactly once before returning to the start. A walk from the
/// first member that first comes back after exactly `members.len()`
/// hops has visited that many distinct keys, so it is the whole check.
/// The verdict does not depend on the order of `members`. No members is
/// vacuously a ring.
pub fn forms_ring(succ: &HashMap<Addr, Addr>, members: &[Addr]) -> bool {
    let Some(start) = members.first() else {
        return true;
    };
    let mut cur = start;
    for hop in 1..=members.len() {
        let Some(next) = succ.get(cur) else {
            return false; // a pointer leads to a node holding none
        };
        if next == start {
            return hop == members.len(); // earlier: a sub-cycle
        }
        cur = next;
    }
    false // the start sits on a tail into a cycle without it
}

/// Ring ID ordering (§3.1.2): the members whose pointer in `succ` is
/// not the member with the next-higher ID (one wrap-around total), in
/// ID order. A member without a pointer is not reported; one member is
/// never misordered.
pub fn misordered(
    ring: &ChordRing,
    succ: &HashMap<Addr, Addr>,
    members: &[Addr],
) -> Vec<OrderingViolation> {
    let mut sorted: Vec<(RingId, &Addr)> = members.iter().map(|a| (ring.id_of(a), a)).collect();
    sorted.sort();
    if sorted.len() <= 1 {
        return Vec::new();
    }
    let next = sorted.iter().cycle().skip(1);
    sorted
        .iter()
        .zip(next)
        .filter_map(|(&(_, node), &(_, expected))| {
            let actual = succ.get(node).filter(|a| *a != expected)?;
            Some(OrderingViolation {
                node: node.clone(),
                actual: actual.clone(),
                expected: expected.clone(),
            })
        })
        .collect()
}

/// The ring members that have not crashed, in `ring.addrs` order.
fn live_members<H: Population>(sim: &H, ring: &ChordRing) -> Vec<Addr> {
    ring.addrs
        .iter()
        .filter(|a| !sim.is_down(a))
        .cloned()
        .collect()
}

/// Live ring well-formedness: [`forms_ring`] over the pointers every
/// live node holds now.
pub fn ring_is_well_formed<H: Population>(sim: &mut H, ring: &ChordRing) -> bool {
    let succ = collect_ring(sim, ring);
    forms_ring(&succ, &live_members(sim, ring))
}

/// Live ring ID ordering: with more than one live node, every one
/// holds a pointer and none is [`misordered`].
pub fn ring_is_ordered<H: Population>(sim: &mut H, ring: &ChordRing) -> bool {
    let succ = collect_ring(sim, ring);
    let live = live_members(sim, ring);
    live.len() <= 1 || (succ.len() == live.len() && misordered(ring, &succ, &live).is_empty())
}

/// The ground-truth successor of `key`: the live node whose ID segment
/// `(pred_id, node_id]` contains the key.
pub fn lookup_oracle<H: Population>(
    sim: &H,
    ring: &ChordRing,
    key: RingId,
) -> Option<(RingId, Addr)> {
    let sorted = ring.live_sorted(sim);
    if sorted.is_empty() {
        return None;
    }
    if sorted.len() == 1 {
        return Some(sorted[0].clone());
    }
    for (i, (id, addr)) in sorted.iter().enumerate() {
        let prev = sorted[(i + sorted.len() - 1) % sorted.len()].0;
        if Interval::open_closed(prev, *id).contains(key) {
            return Some((*id, addr.clone()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ChordConfig;
    use crate::testbed::{build_ring, collect_lookup_results, issue_lookup};
    use p2_core::SimHarness;
    use p2_types::TimeDelta;

    /// A hand-built ring of `n` members `a`, `b`, … with ring IDs 10,
    /// 20, … in that order; nothing runs.
    fn members(n: u8) -> (ChordRing, Vec<Addr>) {
        let addrs: Vec<Addr> = (b'a'..b'a' + n)
            .map(|c| Addr::new(char::from(c).to_string()))
            .collect();
        let ids = (1..)
            .zip(&addrs)
            .map(|(i, a)| (a.clone(), RingId(10 * i)))
            .collect();
        let ring = ChordRing {
            addrs: addrs.clone(),
            ids,
            config: ChordConfig::default(),
        };
        (ring, addrs)
    }

    fn pointers(pairs: &[(&str, &str)]) -> HashMap<Addr, Addr> {
        pairs
            .iter()
            .map(|(from, to)| (Addr::new(from), Addr::new(to)))
            .collect()
    }

    /// Both judgments of `succ`, asserted the same from every rotation
    /// of `members`.
    fn judge(
        ring: &ChordRing,
        succ: &HashMap<Addr, Addr>,
        members: &[Addr],
    ) -> (bool, Vec<OrderingViolation>) {
        let verdict = (forms_ring(succ, members), misordered(ring, succ, members));
        for k in 1..members.len() {
            let mut rotated = members.to_vec();
            rotated.rotate_left(k);
            let again = (forms_ring(succ, &rotated), misordered(ring, succ, &rotated));
            assert_eq!(again, verdict, "rotation {k} of {members:?} over {succ:?}");
        }
        verdict
    }

    fn violation(node: &str, actual: &str, expected: &str) -> OrderingViolation {
        OrderingViolation {
            node: Addr::new(node),
            actual: Addr::new(actual),
            expected: Addr::new(expected),
        }
    }

    #[test]
    fn no_members_is_vacuously_a_ring() {
        let (ring, _) = members(0);
        assert_eq!(judge(&ring, &HashMap::new(), &[]), (true, vec![]));
    }

    #[test]
    fn one_member_is_never_misordered() {
        let (ring, m) = members(1);
        assert_eq!(judge(&ring, &pointers(&[("a", "a")]), &m), (true, vec![]));
        // Pointing away from itself leaves the ring, but a lone member
        // has no ID order to break.
        assert_eq!(judge(&ring, &pointers(&[("a", "b")]), &m), (false, vec![]));
    }

    #[test]
    fn an_ordered_four_ring_is_well_formed_and_wraps_once() {
        let (ring, m) = members(4);
        let succ = pointers(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]);
        // `d`, the highest ID, pointing at `a`, the lowest, is the wrap.
        assert_eq!(judge(&ring, &succ, &m), (true, vec![]));
    }

    #[test]
    fn a_well_formed_ring_out_of_id_order_names_each_wrong_pointer() {
        let (ring, m) = members(4);
        let succ = pointers(&[("a", "c"), ("c", "b"), ("b", "d"), ("d", "a")]);
        assert_eq!(
            judge(&ring, &succ, &m),
            (
                true,
                vec![
                    violation("a", "c", "b"),
                    violation("b", "d", "c"),
                    violation("c", "b", "d"),
                ]
            )
        );
    }

    #[test]
    fn a_cycle_with_a_tail_is_not_a_ring() {
        let (ring, m) = members(4);
        let succ = pointers(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]);
        assert_eq!(
            judge(&ring, &succ, &m),
            (false, vec![violation("d", "b", "a")])
        );
    }

    #[test]
    fn two_disjoint_cycles_are_not_a_ring() {
        let (ring, m) = members(4);
        let succ = pointers(&[("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")]);
        assert_eq!(
            judge(&ring, &succ, &m),
            (
                false,
                vec![violation("b", "a", "c"), violation("d", "c", "a")]
            )
        );
    }

    #[test]
    fn a_pointer_to_a_node_without_one_breaks_the_ring() {
        let (ring, m) = members(3);
        // `x` is no member and holds no pointer.
        let succ = pointers(&[("a", "b"), ("b", "c"), ("c", "x")]);
        assert_eq!(
            judge(&ring, &succ, &m),
            (false, vec![violation("c", "x", "a")])
        );
    }

    #[test]
    fn a_member_missing_its_pointer_breaks_the_ring_but_is_not_misordered() {
        let (ring, m) = members(3);
        // `c` holds no pointer; `a` and `b` close a cycle without it.
        let succ = pointers(&[("a", "b"), ("b", "a")]);
        assert_eq!(
            judge(&ring, &succ, &m),
            (false, vec![violation("b", "a", "c")])
        );
        // The tail into `c` is no ring either, and nothing is misordered.
        let succ = pointers(&[("a", "b"), ("b", "c")]);
        assert_eq!(judge(&ring, &succ, &m), (false, vec![]));
    }

    #[test]
    fn misordered_names_exactly_the_skipping_pointer() {
        let (ring, m) = members(4);
        // `a` skips `b`; everything else is right, and `b`, still
        // pointing at `c`, sits off the cycle `a → c → d → a`.
        let succ = pointers(&[("a", "c"), ("b", "c"), ("c", "d"), ("d", "a")]);
        assert_eq!(
            judge(&ring, &succ, &m),
            (false, vec![violation("a", "c", "b")])
        );
    }

    fn warmed_ring(n: usize, seed: u64, warm_secs: u64) -> (SimHarness, ChordRing) {
        let mut sim = SimHarness::with_seed(seed);
        let ring = build_ring(&mut sim, n, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(warm_secs));
        (sim, ring)
    }

    #[test]
    fn single_node_answers_all_lookups() {
        let (mut sim, ring) = warmed_ring(1, 1, 20);
        let a = ring.addrs[0].clone();
        sim.node_mut(&a).watch("lookupResults");
        issue_lookup(&mut sim, &a, RingId(0xDEAD), &a, 1);
        sim.run_for(TimeDelta::from_secs(1));
        let results = collect_lookup_results(sim.node_mut(&a).watched("lookupResults"));
        // Finger-fix lookups also land here; check ours specifically.
        assert_eq!(results[&RingId(1)].1, a);
    }

    #[test]
    fn two_nodes_converge_to_mutual_ring() {
        let (mut sim, ring) = warmed_ring(2, 2, 90);
        assert!(
            ring_is_well_formed(&mut sim, &ring),
            "2-node ring must close"
        );
        assert!(ring_is_ordered(&mut sim, &ring));
        // Each is the other's predecessor.
        let now = sim.now();
        for (i, a) in ring.addrs.clone().iter().enumerate() {
            let other = &ring.addrs[1 - i];
            let pred = sim.node_mut(a).table_scan("pred", now);
            assert_eq!(pred.len(), 1);
            assert_eq!(
                pred[0].get(2),
                Some(&Value::Addr(other.clone())),
                "node {i}"
            );
        }
    }

    #[test]
    fn eight_node_ring_converges_and_orders() {
        let (mut sim, ring) = warmed_ring(8, 3, 180);
        assert!(ring_is_well_formed(&mut sim, &ring), "ring not closed");
        assert!(ring_is_ordered(&mut sim, &ring), "ring not ID-ordered");
    }

    #[test]
    fn lookups_agree_with_oracle() {
        let (mut sim, ring) = warmed_ring(8, 4, 180);
        assert!(ring_is_ordered(&mut sim, &ring), "warmup insufficient");
        let origin = ring.addrs[3].clone();
        sim.node_mut(&origin).watch("lookupResults");
        let mut rng = p2_types::DetRng::new(99);
        let keys: Vec<RingId> = (0..12).map(|_| rng.ring_id()).collect();
        for (i, k) in keys.iter().enumerate() {
            issue_lookup(&mut sim, &origin, *k, &origin, 1_000 + i as u64);
        }
        sim.run_for(TimeDelta::from_secs(2));
        let results = collect_lookup_results(sim.node_mut(&origin).watched("lookupResults"));
        for (i, k) in keys.iter().enumerate() {
            let got = results
                .get(&RingId(1_000 + i as u64))
                .unwrap_or_else(|| panic!("lookup {i} for key {k} unanswered"));
            let want = lookup_oracle(&sim, &ring, *k).expect("oracle");
            assert_eq!(got.1, want.1, "key {k} answered {} want {}", got.1, want.1);
        }
    }

    #[test]
    fn ring_repairs_after_crash() {
        let (mut sim, ring) = warmed_ring(8, 5, 180);
        assert!(ring_is_ordered(&mut sim, &ring));
        // Crash a mid-ring node (not the landmark) and let liveness +
        // stabilization heal around it.
        let victim = ring
            .live_sorted(&sim)
            .into_iter()
            .map(|(_, a)| a)
            .find(|a| a != ring.landmark())
            .expect("non-landmark node exists");
        sim.crash(&victim);
        // The implementation deliberately keeps the paper's
        // recycled-dead-neighbor behaviour (§3.1.3): gossip periodically
        // re-adopts the dead node until liveness re-evicts it, so the
        // ring *oscillates* between healed and poisoned. Assert that it
        // heals at some point within the window (and that the victim is
        // really excluded then), polling across oscillation phases.
        let mut healed = false;
        for _ in 0..30 {
            sim.run_for(TimeDelta::from_secs(10));
            if ring_is_well_formed(&mut sim, &ring) && ring_is_ordered(&mut sim, &ring) {
                healed = true;
                break;
            }
        }
        assert!(healed, "ring never healed after the crash");
    }

    #[test]
    fn late_join_converges() {
        let mut sim = SimHarness::with_seed(6);
        let mut ring = build_ring(&mut sim, 5, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(120));
        assert!(ring_is_ordered(&mut sim, &ring));
        // A sixth node joins through the landmark.
        let addr = sim.add_node("n5");
        let id = p2_types::DetRng::derive(sim.seed(), "late").ring_id();
        ring.ids.insert(addr.clone(), id);
        ring.addrs.push(addr.clone());
        let cfg = ChordConfig::default();
        sim.install(&addr, &crate::program::chord_program(&cfg))
            .unwrap();
        sim.install(
            &addr,
            &crate::program::node_facts(addr.as_str(), id.0, Some(ring.addrs[0].as_str())),
        )
        .unwrap();
        sim.run_for(TimeDelta::from_secs(120));
        assert!(
            ring_is_well_formed(&mut sim, &ring),
            "joined ring not closed"
        );
        assert!(ring_is_ordered(&mut sim, &ring), "joined ring misordered");
    }

    #[test]
    fn faulty_node_detection_populates_table() {
        let (mut sim, ring) = warmed_ring(4, 7, 120);
        let victim = ring.live_sorted(&sim)[2].1.clone();
        sim.crash(&victim);
        sim.run_for(TimeDelta::from_secs(30));
        // Some survivor must have recorded the victim as faulty.
        let now = sim.now();
        let mut hits = 0;
        for a in ring.addrs.clone() {
            if sim.is_down(&a) {
                continue;
            }
            let rows = sim.node_mut(&a).table_scan("faultyNode", now);
            hits += rows
                .iter()
                .filter(|r| r.get(1) == Some(&Value::Addr(victim.clone())))
                .count();
        }
        assert!(hits > 0, "no survivor detected the crash");
    }

    #[test]
    fn aggressive_and_relaxed_configs_both_converge() {
        for (cfg, warm) in [
            (
                ChordConfig {
                    stabilize_secs: 2,
                    ping_secs: 2,
                    finger_secs: 4,
                    join_secs: 4,
                    ping_timeout_secs: 1,
                    row_lifetime_secs: 30,
                    ..Default::default()
                },
                90u64,
            ),
            (
                ChordConfig {
                    stabilize_secs: 10,
                    ping_secs: 10,
                    finger_secs: 20,
                    join_secs: 20,
                    ping_timeout_secs: 8,
                    row_lifetime_secs: 120,
                    ..Default::default()
                },
                400u64,
            ),
        ] {
            let mut sim = SimHarness::with_seed(15);
            let ring = build_ring(&mut sim, 5, &cfg);
            sim.run_for(TimeDelta::from_secs(warm));
            assert!(
                ring_is_ordered(&mut sim, &ring),
                "config {cfg:?} failed to converge in {warm}s"
            );
        }
    }

    #[test]
    fn fingers_populate_after_warmup() {
        let (mut sim, ring) = warmed_ring(8, 8, 300);
        let now = sim.now();
        let mut nodes_with_fingers = 0;
        for a in ring.addrs.clone() {
            if !sim.node_mut(&a).table_scan("finger", now).is_empty() {
                nodes_with_fingers += 1;
            }
        }
        assert!(nodes_with_fingers >= 6, "got {nodes_with_fingers}");
    }
}
