//! Retrospective detectors: §3.1's questions, answered after the fact.
//!
//! The [`ring`](crate::ring)/[`ordering`](crate::ordering)/
//! [`oscillation`](crate::oscillation) monitors must be installed
//! *before* the misbehavior they catch. These detectors instead run
//! against the **archive tier** (DESIGN.md §2.11): on forensic-mode
//! nodes every dropped `bestSucc`/`pred` version spills into
//! epoch-segmented history, so the overlay's state at any past instant
//! can be reconstructed — and the §3.1 invariants re-checked — long
//! after the live soft state expired and nobody was watching.
//!
//! Reconstruction picks, per node, the row version whose validity
//! interval `[inserted_at, dropped_at)` contains the probe instant.
//! The reconstructed successor map is judged by the same functions as
//! the live ring, [`p2_chord::oracle::forms_ring`] and
//! [`p2_chord::oracle::misordered`]; what only history adds here is the
//! reconstruction and the flip count.
//!
//! There is one detector per question. Each reads a [`History`]: every
//! ring member's own archive (`&ring`), or a **single collector node's**
//! deployment-wide history (`(&ring, &collector)`, DESIGN.md §2.12) —
//! every member's segments shipped there in pull or subscribe mode — so
//! the whole investigation runs against one node even after the origins
//! are gone.

use p2_chord::oracle::{forms_ring, misordered, OrderingViolation};
use p2_chord::ChordRing;
use p2_core::Population;
use p2_types::{Addr, Time, Value};
use std::collections::HashMap;

/// Where a detector reads `bestSucc` history: each ring member's own
/// archive (`From<&ChordRing>`), or one collector's deployment-wide
/// history (`From<(&ChordRing, &Addr)>`).
#[derive(Debug, Clone, Copy)]
pub struct History<'a> {
    ring: &'a ChordRing,
    collector: Option<&'a Addr>,
}

impl<'a> From<&'a ChordRing> for History<'a> {
    fn from(ring: &'a ChordRing) -> Self {
        History {
            ring,
            collector: None,
        }
    }
}

impl<'a> From<(&'a ChordRing, &'a Addr)> for History<'a> {
    fn from((ring, collector): (&'a ChordRing, &'a Addr)) -> Self {
        History {
            ring,
            collector: Some(collector),
        }
    }
}

/// One version of a ring member's `bestSucc` row.
struct SuccVersion {
    inserted_at: Time,
    /// Whether this was the valid version at the end of the scanned
    /// window (`ArchivedRow::valid_at`).
    valid_at_end: bool,
    succ: Addr,
}

/// Every ring member's `bestSucc` versions whose validity intersects
/// `[t0, t1]`, archived and still-live, oldest first. Without a
/// collector each member's own archive is walked; with one, a single
/// scan of the deployment-wide history shipped there is grouped back
/// per origin. Members with no readable history are absent.
fn succ_versions<H: Population>(
    sim: &mut H,
    history: History,
    t0: Time,
    t1: Time,
) -> HashMap<Addr, Vec<SuccVersion>> {
    let now = sim.now();
    let ring = history.ring;
    // (origin every row belongs to, if the scan fixes it; the scan)
    let scans = match history.collector {
        Some(c) => {
            let node = sim.node_mut(c);
            vec![(None, node.deployment_history_scan("bestSucc", t0, t1, now))]
        }
        None => ring
            .addrs
            .iter()
            .map(|a| {
                let scan = sim.node_mut(a).history_scan("bestSucc", t0, t1, now);
                (Some(a.clone()), scan)
            })
            .collect(),
    };
    let mut out: HashMap<Addr, Vec<SuccVersion>> = HashMap::new();
    for (walked, scan) in scans {
        for r in scan.unwrap_or_default() {
            let origin = walked
                .clone()
                .or_else(|| r.tuple.get(0).and_then(Value::to_addr))
                .filter(|o| ring.addrs.contains(o));
            let succ = r.tuple.get(2).and_then(Value::to_addr);
            if let (Some(origin), Some(succ)) = (origin, succ) {
                out.entry(origin).or_default().push(SuccVersion {
                    inserted_at: r.inserted_at,
                    valid_at_end: r.valid_at(t1),
                    succ,
                });
            }
        }
    }
    for versions in out.values_mut() {
        versions.sort_by_key(|v| v.inserted_at);
    }
    out
}

/// Reconstruct every ring member's successor pointer as of instant `t`:
/// the newest version valid at `t`. `bestSucc` is keyed by location
/// with one live row, so at most one version is valid at a time. Nodes
/// with no valid version at `t` — no successor yet, or history dropped
/// by the retention budget — are absent from the map, and so from the
/// ring the two judgments below are asked of.
pub fn ring_at<'a, H: Population>(
    sim: &mut H,
    history: impl Into<History<'a>>,
    t: Time,
) -> HashMap<Addr, Addr> {
    succ_versions(sim, history.into(), t, t)
        .into_iter()
        .filter_map(|(node, versions)| {
            let valid = versions.into_iter().rfind(|v| v.valid_at_end)?;
            Some((node, valid.succ))
        })
        .collect()
}

/// §3.1.1 after the fact: was the ring well-formed at instant `t`? No
/// history at all is vacuously well-formed.
pub fn ring_was_well_formed_at<'a, H: Population>(
    sim: &mut H,
    history: impl Into<History<'a>>,
    t: Time,
) -> bool {
    let succ = ring_at(sim, history, t);
    let members: Vec<Addr> = succ.keys().cloned().collect();
    forms_ring(&succ, &members)
}

/// §3.1.2 after the fact: which nodes violated ring ID ordering at
/// instant `t`? Empty means every reconstructed pointer aimed at the
/// member with the next-higher ID.
pub fn ordering_violations_at<'a, H: Population>(
    sim: &mut H,
    history: impl Into<History<'a>>,
    t: Time,
) -> Vec<OrderingViolation> {
    let history = history.into();
    let succ = ring_at(sim, history, t);
    let members: Vec<Addr> = succ.keys().cloned().collect();
    misordered(history.ring, &succ, &members)
}

/// The §3.1.3 judgment: members whose successor pointer *changed value*
/// at least `threshold` times across their versions, with the number of
/// changes. Versions are replayed in insertion order and only actual
/// flips count, so periodic re-derivations of the same successor stay
/// silent.
fn count_flips(versions: HashMap<Addr, Vec<SuccVersion>>, threshold: usize) -> Vec<(Addr, usize)> {
    let mut out: Vec<(Addr, usize)> = versions
        .into_iter()
        .map(|(addr, vs)| {
            (
                addr,
                vs.windows(2).filter(|w| w[0].succ != w[1].succ).count(),
            )
        })
        .filter(|(_, flips)| *flips >= threshold)
        .collect();
    out.sort();
    out
}

/// §3.1.3 after the fact: nodes whose successor pointer flipped at
/// least `threshold` times inside the window `[t0, t1]`.
pub fn oscillators_in<'a, H: Population>(
    sim: &mut H,
    history: impl Into<History<'a>>,
    t0: Time,
    t1: Time,
    threshold: usize,
) -> Vec<(Addr, usize)> {
    count_flips(succ_versions(sim, history.into(), t0, t1), threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2_chord::{build_ring, ChordConfig};
    use p2_core::{NodeConfig, ParallelHarness, SimHarness};
    use p2_types::{TimeDelta, Tuple};

    fn forensic_sim(seed: u64) -> SimHarness {
        SimHarness::new(p2_net::SimConfig::default(), NodeConfig::forensic(), seed)
    }

    /// Mis-point the lowest-ID member's `bestSucc` two members ahead,
    /// now. Returns that member and where it points.
    fn mis_point<H: Population>(sim: &mut H, ring: &ChordRing) -> (Addr, Addr) {
        let sorted = ring.live_sorted(sim);
        let victim = sorted[0].1.clone();
        let wrong = sorted[2].1.clone();
        sim.inject(
            &victim,
            Tuple::new(
                "bestSucc",
                [
                    Value::Addr(victim.clone()),
                    Value::Id(ring.id_of(&wrong)),
                    Value::Addr(wrong.clone()),
                ],
            ),
        );
        (victim, wrong)
    }

    #[test]
    fn healthy_ring_reconstructs_clean_at_a_past_instant() {
        let mut sim = forensic_sim(21);
        let ring = build_ring(&mut sim, 5, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(180));
        let probe = sim.now();
        assert!(p2_chord::ring_is_ordered(&mut sim, &ring));
        // Run on: by the probe instant + table lifetime, the versions
        // valid at `probe` have expired out of the live tier.
        sim.run_for(TimeDelta::from_secs(120));
        assert!(ring_was_well_formed_at(&mut sim, &ring, probe));
        assert!(ordering_violations_at(&mut sim, &ring, probe).is_empty());
    }

    #[test]
    fn corrupted_pointer_shows_up_at_the_right_instants_only() {
        let mut sim = forensic_sim(22);
        let ring = build_ring(&mut sim, 5, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(180));
        let before = sim.now();
        // Injection happens at a strictly later instant than `before`
        // (validity intervals are half-open at the drop end).
        sim.run_for(TimeDelta::from_secs(1));
        // Corrupt one successor pointer; Chord's stabilization will
        // heal it, so only a window of history is malformed.
        let (victim, wrong) = mis_point(&mut sim, &ring);
        let during = sim.now();
        sim.run_for(TimeDelta::from_secs(120));

        assert!(
            ring_was_well_formed_at(&mut sim, &ring, before),
            "pre-corruption instant must reconstruct healthy"
        );
        let viols = ordering_violations_at(&mut sim, &ring, during);
        assert!(
            viols.iter().any(|v| v.node == victim && v.actual == wrong),
            "corruption window must show the bad pointer: {viols:?}"
        );
        // The flip out and back registers as successor changes.
        let end = sim.now();
        let osc = oscillators_in(&mut sim, &ring, before, end, 2);
        assert!(
            osc.iter().any(|(a, _)| *a == victim),
            "victim oscillated: {osc:?}"
        );
    }

    #[test]
    fn collector_answers_identically_to_per_node_walks() {
        // Subscribe a collector to every ring member; after the GC
        // sweeps have streamed each member's history across, the
        // deployment-wide detectors must agree with walking each
        // origin's own archive (DESIGN.md §2.12 determinism contract).
        let mut sim = forensic_sim(24);
        let ring = build_ring(&mut sim, 4, &ChordConfig::default());
        let collector = sim.add_node("collector");
        for addr in ring.addrs.clone() {
            sim.node_mut(&addr).ship_subscribe(collector.clone());
        }
        // 181s: the 180s GC sweep's announce chunks land within the run.
        sim.run_for(TimeDelta::from_secs(181));
        for addr in &ring.addrs {
            assert!(
                sim.node(&collector).ship_covered(addr, "bestSucc"),
                "collector must have imported {addr}'s bestSucc history"
            );
        }
        let probe = Time::from_secs(120);
        assert_eq!(
            ring_at(&mut sim, &ring, probe),
            ring_at(&mut sim, (&ring, &collector), probe),
            "collected reconstruction must match per-node walks"
        );
        assert_eq!(
            ring_was_well_formed_at(&mut sim, &ring, probe),
            ring_was_well_formed_at(&mut sim, (&ring, &collector), probe)
        );
        assert_eq!(
            ordering_violations_at(&mut sim, &ring, probe),
            ordering_violations_at(&mut sim, (&ring, &collector), probe)
        );
        assert_eq!(
            oscillators_in(&mut sim, &ring, Time::from_secs(30), probe, 1),
            oscillators_in(&mut sim, (&ring, &collector), Time::from_secs(30), probe, 1)
        );
    }

    #[test]
    fn history_at_now_is_the_live_ring() {
        // The reconstruction at the current instant must be exactly the
        // pointers the nodes hold live, so the retrospective verdicts
        // are the live oracles' — at every step, sharded or not, and at
        // the instant a pointer is overwritten, where the half-open
        // `[inserted_at, dropped_at)` rule must pick the new version.
        const CORRUPT_STEP: usize = 3;
        for shards in [1, 2] {
            let mut sim = ParallelHarness::new(
                p2_net::SimConfig::default(),
                NodeConfig::forensic(),
                26,
                shards,
            );
            let ring = build_ring(&mut sim, 6, &ChordConfig::default());
            for step in 0..6 {
                sim.run_for(TimeDelta::from_secs(60));
                if step == CORRUPT_STEP {
                    mis_point(&mut sim, &ring);
                }
                let now = sim.now();
                let at = format!("{shards} shard(s), {now}");
                assert_eq!(
                    ring_at(&mut sim, &ring, now),
                    p2_chord::collect_ring(&mut sim, &ring),
                    "{at}"
                );
                let well_formed = p2_chord::ring_is_well_formed(&mut sim, &ring);
                let ordered = p2_chord::ring_is_ordered(&mut sim, &ring);
                assert_eq!(
                    ring_was_well_formed_at(&mut sim, &ring, now),
                    well_formed,
                    "{at}"
                );
                assert_eq!(
                    ordering_violations_at(&mut sim, &ring, now).is_empty(),
                    ordered,
                    "{at}"
                );
                let healthy = step != CORRUPT_STEP;
                assert_eq!((well_formed, ordered), (healthy, healthy), "{at}");
            }
        }
    }

    #[test]
    fn live_only_nodes_reconstruct_nothing() {
        // Without the archive the detectors return "no history", not
        // wrong answers.
        let mut sim = SimHarness::with_seed(23);
        let ring = build_ring(&mut sim, 3, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(120));
        let past = Time::from_secs(60);
        assert!(ring_at(&mut sim, &ring, past).is_empty());
        assert!(ring_was_well_formed_at(&mut sim, &ring, past));
    }
}
