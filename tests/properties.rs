//! Property-based integration tests: system-level invariants under
//! randomized schedules. Case counts are small (each case is a full
//! discrete-event simulation), but the schedules are adversarial in the
//! dimensions that matter: fault timing, network conditions, and seeds.

use p2ql::chord::oracle::forms_ring;
use p2ql::chord::{build_ring, lookup_oracle, ring_is_ordered, ChordConfig};
use p2ql::core::SimHarness;
use p2ql::monitor::snapshot;
use p2ql::net::SimConfig;
use p2ql::types::{DetRng, TimeDelta};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Chord converges to an ID-ordered ring for arbitrary seeds (node
    /// IDs, timer staggering, message ordering all derive from it).
    #[test]
    fn ring_converges_for_any_seed(seed in 1u64..10_000) {
        let mut sim = SimHarness::with_seed(seed);
        let topo = build_ring(&mut sim, 6, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(240));
        prop_assert!(ring_is_ordered(&mut sim, &topo), "seed {seed} failed to converge");
    }

    /// Lookups agree with the out-of-band oracle on stable rings, for
    /// arbitrary keys.
    #[test]
    fn lookups_match_oracle(seed in 1u64..1_000, key_seed in 0u64..u64::MAX) {
        let mut sim = SimHarness::with_seed(seed);
        let topo = build_ring(&mut sim, 6, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(240));
        prop_assume!(ring_is_ordered(&mut sim, &topo));
        let origin = topo.addrs[1].clone();
        sim.node_mut(&origin).watch("lookupResults");
        let key = DetRng::new(key_seed).ring_id();
        p2ql::chord::issue_lookup(&mut sim, &origin, key, &origin, 42);
        sim.run_for(TimeDelta::from_secs(2));
        let results = p2ql::chord::testbed::collect_lookup_results(
            sim.node_mut(&origin).watched("lookupResults"),
        );
        let got = results.get(&p2ql::types::RingId(42));
        prop_assert!(got.is_some(), "lookup unanswered for key {key}");
        let want = lookup_oracle(&sim, &topo, key).expect("oracle");
        prop_assert_eq!(&got.unwrap().1, &want.1);
    }

    /// The Chandy–Lamport snapshot yields a *consistent* global ring for
    /// arbitrary seeds and (modest) link jitter — the §3.3 headline.
    #[test]
    fn snapshots_are_consistent_under_jitter(seed in 1u64..1_000, jitter_ms in 0u64..40) {
        let mut sim = SimHarness::new(
            SimConfig {
                jitter: TimeDelta::from_millis(jitter_ms),
                ..Default::default()
            },
            Default::default(),
            seed,
        );
        let topo = build_ring(&mut sim, 5, &ChordConfig::default());
        sim.run_for(TimeDelta::from_secs(240));
        prop_assume!(ring_is_ordered(&mut sim, &topo));
        for a in topo.addrs.clone() {
            sim.install(&a, &snapshot::backpointer_program()).unwrap();
            sim.install(&a, &snapshot::snapshot_program()).unwrap();
        }
        sim.run_for(TimeDelta::from_secs(30));
        let init = topo.addrs[0].clone();
        sim.install(&init, &snapshot::initiator_program(&init, 50.0)).unwrap();
        sim.run_for(TimeDelta::from_secs(100));
        // The union of snapped bestSucc pointers closes over all nodes.
        let succ: HashMap<_, _> = topo
            .addrs
            .iter()
            .filter_map(|a| Some((a.clone(), snapshot::snapped_succ(&mut sim, a, 1)?)))
            .collect();
        prop_assert!(
            forms_ring(&succ, &topo.addrs),
            "snapped ring is not well-formed (seed {seed}): {succ:?}"
        );
    }

    /// A lossy network delays convergence but does not wedge the
    /// runtime: the ring still forms with 10% message loss.
    #[test]
    fn ring_tolerates_loss(seed in 1u64..500) {
        let mut sim = SimHarness::new(
            SimConfig { loss_rate: 0.10, ..Default::default() },
            Default::default(),
            seed,
        );
        let topo = build_ring(&mut sim, 5, &ChordConfig::default());
        // Loss slows joins/stabilization, and sustained loss keeps
        // perturbing the ring with (rare) false liveness suspicions — as
        // on a real lossy network. The property is liveness despite
        // loss: the runtime never wedges and the ring reaches the
        // ordered state at some point. Poll once per virtual minute.
        let mut ok = false;
        for _ in 0..20 {
            sim.run_for(TimeDelta::from_secs(60));
            if ring_is_ordered(&mut sim, &topo) {
                ok = true;
                break;
            }
        }
        prop_assert!(ok, "seed {seed}: ring never converged under 10% loss");
    }

    /// Flow analysis is declarative: stratum assignment (and the whole
    /// cascade cost report) is a function of the rule *set*, not the
    /// order the statements happen to be written in.
    #[test]
    fn flow_report_is_invariant_under_statement_reordering(seed in 0u64..100_000) {
        use p2ql::analysis::{flow_report, AnalysisCtx};
        use p2ql::overlog::parse_program;
        // Fisher–Yates off the case seed (the vendored proptest has no
        // shuffle strategy).
        let mut order: Vec<usize> = (0..11).collect();
        let mut rng = DetRng::derive(seed, "stmt-order");
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        // A program exercising every analysis dimension: an aggregate
        // chain (two strata), plain table recursion, and a periodic
        // feed.
        let stmts: [&str; 11] = [
            "materialize(raw, 30, 100, keys(1, 2)).",
            "materialize(perNode, 30, 10, keys(1, 2)).",
            "materialize(totals, 30, 1, keys(1)).",
            "materialize(mirror, 30, 100, keys(1, 2)).",
            "r0 raw@N(X) :- ev@N(X).",
            "r1 perNode@N(X, count<*>) :- raw@N(X).",
            "r2 totals@N(sum<C>) :- perNode@N(X, C).",
            "r3 mirror@N(X) :- raw@N(X).",
            "r4 raw@N(X) :- mirror@N(X).",
            "r5 tick@N(E) :- periodic@N(E, 10).",
            "r6 raw@N(E) :- tick@N(E).",
        ];
        let reference = {
            let p = parse_program(&stmts.join("\n")).unwrap();
            flow_report(&[&p], &AnalysisCtx::default())
        };
        let shuffled: Vec<&str> = order.iter().map(|&i| stmts[i]).collect();
        let p = parse_program(&shuffled.join("\n")).unwrap();
        let report = flow_report(&[&p], &AnalysisCtx::default());
        prop_assert_eq!(&report.strata, &reference.strata, "order: {:?}", &order);
        prop_assert_eq!(&report.depth, &reference.depth);
        prop_assert_eq!(&report.amplification, &reference.amplification);
        prop_assert_eq!(&report.roots, &reference.roots);
    }
}
