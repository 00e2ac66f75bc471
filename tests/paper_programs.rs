//! Paper fidelity: every OverLog program in the repository — Chord and
//! all Section 3 monitors — must compile through the full front end
//! (parse + validate) and plan into strands, with the trigger structure
//! each one's semantics requires.

use p2ql::chord::{chord_program, node_facts, ChordConfig};
use p2ql::monitor::{consistency, ordering, oscillation, profiling, ring, snapshot, watchpoints};
use p2ql::planner::{compile_program, Trigger};
use p2ql::types::Addr;
use std::collections::HashSet;

/// Compile + plan against a catalog that already has Chord's tables
/// (monitors install on-line, after the application).
fn plan(src: &str) -> p2ql::planner::CompiledProgram {
    plan_with(src, &[])
}

/// Like [`plan`], with extra already-materialized tables (programs that
/// install after other monitor programs, e.g. the snapshot rules after
/// the back-pointer rules).
fn plan_with(src: &str, extra_tables: &[&str]) -> p2ql::planner::CompiledProgram {
    let mut chord_tables: HashSet<String> = {
        let chord = p2ql::overlog::compile(&chord_program(&ChordConfig::default())).unwrap();
        chord
            .materializations()
            .map(|m| m.table.clone())
            .chain(["ruleExec".to_string(), "tupleTable".to_string()])
            .collect()
    };
    chord_tables.extend(extra_tables.iter().map(|s| s.to_string()));
    let prog = p2ql::overlog::compile(src)
        .unwrap_or_else(|e| panic!("front end rejected program: {e}\n{src}"));
    compile_program(&prog, &chord_tables)
        .unwrap_or_else(|e| panic!("planner rejected program: {e}\n{src}"))
}

#[test]
fn chord_program_plans() {
    let p = plan(&chord_program(&ChordConfig::default()));
    // Five periodic drivers: join, bestSucc sweep, stabilize, fingers, pings.
    let periodics = p
        .strands
        .iter()
        .filter(|s| matches!(s.trigger, Trigger::Periodic { .. }))
        .count();
    assert!(
        periodics >= 5,
        "chord needs its protocol timers, got {periodics}"
    );
    // Lookup rules l1-l4 trigger on the lookup event.
    let lookup_triggered = p
        .strands
        .iter()
        .filter(|s| matches!(&s.trigger, Trigger::Event { name } if name == "lookup"))
        .count();
    assert!(lookup_triggered >= 3, "l1/l2/l2b/l4 trigger on lookup");
}

#[test]
fn chord_facts_plan() {
    let p = plan(&node_facts("n0", 0xAB, None));
    assert!(
        p.facts.len() >= 4,
        "bootstrap node: node, pred, finger fix, succ"
    );
    let p = plan(&node_facts("n1", 0xCD, Some("n0")));
    assert_eq!(p.strands.len(), 0, "facts only");
}

#[test]
fn ring_monitors_plan() {
    let p = plan(&ring::active_probe_program(7));
    assert_eq!(p.strands.len(), 3, "rp1, rp2, rp3");
    assert!(
        matches!(p.strands[0].trigger, Trigger::Periodic { period_secs } if period_secs == 7.0)
    );

    let p = plan(&ring::passive_check_program());
    assert_eq!(p.strands.len(), 1, "rp4");
    // rp4 is passive: triggered by Chord's own stabilization message.
    assert!(matches!(&p.strands[0].trigger, Trigger::Event { name } if name == "stabilizeRequest"));
}

#[test]
fn ordering_monitors_plan() {
    let p = plan(&ordering::opportunistic_program());
    assert!(matches!(&p.strands[0].trigger, Trigger::Event { name } if name == "lookupResults"));

    let p = plan(&ordering::traversal_program());
    // ri2-ri7: one strand each (all event-triggered).
    assert_eq!(p.strands.len(), 6);
    assert!(p
        .strands
        .iter()
        .all(|s| matches!(s.trigger, Trigger::Event { .. })));
}

#[test]
fn oscillation_monitors_plan() {
    let p = plan(&oscillation::full_program());
    // os1/os2 are passive taps on gossip messages.
    for msg in ["sendPred", "returnSucc"] {
        assert!(
            p.strands
                .iter()
                .any(|s| matches!(&s.trigger, Trigger::Event { name } if name == msg)),
            "oscillation must tap {msg}"
        );
    }
    // os8 recounts on nbrOscill table inserts.
    assert!(p
        .strands
        .iter()
        .any(|s| matches!(&s.trigger, Trigger::TableInsert { name } if name == "nbrOscill")));
}

#[test]
fn consistency_probe_plans() {
    let p = plan(&consistency::probe_program(
        &consistency::ProbeConfig::default(),
    ));
    assert_eq!(p.tables.len(), 5, "cs state tables");
    // cs10/cs11 are delete rules.
    let deletes = p.strands.iter().filter(|s| s.head.delete).count();
    assert_eq!(deletes, 2, "cs10 and cs11");
    // cs6 recomputes on conRespTable inserts (table-triggered aggregate).
    let cs6 = p
        .strands
        .iter()
        .find(|s| s.rule_label == "cs6")
        .expect("cs6 present");
    assert!(matches!(&cs6.trigger, Trigger::TableInsert { name } if name == "conRespTable"));
    assert!(cs6.head.agg.is_some());
}

#[test]
fn profiling_walk_plans() {
    let p = plan(&profiling::profiling_program());
    // The walk joins the trace tables — they must be classified as
    // tables (tracing-enabled install), not events.
    for s in &p.strands {
        if s.rule_label == "ep5" || s.rule_label == "ep6" {
            assert!(s.ops.iter().any(
                |op| matches!(op, p2ql::planner::Op::Join { table, .. } if table == "ruleExec")
            ));
        }
    }
    // Termination via zero-count aggregates (ep8/ep9).
    let zero_caps = p
        .strands
        .iter()
        .filter(|s| {
            s.head
                .agg
                .as_ref()
                .is_some_and(|a| a.group_bound_by_trigger)
        })
        .count();
    assert!(zero_caps >= 2, "ep8/ep9 need zero-count emission");
}

#[test]
fn snapshot_programs_plan() {
    let p = plan(&snapshot::backpointer_program());
    assert!(p
        .strands
        .iter()
        .any(|s| matches!(&s.trigger, Trigger::Event { name } if name == "pingReq")));

    // The snapshot rules install after the back-pointer rules, whose
    // tables they read.
    let bp = ["backPointer", "numBackPointers"];
    let p = plan_with(&snapshot::snapshot_program(), &bp);
    // sr8's count must allow zero-emission (sr9 depends on it).
    let sr8 = p
        .strands
        .iter()
        .find(|s| s.rule_label == "sr8")
        .expect("sr8");
    assert!(sr8.head.agg.as_ref().unwrap().group_bound_by_trigger);

    let snap_tables = [
        "backPointer",
        "numBackPointers",
        "snapState",
        "currentSnap",
        "snapBestSucc",
        "snapFinger",
        "snapPred",
        "channelState",
        "channelSuccDump",
        "channelDoneCount",
        "channelTotalCount",
    ];
    let p = plan_with(
        &snapshot::initiator_program(&Addr::new("n0"), 60.0),
        &snap_tables,
    );
    assert!(p
        .strands
        .iter()
        .any(|s| matches!(s.trigger, Trigger::Periodic { .. })));
    assert_eq!(p.facts.len(), 1, "the seed snapState row");

    let p = plan_with(&snapshot::snapshot_lookup_program(), &snap_tables);
    assert!(p
        .strands
        .iter()
        .any(|s| matches!(&s.trigger, Trigger::Event { name } if name == "sLookup")));

    let p = plan_with(&snapshot::snapshot_probe_program(8.0, 5, 5), &snap_tables);
    assert!(p.strands.iter().any(|s| s.rule_label == "scs4"));
}

#[test]
fn watchpoint_suite_plans_passively() {
    let p = plan(&watchpoints::suite_program(15));
    // Exactly one timer (the roll-up); every detector rides existing
    // traffic.
    let periodics = p
        .strands
        .iter()
        .filter(|s| matches!(s.trigger, Trigger::Periodic { .. }))
        .count();
    assert_eq!(periodics, 1, "passive suite must not probe");
}

#[test]
fn every_program_round_trips_through_the_pretty_printer() {
    let programs = [
        chord_program(&ChordConfig::default()),
        ring::active_probe_program(7),
        ring::passive_check_program(),
        ordering::opportunistic_program(),
        ordering::traversal_program(),
        oscillation::full_program(),
        consistency::probe_program(&consistency::ProbeConfig::default()),
        profiling::profiling_program(),
        snapshot::backpointer_program(),
        snapshot::snapshot_program(),
        snapshot::initiator_program(&Addr::new("n0"), 60.0),
        snapshot::snapshot_lookup_program(),
        snapshot::snapshot_probe_program(8.0, 5, 5),
        watchpoints::suite_program(15),
    ];
    for src in &programs {
        let p1 = p2ql::overlog::parse_program(src).unwrap();
        let printed = p2ql::overlog::pretty::program_to_string(&p1);
        let p2 = p2ql::overlog::parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(p1, p2, "pretty-printer changed semantics");
    }
}
