//! Golden EXPLAIN snapshots for the paper's programs.
//!
//! Every program the repository ships — Chord and each §3 monitor — is
//! planned at the default (Full) optimization level and its EXPLAIN
//! text compared against a checked-in snapshot under
//! `tests/snapshots/`. A diff means the planner's output changed:
//! either a bug, or an intentional optimizer change that must be
//! reviewed and re-recorded with
//!
//! ```text
//! scripts/update_snapshots.sh        # or: SNAPSHOT_REGEN=1 cargo test -p p2-planner
//! ```
//!
//! EXPLAIN is deterministic by construction (see `explain.rs`), so these
//! tests never flake.

use p2_chord::{chord_program, ChordConfig};
use p2_monitor::{consistency, ordering, oscillation, profiling, ring, snapshot, watchpoints};
use p2_planner::{compile_program, explain};
use p2_types::Addr;
use std::collections::HashSet;
use std::path::PathBuf;

/// Tables already materialized when a monitor installs: everything
/// Chord declares, plus the tracer's tables (§2.1.2).
fn chord_tables() -> HashSet<String> {
    let chord = p2_overlog::compile(&chord_program(&ChordConfig::default())).unwrap();
    chord
        .materializations()
        .map(|m| m.table.clone())
        .chain(["ruleExec".to_string(), "tupleTable".to_string()])
        .collect()
}

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}.txt"))
}

fn check(name: &str, source: &str, extra_tables: &[&str]) {
    let mut known = chord_tables();
    known.extend(extra_tables.iter().map(|s| s.to_string()));
    let program = p2_overlog::compile(source)
        .unwrap_or_else(|e| panic!("{name}: front end rejected program: {e}"));
    let compiled = compile_program(&program, &known)
        .unwrap_or_else(|e| panic!("{name}: planner rejected program: {e}"));
    let text = explain(&compiled);

    let path = snapshot_path(name);
    if std::env::var_os("SNAPSHOT_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: cannot read snapshot {}: {e}\nrun scripts/update_snapshots.sh to record it",
            path.display()
        )
    });
    if text != golden {
        let diff: Vec<String> = golden
            .lines()
            .zip(text.lines())
            .enumerate()
            .filter(|(_, (g, t))| g != t)
            .take(8)
            .map(|(i, (g, t))| format!("  line {}:\n    -{g}\n    +{t}", i + 1))
            .collect();
        panic!(
            "{name}: EXPLAIN drifted from {} \
             ({} golden lines, {} actual).\nFirst differing lines:\n{}\n\
             If the plan change is intentional, re-record with scripts/update_snapshots.sh \
             and review the diff.",
            path.display(),
            golden.lines().count(),
            text.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn chord() {
    check("chord", &chord_program(&ChordConfig::default()), &[]);
}

#[test]
fn ring_active_probe() {
    check("ring_active_probe", &ring::active_probe_program(9), &[]);
}

#[test]
fn ring_passive_check() {
    check("ring_passive_check", &ring::passive_check_program(), &[]);
}

#[test]
fn ordering_traversal() {
    check("ordering_traversal", &ordering::traversal_program(), &[]);
}

#[test]
fn oscillation_full() {
    check("oscillation_full", &oscillation::full_program(), &[]);
}

#[test]
fn consistency_probe() {
    check(
        "consistency_probe",
        &consistency::probe_program(&consistency::ProbeConfig {
            probe_secs: 8.0,
            tally_secs: 10,
            wait_secs: 10,
            ..Default::default()
        }),
        &[],
    );
}

#[test]
fn snapshot_backpointer() {
    check(
        "snapshot_backpointer",
        &snapshot::backpointer_program(),
        &[],
    );
}

#[test]
fn snapshot_rules() {
    // Installs after the back-pointer rules, whose tables it reads.
    check(
        "snapshot_rules",
        &snapshot::snapshot_program(),
        &["backPointer", "numBackPointers"],
    );
}

/// Tables the back-pointer and snapshot rules declare: what the
/// initiator, the snapshot lookups and the snapshot probe install over.
const SNAP_TABLES: &[&str] = &[
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

#[test]
fn snapshot_initiator() {
    check(
        "snapshot_initiator",
        &snapshot::initiator_program(&Addr::new("n0"), 45.0),
        SNAP_TABLES,
    );
}

#[test]
fn snapshot_lookup() {
    check(
        "snapshot_lookup",
        &snapshot::snapshot_lookup_program(),
        SNAP_TABLES,
    );
}

#[test]
fn snapshot_probe() {
    check(
        "snapshot_probe",
        &snapshot::snapshot_probe_program(8.0, 5, 5),
        SNAP_TABLES,
    );
}

#[test]
fn ordering_opportunistic() {
    check(
        "ordering_opportunistic",
        &ordering::opportunistic_program(),
        &[],
    );
}

#[test]
fn profiling() {
    check("profiling", &profiling::profiling_program(), &[]);
}

#[test]
fn watchpoints_suite() {
    check("watchpoints_suite", &watchpoints::suite_program(15), &[]);
}
