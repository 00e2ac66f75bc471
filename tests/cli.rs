//! The `p2ql` binary at its command line: what a user types and reads.

use std::process::{Command, Output};

fn p2ql(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_p2ql"))
        .args(args)
        .output()
        .expect("p2ql runs")
}

const RUN: [&str; 8] = [
    "run",
    "programs/paths.olg",
    "--nodes",
    "3",
    "--for",
    "5",
    "--dump",
    "bestPathCost",
];

#[test]
fn dump_of_an_unknown_table_warns_on_stderr_and_leaves_stdout_alone() {
    let good = p2ql(&RUN);
    assert!(good.status.success());
    assert!(!good.stdout.is_empty(), "bestPathCost has rows");
    assert!(
        good.stderr.is_empty(),
        "a materialized table draws no warning: {}",
        String::from_utf8_lossy(&good.stderr)
    );

    // The same run with a misspelled second table: the valid dump is
    // unchanged, the typo is named on stderr, the exit code stays 0.
    let typo = p2ql(&[&RUN[..], &["--dump", "bestPathCots"]].concat());
    assert!(typo.status.success());
    assert_eq!(typo.stdout, good.stdout);
    assert_eq!(
        String::from_utf8_lossy(&typo.stderr),
        "warning: --dump bestPathCots: no such table on any node\n"
    );
}

/// `p2ql check`'s exit status is the gate: every shipped program and
/// the built-in Chord + §3 monitor stack check clean through the deep
/// flow passes, and known-broken programs fail — a typo in a relation
/// name, and (only under `--deep`) an event storm (P2W601).
#[test]
fn check_passes_the_shipped_programs_and_fails_broken_ones() {
    let mut programs: Vec<String> = std::fs::read_dir("programs")
        .unwrap()
        .map(|e| e.unwrap().path().display().to_string())
        .filter(|p| p.ends_with(".olg"))
        .collect();
    programs.sort();
    assert!(!programs.is_empty());
    let programs: Vec<&str> = programs.iter().map(String::as_str).collect();
    let check = |args: &[&str]| p2ql(&[&["check"], args].concat());
    for clean in [
        &[&["--deep"], &programs[..]].concat()[..],
        &["--deep", "--chord"],
    ] {
        let out = check(clean);
        let report = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "check {clean:?} failed:\n{report}");
    }
    for broken in [
        &["tests/bad_programs/typo_relation.olg"][..],
        &["--deep", "tests/bad_programs/storm_ping_pong.olg"],
    ] {
        let out = check(broken);
        assert!(
            !out.status.success(),
            "check {broken:?} passed a broken program"
        );
    }
}

/// `p2ql replay --nodes 5 --seed 1` with `extra` flags: its report.
fn replay(extra: &[&str]) -> Vec<u8> {
    let out = p2ql(&[&["replay", "--nodes", "5", "--seed", "1"], extra].concat());
    assert!(
        out.status.success(),
        "{extra:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// The forensic replay report is the same at 1 and 4 shards, and the
/// same again when every verdict is answered from a collector's
/// shipped history instead of each origin's own archive.
#[test]
fn replay_report_is_the_same_sharded_and_collected() {
    let one = replay(&["--shards", "1"]);
    let four = replay(&["--shards", "4"]);
    assert!(!one.is_empty());
    assert!(four == one, "4 shards' report differs from 1 shard's");
    assert!(
        replay(&["--shards", "1", "--collect"]) == one,
        "the collected report differs from the plain one"
    );
    assert!(
        replay(&["--shards", "4", "--collect"]) == four,
        "the collected report at 4 shards differs from the plain one"
    );
}

/// The crash-restart replay report is the same on every backend, shard
/// count and history source (the in-memory log at 1 and 4 shards, the
/// file log, a collector's shipped history), and the file log it leaves
/// is what `p2ql recover` audits, and repairs once garbage follows its
/// last record.
#[test]
fn recover_audits_a_store_and_refuses_a_path_that_holds_none() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-recover");
    let _ = std::fs::remove_dir_all(&root);
    let data = root.join("data");
    let restart = |extra: &[&str]| replay(&[&["--restart", "2"], extra].concat());
    let filled = restart(&["--shards", "1", "--data-dir", data.to_str().unwrap()]);
    let memory = restart(&["--shards", "1"]);
    assert!(!memory.is_empty());
    assert!(
        filled == memory,
        "the file backend's report differs from the in-memory one"
    );
    assert!(
        restart(&["--shards", "4"]) == memory,
        "4 shards' report differs from 1 shard's"
    );
    assert!(
        restart(&["--shards", "1", "--collect"]) == memory,
        "the collected report differs from the plain one"
    );

    // A populated node directory: the per-relation summary, exit 0.
    let audit = p2ql(&["recover", "--dir", data.join("n2").to_str().unwrap()]);
    assert!(audit.status.success());
    let report = String::from_utf8_lossy(&audit.stdout);
    assert!(report.contains("ruleExec: "), "{report}");
    assert!(report.contains("quarantined 0 frames"), "{report}");

    // Garbage after the last record: the audit truncates it with a
    // clean exit (recovery never panics), and a second audit finds the
    // log rewritten clean.
    let log = data.join("n2").join("rel-0.seglog");
    let mut bytes = std::fs::read(&log).unwrap();
    bytes.extend_from_slice(b"torn tail and then some garbage");
    std::fs::write(&log, bytes).unwrap();
    for clean in [false, true] {
        let audit = p2ql(&["recover", "--dir", data.join("n2").to_str().unwrap()]);
        assert!(audit.status.success());
        let report = String::from_utf8_lossy(&audit.stdout);
        let untouched = "truncated 0 tail bytes, quarantined 0 frames";
        if clean {
            assert!(report.contains(untouched), "{report}");
        } else {
            assert!(!report.contains("truncated 0 tail bytes"), "{report}");
        }
    }

    // A typo: named on stderr, non-zero, and the audit creates nothing.
    let missing = data.join("n22");
    let typo = p2ql(&["recover", "--dir", missing.to_str().unwrap()]);
    assert!(!typo.status.success());
    assert!(typo.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&typo.stderr),
        format!("error: no durable store at {}\n", missing.display())
    );
    assert!(!missing.exists());
    let _ = std::fs::remove_dir_all(&root);
}

/// Lists `dir`'s files with their bytes, sorted by name.
fn files(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// A store of the older format — written here by hand as that format
/// wrote it: FNV-1a record sums under a `p2-durable v1` manifest — is
/// refused, not wiped. A node booting on it recovers nothing, counts
/// the refusal as an I/O error, bumps no boot counter and writes
/// nothing; `p2ql recover` names the tag on stderr, exits non-zero and
/// changes nothing either.
#[test]
fn a_store_of_another_format_is_refused_and_left_untouched() {
    use p2ql::core::{DurabilityMode, DurableBackend, Node, NodeConfig};
    use p2ql::store::{Segment, SpilledRow};
    use p2ql::types::{rng::fnv1a, Addr, Time, Tuple, Value};
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-recover-v1");
    let _ = std::fs::remove_dir_all(&root);
    let store = root.join("n0");
    std::fs::create_dir_all(&store).unwrap();
    let rows: Vec<SpilledRow> = (0..3)
        .map(|i| SpilledRow {
            tuple: Tuple::new("seen", [Value::addr("n0"), Value::Int(i)]),
            inserted_at: Time::from_secs(i as u64),
            dropped_at: Time::from_secs(10),
        })
        .collect();
    let frame = Segment::build("seen", 0, 0, &rows);
    let mut log = (frame.len_bytes() as u32).to_le_bytes().to_vec();
    log.extend_from_slice(&fnv1a(frame.as_bytes()).to_le_bytes());
    log.extend_from_slice(frame.as_bytes());
    std::fs::write(store.join("rel-0.seglog"), &log).unwrap();
    std::fs::write(
        store.join("MANIFEST"),
        "p2-durable v1\nboot 2\nrel 0 seen\n",
    )
    .unwrap();
    let before = files(&store);

    let config = NodeConfig {
        durability: Some(DurabilityMode {
            backend: DurableBackend::Dir(root.clone()),
            fsync: false,
            plan: None,
        }),
        ..NodeConfig::forensic()
    };
    let mut node = Node::new(Addr::new("n0"), config);
    let stats = node
        .catalog_mut()
        .durable_stats()
        .expect("durability is on");
    assert_eq!(
        (stats.boots, stats.recovered_segments, stats.io_errors),
        (0, 0, 1)
    );
    drop(node);
    assert!(files(&store) == before, "a node boot changed the store");

    let audit = p2ql(&["recover", "--dir", store.to_str().unwrap()]);
    assert!(!audit.status.success());
    assert!(audit.stdout.is_empty());
    let err = String::from_utf8_lossy(&audit.stderr);
    assert!(err.contains("of format 'p2-durable v1'"), "{err}");
    assert!(files(&store) == before, "p2ql recover changed the store");
    let _ = std::fs::remove_dir_all(&root);
}
