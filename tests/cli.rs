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

#[test]
fn recover_audits_a_store_and_refuses_a_path_that_holds_none() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-recover");
    let _ = std::fs::remove_dir_all(&root);
    let data = root.join("data");
    let filled = p2ql(&[
        "replay",
        "--nodes",
        "5",
        "--seed",
        "1",
        "--restart",
        "2",
        "--data-dir",
        data.to_str().unwrap(),
    ]);
    assert!(filled.status.success());

    // A populated node directory: the per-relation summary, exit 0.
    let audit = p2ql(&["recover", "--dir", data.join("n2").to_str().unwrap()]);
    assert!(audit.status.success());
    let report = String::from_utf8_lossy(&audit.stdout);
    assert!(report.contains("ruleExec: "), "{report}");
    assert!(report.contains("quarantined 0 frames"), "{report}");

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
