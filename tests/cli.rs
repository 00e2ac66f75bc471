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
