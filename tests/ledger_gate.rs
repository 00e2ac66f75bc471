//! The benchmark ledger, run from `cargo test`: its own tests, then the
//! exact-count gate — every count the ledger marks exact (dispatches,
//! `total_sent`, `barrier_waits`, `past_query_hits`, segment and
//! durable-log counts, …) on all six workloads must equal
//! `tests/golden/ledger_counts.json`. No timing is compared.
//!
//! The ledger is a package of its own (`crates/bench/src/bin/ledger`,
//! with its own target directory, so its build never waits on this
//! one's lock); it is built against this tree and driven through
//! `cargo`. A change that moves a count on purpose re-records the
//! golden and says so:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
//!     all --seconds 1 --trace 1 --out tests/golden/ledger_counts.json
//! ```

use std::path::Path;
use std::process::Command;

const LEDGER: &str = "crates/bench/src/bin/ledger";

/// `cargo <command> --release --offline --manifest-path <ledger> [-- args]`
/// from the repo root; panics with the tool's output on a non-zero exit.
fn ledger(command: &[&str], args: &[&str]) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = root.join(LEDGER).join("Cargo.toml");
    let out = Command::new(env!("CARGO"))
        .current_dir(root)
        .env("CARGO_TARGET_DIR", root.join(LEDGER).join("target"))
        .args(command)
        .args(["--release", "--offline", "--manifest-path"])
        .arg(&manifest)
        .arg("--")
        .args(args)
        .output()
        .expect("cargo runs");
    let report = format!(
        "cargo {command:?} -- {args:?}: {}\n--- stdout\n{}\n--- stderr\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.status.success(), "{report}");
    println!("{report}");
}

#[test]
fn ledger_tests_pass_and_every_exact_count_matches_the_golden() {
    let counts = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ledger_counts.json");
    let counts = counts.to_str().expect("target path is UTF-8");
    ledger(&["test"], &[]);
    ledger(
        &["run", "--quiet"],
        &["all", "--seconds", "1", "--trace", "1", "--out", counts],
    );
    ledger(
        &["run", "--quiet"],
        &["compare", "tests/golden/ledger_counts.json", counts],
    );
}
