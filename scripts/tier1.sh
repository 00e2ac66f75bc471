#!/usr/bin/env bash
# Tier-1 verification: everything a change must keep green.
#
#   scripts/tier1.sh
#
# Checks formatting, lints and the docs, builds the workspace in release
# mode, and runs the full test suite (unit + integration + proptests),
# which holds the CLI and replay determinism gates, the frozen
# benchmark's own tests and the exact-count gate (tests/ledger_gate.rs:
# every count the ledger marks exact, on all six workloads, must equal
# tests/golden/ledger_counts.json).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --all-targets -- -D warnings
# The doc gate, a step that cannot be a test: every intra-doc link
# resolves and names a public item. `cargo doc` builds in this target
# directory, whose lock a running `cargo test` holds.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
cargo build --release
cargo test -q
# Golden EXPLAIN snapshots (already part of `cargo test`, but run them
# by name so a drift failure is unmistakable in CI logs; re-record
# intentional plan changes with scripts/update_snapshots.sh).
cargo test -q -p p2-planner --test explain_snapshots
# Static analysis gate: every shipped example and the built-in Chord +
# §3 monitor stack check clean through the full `p2ql check` pipeline
# *including the deep flow passes* (cascade termination, amplification,
# stratification — DESIGN.md §2.13), and known-broken programs fail
# with a non-zero exit; both run inside `cargo test` above
# (tests/cli.rs, and tests/check_corpus.rs for the stacked-monitor
# corpus). The --json smoke stays here because the tree has no JSON
# parser a test could use: the machine-readable report must be
# well-formed JSON.
cargo run --release --bin p2ql -- check --deep --json --chord \
    | python3 -m json.tool > /dev/null
# Engine determinism gates. The golden Chord trace must be
# byte-identical under sharding — NodeConfig defaults to archiving off,
# so this also pins that the archive tier changes nothing when disabled
# (already inside `cargo test`, but run by name so a divergence is
# unmistakable in CI logs).
cargo test -q --test parallel_equivalence golden_chord_trace_is_identical_when_sharded
# The replay determinism gates (every `p2ql replay` variant against its
# reference, byte for byte) and the file-log recovery audit, garbage
# repair included, run inside `cargo test` (tests/cli.rs).
# The frozen benchmark's own tests and the exact-count gate run inside
# `cargo test` (tests/ledger_gate.rs).
# The parent-vs-change pair runner a performance claim is shown with,
# as a smoke: this tree on both sides, one 1-second pair on the realtime
# workload. Exit status only — a failed operation fails it, a timing
# never does.
scripts/bench_pairs.sh realtime_echo . . 1 --seconds 1
# The CI-sized population-scaling sweep (every shard count sends exactly
# the sequential oracle's envelope count) runs inside `cargo test`
# (p2-bench `scale::tests::quick_sweep_agrees_across_engines`). Regenerate
# the committed BENCH_scale.json with the full 21/256/1024-node sweep:
#   cargo run --release -p p2-bench --bin figures -- scale --json BENCH_scale.json

# The size of what the gates above protect (non-test Rust, per crate).
scripts/loc.sh
echo "tier1: OK"
