#!/usr/bin/env bash
# Tier-1 verification: everything a change must keep green.
#
#   scripts/tier1.sh
#
# Checks formatting and lints, builds the workspace in release mode,
# runs the full test suite (unit + integration + proptests), the CLI
# and replay determinism gates, the frozen benchmark's own tests, and
# the exact-count gate: every count the ledger marks exact, on all six
# workloads, must equal tests/golden/ledger_counts.json.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --all-targets -- -D warnings
cargo build --release
cargo test -q
# Golden EXPLAIN snapshots (already part of `cargo test`, but run them
# by name so a drift failure is unmistakable in CI logs; re-record
# intentional plan changes with scripts/update_snapshots.sh).
cargo test -q -p p2-planner --test explain_snapshots
# Static analysis gate: every shipped example must check clean through
# the full `p2ql check` pipeline *including the deep flow passes*
# (cascade termination, amplification, stratification — DESIGN.md
# §2.13; the stacked-monitor corpus runs as tests/check_corpus.rs
# inside `cargo test` above), and known-broken programs must fail with
# a non-zero exit.
cargo run --release --bin p2ql -- check --deep programs/*.olg
# The built-in Chord + §3 monitor stack must be deep-clean too.
cargo run --release --bin p2ql -- check --deep --chord
if cargo run --release --bin p2ql -- check tests/bad_programs/typo_relation.olg \
    >/dev/null 2>&1; then
  echo "tier1: p2ql check passed a known-broken program" >&2
  exit 1
fi
# A known event storm must fail the deep pass (P2W601).
if cargo run --release --bin p2ql -- check --deep tests/bad_programs/storm_ping_pong.olg \
    >/dev/null 2>&1; then
  echo "tier1: p2ql check --deep passed a known event storm" >&2
  exit 1
fi
# --json smoke: the machine-readable report must be well-formed JSON.
cargo run --release --bin p2ql -- check --deep --json --chord \
    | python3 -m json.tool > /dev/null
# Engine determinism gates. The golden Chord trace must be
# byte-identical under sharding — NodeConfig defaults to archiving off,
# so this also pins that the archive tier changes nothing when disabled
# (already inside `cargo test`, but run by name so a divergence is
# unmistakable in CI logs).
cargo test -q --test parallel_equivalence golden_chord_trace_is_identical_when_sharded
# Replay determinism gates: `p2ql replay` writes the full
# incident-reconstruction report — archive scans, past() answers,
# retrospective detectors — and each variant must reproduce its
# reference report byte for byte. Shard count (1 vs 4), `--collect`
# (DESIGN.md §2.12: every verdict answered from a collector's shipped
# history) and the crash-restart variants on the in-memory log run
# inside `cargo test` (tests/cli.rs); the file-backend run stays here
# because the recovery audit below reads the log it leaves.
replay_gate() { # <name> <reference|-> <replay flags...>
  local name=$1 ref=$2
  shift 2
  cargo run --release --bin p2ql -- replay --nodes 5 --seed 1 "$@" \
      > "target/replay.$name.txt"
  if [ "$ref" != - ] && ! cmp -s "target/replay.$ref.txt" "target/replay.$name.txt"; then
    echo "tier1: replay '$name' diverged from '$ref'" >&2
    diff "target/replay.$ref.txt" "target/replay.$name.txt" >&2 || true
    exit 1
  fi
}
rm -rf target/tier1-durable
# Durability (§2.14): the file backend reports what the in-memory one
# does across a mid-run crash-restart of one ring node.
replay_gate restart.1shard   -               --shards 1 --restart 2
replay_gate restart.file     restart.1shard  --shards 1 --restart 2 \
    --data-dir target/tier1-durable
# A corrupted data dir must recover (quarantine + truncate) with a
# clean exit — recovery never panics.
printf 'torn tail and then some garbage' >> target/tier1-durable/n2/rel-0.seglog
cargo run --release --bin p2ql -- recover --dir target/tier1-durable/n2 \
    > target/recover.audit.txt
if grep -q "truncated 0 tail bytes" target/recover.audit.txt; then
  echo "tier1: recover missed the injected log damage" >&2
  exit 1
fi
# A second audit must find the log rewritten clean.
cargo run --release --bin p2ql -- recover --dir target/tier1-durable/n2 \
    > target/recover.audit2.txt
grep -q "truncated 0 tail bytes, quarantined 0 frames" target/recover.audit2.txt
# The frozen benchmark (BENCHMARK.json) is its own package and may not
# be edited, so whatever it calls must keep compiling and running: build
# it against this tree and run its tests (a toy-size run of every
# workload, ~10 s).
cargo test --release --offline --manifest-path crates/bench/src/bin/ledger/Cargo.toml
# The parent-vs-change pair runner a performance claim is shown with,
# as a smoke: this tree on both sides, one 1-second pair on the realtime
# workload. Exit status only — a failed operation fails it, a timing
# never does.
scripts/bench_pairs.sh realtime_echo . . 1 --seconds 1
# The exact-count gate: a 1-second traced run of every workload against
# the committed one. With every run traced `compare` has no untraced
# pair to bound, so it checks only the ~100 counts marked exact
# (dispatches, total_sent, barrier_waits, past_query_hits, segments, …)
# and no timing. A change that moves one on purpose re-records the file
# with the first command, `--out tests/golden/ledger_counts.json`.
ledger() {
  cargo run --release --offline --quiet \
      --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- "$@"
}
ledger all --seconds 1 --trace 1 --out target/ledger_counts.json > target/ledger_counts.log
ledger compare tests/golden/ledger_counts.json target/ledger_counts.json
# Population-scaling emission: the CI-sized sweep exercises the full
# `figures scale --json` path (its internal assert re-checks that every
# shard count sends exactly the sequential oracle's envelope count).
# It writes to target/ so it never clobbers the committed artifact;
# regenerate that one with the full 21/256/1024-node sweep:
#   cargo run --release -p p2-bench --bin figures -- scale --json BENCH_scale.json
cargo run --release -p p2-bench --bin figures -- scale --quick --json target/BENCH_scale.quick.json

# The size of what the gates above protect (non-test Rust, per crate).
scripts/loc.sh
echo "tier1: OK"
