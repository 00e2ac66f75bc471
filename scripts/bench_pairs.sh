#!/usr/bin/env bash
# Parent against change on one ledger workload, the way a performance
# claim has to be shown (choosing-metrics §8): alternating pairs, equal
# seed within a pair, a fresh seed per pair.
#
#   scripts/bench_pairs.sh <workload> <parent-checkout> <change-checkout> [pairs=10] [ledger run options...]
#
#   scripts/bench_pairs.sh realtime_echo /root/scratch/parent . 10
#   scripts/bench_pairs.sh realtime_echo . . 1 --seconds 1      # smoke: both sides one tree
#
# Builds each checkout's ledger (crates/bench/src/bin/ledger, into its own
# target directory), then runs `ledger run --workload W --seed S --trace 0`
# from each checkout's root, parent first in odd pairs and change first in
# even ones. Reads only the last line of each run's output (the result
# JSON) and edits nothing. Prints, per end-to-end metric, each side's
# median and quartiles, how many pairs the change won, how far apart the
# medians are beside the parent's own interquartile range, and both
# sides' min/max — a side whose min and max are far apart while its quartiles
# are close is bimodal, and its median says which mode the majority of
# runs fell in, not what a run costs.
#
# Seeds are <base>+1 .. <base>+pairs; the base is the clock unless
# `--seed BASE` is among the options. Exit status: non-zero when a build
# or a run fails (a run fails when an operation in it did); timings gate
# nothing.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,9p' "$0" >&2
  exit 2
fi
workload=$1
parent=$(cd "$2" && pwd)
change=$(cd "$3" && pwd)
shift 3
pairs=10
if [ $# -gt 0 ] && [[ $1 =~ ^[0-9]+$ ]]; then
  pairs=$1
  shift
fi
base=$(($(date +%s) % 1000000 * 100))
opts=()
while [ $# -gt 0 ]; do
  if [ "$1" = --seed ]; then
    base=$2
    shift 2
  else
    opts+=("$1")
    shift
  fi
done

ledger=crates/bench/src/bin/ledger
for dir in "$parent" "$change"; do
  cargo build --release --offline --quiet --manifest-path "$dir/$ledger/Cargo.toml"
done

mkdir -p "$change/target"
out=$(mktemp -d "$change/target/bench_pairs.XXXXXX")
trap 'rm -rf "$out"' EXIT

run() { # <side> <checkout> <pair> <seed>
  (cd "$2" && "$2/$ledger/target/release/ledger" run --workload "$workload" \
      --seed "$4" --trace 0 ${opts[@]+"${opts[@]}"}) > "$out/$1.$3.txt"
  tail -n 1 "$out/$1.$3.txt" > "$out/$1.$3.json"
}

describe() { # <checkout>: its commit and uncommitted edits, when git can tell
  if git -C "$1" rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    echo "$(git -C "$1" rev-parse --short HEAD), $(git -C "$1" status --porcelain | wc -l) files modified"
  else
    echo "not a git work tree: commit and edits unknown"
  fi
}

echo "bench_pairs: $workload, $pairs pairs, seeds $((base + 1))..$((base + pairs)), $(nproc) cpus"
echo "  parent $parent ($(describe "$parent"))"
echo "  change $change ($(describe "$change"))"
for i in $(seq 1 "$pairs"); do
  seed=$((base + i))
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i" "$seed"
    run change "$change" "$i" "$seed"
  else
    run change "$change" "$i" "$seed"
    run parent "$parent" "$i" "$seed"
  fi
done

python3 - "$out" "$pairs" "$change/BENCHMARK.json" <<'EOF'
import json, statistics, sys

out, pairs, bench = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))

def load(side, i):
    return json.load(open(f"{out}/{side}.{i}.json"))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")

runs = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("parent", "change")}
for side, rs in runs.items():
    failed = sum(r["failed"] for r in rs)
    attempted = sum(r["attempted"] for r in rs)
    print(f"  {side}: failed {failed} of {attempted} operations")

for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    vals = {s: [r["metrics"][name]["value"] for r in rs] for s, rs in runs.items()}
    wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
    ties = sum(c == p for p, c in zip(vals["parent"], vals["change"]))
    print(f"{name} [{m['unit']}, {m['better']} is better, bound {m['bound']}]")
    med, iqr = {}, {}
    for side in ("parent", "change"):
        q1, q2, q3 = quartiles(vals[side])
        med[side], iqr[side] = q2, q3 - q1
        print(f"  {side}: median {q2:.6g}  quartiles {q1:.6g}..{q3:.6g}"
              f"  min {min(vals[side]):.6g}  max {max(vals[side]):.6g}")
    ratio = med["change"] / med["parent"] if med["parent"] else float("nan")
    print(f"  change wins {wins} of {pairs} pairs ({ties} ties); change/parent medians = {ratio:.3f};"
          f" medians {abs(med['change'] - med['parent']):.6g} apart, parent IQR {iqr['parent']:.6g}")
EOF
