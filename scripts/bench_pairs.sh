#!/usr/bin/env bash
# Parent against change on ledger workloads, the way a performance
# claim has to be shown (choosing-metrics §8): alternating pairs, equal
# seed within a pair, a fresh seed per pair.
#
#   scripts/bench_pairs.sh <workload[,workload...]|all> <parent-checkout> <change-checkout> [pairs=10] [ledger run options...]
#
#   scripts/bench_pairs.sh realtime_echo ../parent . 10
#   scripts/bench_pairs.sh all ../parent . 10        # every BENCHMARK.json workload
#   scripts/bench_pairs.sh realtime_echo . . 1 --seconds 1      # smoke: both sides one tree
#
# Builds each checkout's ledger (crates/bench/src/bin/ledger, into its own
# target directory), then, workload by workload (in the order given, or
# in BENCHMARK.json's for `all`), runs `ledger run --workload W --seed S
# --trace 0` from each checkout's root, parent first in odd pairs and
# change first in even ones. Reads only the last line of each run's
# output (the result JSON) and edits nothing. Prints, per workload and
# end-to-end metric, each side's median and quartiles, how many pairs the
# change won, how far apart the medians are beside the parent's own
# interquartile range, and both sides' min/max — a side whose min and
# max are far apart while its quartiles are close is bimodal, and its
# median says which mode the majority of runs fell in, not what a run
# costs. A metric whose change median is worse than the parent's by more
# than its BENCHMARK.json bound (a share of the parent's median, as
# `ledger compare` counts it) is flagged `WORSE beyond bound`. A run of
# more than one workload ends with a verdict table, one line per
# workload and end-to-end metric: the change/parent median ratio, the
# pairs the change won, and the flag where it applies.
#
# Seeds are <base>+1 .. <base>+pairs for every workload; the base is the
# clock unless `--seed BASE` is among the options. Exit status: non-zero
# when a build or a run fails (a run fails when an operation in it did);
# timings gate nothing.
set -euo pipefail

if [ $# -lt 3 ]; then
  sed -n '2,10p' "$0" >&2
  exit 2
fi
parent=$(cd "$2" && pwd)
change=$(cd "$3" && pwd)
if [ "$1" = all ]; then
  workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$change/BENCHMARK.json")
else
  workloads=${1//,/ }
fi
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

run() { # <workload> <side> <checkout> <pair> <seed>
  (cd "$3" && "$3/$ledger/target/release/ledger" run --workload "$1" \
      --seed "$5" --trace 0 ${opts[@]+"${opts[@]}"}) > "$out/$1.$2.$4.txt"
  tail -n 1 "$out/$1.$2.$4.txt" > "$out/$1.$2.$4.json"
}

describe() { # <checkout>: its commit and uncommitted edits, when git can tell
  if git -C "$1" rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    echo "$(git -C "$1" rev-parse --short HEAD), $(git -C "$1" status --porcelain | wc -l) files modified"
  else
    echo "not a git work tree: commit and edits unknown"
  fi
}

for workload in $workloads; do
  echo "bench_pairs: $workload, $pairs pairs, seeds $((base + 1))..$((base + pairs)), $(nproc) cpus"
  echo "  parent $parent ($(describe "$parent"))"
  echo "  change $change ($(describe "$change"))"
  for i in $(seq 1 "$pairs"); do
    seed=$((base + i))
    if [ $((i % 2)) -eq 1 ]; then
      run "$workload" parent "$parent" "$i" "$seed"
      run "$workload" change "$change" "$i" "$seed"
    else
      run "$workload" change "$change" "$i" "$seed"
      run "$workload" parent "$parent" "$i" "$seed"
    fi
  done

  python3 - "$out" "$workload" "$pairs" "$change/BENCHMARK.json" <<'EOF'
import json, statistics, sys

out, workload, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
bench = json.load(open(sys.argv[4]))
verdicts = open(f"{out}/verdicts.txt", "a")

def load(side, i):
    return json.load(open(f"{out}/{workload}.{side}.{i}.json"))

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
    # How much worse the change's median is, as a share of the parent's.
    worse = (med["change"] - med["parent"]) / med["parent"] if med["parent"] else 0.0
    worse = worse if lower else -worse
    flag = "; WORSE beyond bound" if worse > m["bound"] else ""
    print(f"  change wins {wins} of {pairs} pairs ({ties} ties); change/parent medians = {ratio:.3f};"
          f" medians {abs(med['change'] - med['parent']):.6g} apart, parent IQR {iqr['parent']:.6g}{flag}")
    verdicts.write(f"{workload:<22} {name:<17} {ratio:>8.3f} {wins:>4}/{pairs:<4}{flag[2:]}\n")
EOF
done

if [ "$(echo "$workloads" | wc -w)" -gt 1 ]; then
  echo "bench_pairs: verdicts (change/parent median ratio, pairs the change won)"
  printf '%-22s %-17s %8s %6s\n' workload metric ratio won
  cat "$out/verdicts.txt"
fi
