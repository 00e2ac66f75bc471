#!/usr/bin/env bash
# Non-test Rust lines, per crate and in total — the number every
# simplicity PR quotes.
#
#   scripts/loc.sh [repo-root]
#
# Counts, for each `src/**/*.rs` of the root package and of every crate
# under `crates/`, the lines above the file's first `#[cfg(test)]` that
# opens a module (a test-only item or statement further up counts as
# code; a `*_tests.rs` file is all test). `vendor/` and `target/` are not
# under those roots; the ledger package (`crates/bench/src/bin/ledger`,
# its own workspace, build directory included) is skipped.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find src crates/*/src -name '*.rs' \
    -not -path 'crates/bench/src/bin/ledger/*' -not -name '*_tests.rs' -print0 |
  xargs -0 awk '
    FNR == 1 { counting = 1; held = 0; split(FILENAME, p, "/"); crate = p[1] == "src" ? "p2ql" : p[2] }
    held && /^[ \t]*#\[/ { held++; next }
    held { if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod /) counting = 0; else if (counting) { lines[crate] += held; total += held }; held = 0 }
    /^[ \t]*#\[cfg\(test\)\]/ { held = 1; next }
    counting { lines[crate]++; total++ }
    END {
      for (c in lines) printf "%7d  %s\n", lines[c], c | "sort -k2"
      close("sort -k2")
      printf "%7d  total non-test Rust\n", total
    }'
