#!/usr/bin/env bash
# Prints each crate's non-test lines of code: for every .rs file under
# crates/*/src, the lines above its first column-0 `#[cfg(test)]` (the
# whole file when it has none), summed per crate.
# Usage: tools/loc.sh [repo root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
total=0
for src in crates/*/src; do
  n=$(find "$src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }')
  printf '%-28s %6d\n' "$src" "$n"
  total=$((total + n))
done
printf '%-28s %6d\n' total "$total"
