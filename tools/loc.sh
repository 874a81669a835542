#!/usr/bin/env bash
# Prints each crate's non-test lines of code: for every .rs file under
# crates/*/src, the lines above its first column-0 `#[cfg(test)]` (the
# whole file when it has none), summed per crate. After the total it
# prints crates/core/src plus crates/managers/src (the kernel and manager
# code a simplification is judged by), then the same count for
# subsystems tracked on their own; those lines are already inside their
# crate's line and the total. Last comes a `tests` line: every line of the
# root package's integration tests, tests/*.rs.
# Usage: tools/loc.sh [repo root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
  find "$1" -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }'
}

total=0
core_managers=0
for src in crates/*/src; do
  n=$(count "$src")
  printf '%-28s %6d\n' "$src" "$n"
  total=$((total + n))
  case "$src" in
    crates/core/src | crates/managers/src) core_managers=$((core_managers + n)) ;;
  esac
done
printf '%-28s %6d\n' total "$total"
printf '%-28s %6d\n' core+managers "$core_managers"
for sub in crates/managers/src/shard; do
  [ -d "$sub" ] || continue
  printf '%-28s %6d\n' "$sub" "$(count "$sub")"
done
printf '%-28s %6d\n' tests "$(cat tests/*.rs | wc -l)"
