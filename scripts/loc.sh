#!/usr/bin/env bash
# Non-test line counts, per crate and in total.
#
#   scripts/loc.sh          # this checkout
#   scripts/loc.sh DIR      # another checkout, e.g. a parent commit's
#
# A file's non-test lines are the lines before its first column-0
# `#[cfg(test)]` (all of them when it has none), summed over
# `crates/*/src`, `crates/bench/benches`, `src/` and `examples/`. The
# integration tests under `tests/` and `crates/*/tests` are not counted.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# Non-test lines of every `.rs` file under the given directories.
count() {
  find "$@" -name '*.rs' -exec awk '
    FNR == 1 { live = 1 }
    /^#\[cfg\(test\)\]/ { live = 0 }
    live { n++ }
    END { print n + 0 }
  ' {} + | awk '{ n += $1 } END { print n + 0 }'
}

total=0
row() {
  printf '%-12s %7d\n' "$1" "$2"
  total=$((total + $2))
}
for crate in crates/*/; do
  name="$(basename "$crate")"
  dirs=("${crate}src")
  [[ -d "${crate}benches" ]] && dirs+=("${crate}benches")
  row "$name" "$(count "${dirs[@]}")"
done
row src "$(count src)"
row examples "$(count examples)"
printf '%-12s %7d\n' total "$total"
