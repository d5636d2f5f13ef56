#!/usr/bin/env bash
# Results check: every committed results/*.txt is what the tree produces.
#
#   scripts/results_check.sh
#
# Rebuilds the binary behind each results/<name>.txt, runs it with the
# settings the committed file was made with (the default quick corpus)
# and diffs. Figures that depend on the host — wall-clock times and what
# is derived from them — are printed through `cs_bench::host`, in square
# brackets, and masked here by one rule; everything outside brackets is
# deterministic and compared byte for byte. A stale file fails the check
# and prints the command that refreshes it.
#
# EXPERIMENTS.md is held to the same files: every results/<name>.txt it
# cites must exist, and every results binary must have a section citing
# its file.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=()
for file in results/*.txt; do
  bin="$(basename "$file" .txt)"
  [[ -f "crates/bench/src/bin/$bin.rs" ]] || { echo "results_check: $file has no binary" >&2; exit 1; }
  BINS+=("$bin")
done

cargo build --release --quiet -p cs-bench "${BINS[@]/#/--bin=}"

mask() { sed -E 's/ *\[[^]]*\]/ [host]/g'; }

status=0
for bin in "${BINS[@]}"; do
  if diff -u <(mask <"results/$bin.txt") <("target/release/$bin" 2>/dev/null | mask); then
    echo "results_check: results/$bin.txt ok"
  else
    echo "results_check: results/$bin.txt is stale — target/release/$bin > results/$bin.txt" >&2
    status=1
  fi
  grep -q "results/$bin\.txt" EXPERIMENTS.md || {
    echo "results_check: EXPERIMENTS.md has no section citing results/$bin.txt" >&2
    status=1
  }
done
for cited in $(grep -o 'results/[a-z0-9_]*\.txt' EXPERIMENTS.md | sort -u); do
  [[ -f "$cited" ]] || { echo "results_check: EXPERIMENTS.md cites $cited, which does not exist" >&2; status=1; }
done
exit "$status"
