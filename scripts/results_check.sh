#!/usr/bin/env bash
# Results check: the committed results/*.txt that the stop rule is read
# off and shows up in must be what the tree produces.
#
#   scripts/results_check.sh
#
# Rebuilds `solver_comparison`, `fig6` and `fig7`, runs each with the
# settings its committed file was made with (the default quick corpus),
# masks the host-time columns — everything else in these files is
# deterministic: iteration counts, PRD, SNR — and diffs against results/.
# A stale file fails the check and prints the command that refreshes it.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(solver_comparison fig6 fig7)

cargo build --release --quiet -p cs-bench "${BINS[@]/#/--bin=}"

# Host times: the `time (ms/pkt)` column of solver_comparison's solver
# table, and every row of a fig7 series whose title says "time".
mask() {
  awk '
    /^$/ { timed = 0 }
    /^# .*solver time per/ { timed = 1 }
    timed && /^ / { printf "%8s  <host time>  %s\n", $1, $NF; next }
    /^(FISTA|ISTA|OMP|AMP) / { sub(/ +[0-9.]+$/, " <ms>") }
    { print }
  '
}

status=0
for bin in "${BINS[@]}"; do
  if diff -u <(mask <"results/$bin.txt") <("target/release/$bin" 2>/dev/null | mask); then
    echo "results_check: results/$bin.txt ok"
  else
    echo "results_check: results/$bin.txt is stale — target/release/$bin > results/$bin.txt" >&2
    status=1
  fi
done
exit "$status"
