#!/usr/bin/env bash
# Bench regression gate: compare a fresh quick snapshot against the
# committed baseline.
#
#   scripts/bench_check.sh                 # runs bench_snapshot.sh --quick, then compares
#   scripts/bench_check.sh --no-run        # compare an existing target/BENCH_decode_quick.json
#
# Compares `min_ns` per bench row (the statistic BENCH_decode.json's own
# note says to compare across commits; median/mean absorb scheduler
# steal on shared hosts) and prints a per-row delta table.
#
# Tunables:
#   BENCH_CHECK_TOLERANCE_PCT  warn threshold, default 20 (±20 %)
#   BENCH_CHECK_HARD_PCT       fail threshold, default 40 — non-zero exit
#                              only on a *regression* (slowdown) past it;
#                              speedups never fail, they just suggest the
#                              baseline wants refreshing.
#
# The gate is advisory by design, and the fail band is deliberately wide:
# the committed baseline's min is taken over ~10⁴ samples (4 s windows)
# and so sits near the true floor, while a quick run's min over a few
# hundred samples lands 10–30 % above that floor on a noisy host — a
# structural bias of min-of-N, not a regression. The gate exists to catch
# gross slowdowns (accidental debug codegen, complexity blowups), which
# clear 40 % comfortably. Refresh the baseline with
# `scripts/bench_snapshot.sh` (full) when a change legitimately moves the
# numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_decode.json
CURRENT=target/BENCH_decode_quick.json

if [[ "${1:-}" != "--no-run" ]]; then
  scripts/bench_snapshot.sh --quick
fi

[[ -f "$BASELINE" ]] || { echo "bench_check: missing $BASELINE" >&2; exit 2; }
[[ -f "$CURRENT"  ]] || { echo "bench_check: missing $CURRENT (run scripts/bench_snapshot.sh --quick)" >&2; exit 2; }

BENCH_CHECK_TOLERANCE_PCT="${BENCH_CHECK_TOLERANCE_PCT:-20}" \
BENCH_CHECK_HARD_PCT="${BENCH_CHECK_HARD_PCT:-40}" \
python3 - "$BASELINE" "$CURRENT" <<'PY'
import json, os, sys

baseline_path, current_path = sys.argv[1], sys.argv[2]
warn_pct = float(os.environ["BENCH_CHECK_TOLERANCE_PCT"])
hard_pct = float(os.environ["BENCH_CHECK_HARD_PCT"])

with open(baseline_path) as f:
    baseline_doc = json.load(f)
with open(current_path) as f:
    current_doc = json.load(f)
baseline = baseline_doc["benches"]
current = current_doc["benches"]

def fmt_ns(ns):
    if ns >= 1e6:
        return f"{ns / 1e6:9.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:9.2f} µs"
    return f"{ns:9.0f} ns"

rows, missing, regressions, drifts = [], [], [], []
for name, base in sorted(baseline.items()):
    cur = current.get(name)
    if cur is None:
        missing.append(name)
        continue
    base_ns, cur_ns = base["min_ns"], cur["min_ns"]
    delta = (cur_ns - base_ns) / base_ns * 100.0
    if delta > hard_pct:
        verdict = "FAIL"
        regressions.append((name, delta))
    elif abs(delta) > warn_pct:
        verdict = "warn"
        drifts.append((name, delta))
    else:
        verdict = "ok"
    rows.append((name, base_ns, cur_ns, delta, verdict))

new_rows = sorted(set(current) - set(baseline))

width = max((len(r[0]) for r in rows), default=20)
print(f"bench_check: min_ns vs {baseline_path} "
      f"(warn ±{warn_pct:.0f} %, fail >{hard_pct:.0f} % regression)")
print(f"{'bench':<{width}}  {'baseline':>12}  {'current':>12}  {'delta':>8}  verdict")
for name, base_ns, cur_ns, delta, verdict in rows:
    print(f"{name:<{width}}  {fmt_ns(base_ns)}  {fmt_ns(cur_ns)}  {delta:+7.1f}%  {verdict}")
for name in missing:
    print(f"{name:<{width}}  {'—':>12}  {'—':>12}  {'—':>8}  MISSING from current run")
for name in new_rows:
    print(f"{name:<{width}}  {'—':>12}  {fmt_ns(current[name]['min_ns'])}  {'new':>8}  not in baseline")

if drifts:
    print(f"\nbench_check: {len(drifts)} row(s) drifted past ±{warn_pct:.0f} % (advisory)")
if missing:
    print(f"\nbench_check: {len(missing)} baseline row(s) missing — "
          "a silent bench rename leaves the baseline comparing nothing")
    sys.exit(1)
if regressions:
    print(f"\nbench_check: {len(regressions)} regression(s) past {hard_pct:.0f} %:")
    for name, delta in regressions:
        print(f"  {name}: {delta:+.1f}%")
    sys.exit(1)
print("\nbench_check: ok")
PY
