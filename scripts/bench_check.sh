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

# ── Fleet solver gate: what the production schedule earns.
#
# The committed (full) baseline must uphold two invariants: the
# production schedule (gradient restart + λ-continuation) decodes the cold
# fleet in ≤ 60 % of the mean iterations of the paper's verbatim schedule
# at equal PRD (≤ +0.05 pp), and the block prior solves in fewer mean
# iterations than the plain cold fleet at equal-or-better PRD
# (≤ +0.5 pp). Both are checked *within* the baseline document, so they
# never wobble with host noise. The quick run's iteration means are
# compared against the baseline only advisorily (quick uses a smaller
# corpus, so the workload itself shifts); a gross drift past the generous
# band warns.
ITER_DRIFT_PCT = 40.0
solver_failures = []
base_fleet = baseline_doc.get("fleet_report", {})
cur_fleet = current_doc.get("fleet_report", {})

def fleet(*fields):
    values = [base_fleet.get(f) for f in fields]
    if any(v is None for v in values):
        solver_failures.append(
            f"baseline fleet_report lacks {' / '.join(fields)} — "
            "refresh with scripts/bench_snapshot.sh")
        return None
    return values

if (v := fleet("cold_mean_iterations", "paper_mean_iterations",
               "cold_prd_percent", "paper_prd_percent")):
    cold_it, paper_it, cold_prd, paper_prd = v
    if cold_it > 0.6 * paper_it:
        solver_failures.append(
            f"baseline cold mean iterations {cold_it} > 60 % of the paper schedule's {paper_it}")
    if cold_prd > paper_prd + 0.05:
        solver_failures.append(
            f"baseline cold PRD {cold_prd} % worse than the paper schedule's {paper_prd} % by > 0.05 pp")
if (v := fleet("block_mean_iterations", "cold_mean_iterations",
               "block_prd_percent", "cold_prd_percent")):
    block_it, cold_it, block_prd, cold_prd = v
    if block_it >= cold_it:
        solver_failures.append(
            f"baseline block mean iterations {block_it} not below cold {cold_it}")
    if block_prd > cold_prd + 0.5:
        solver_failures.append(
            f"baseline block PRD {block_prd} % worse than cold {cold_prd} % by > 0.5 pp")

print("\nbench_check: fleet solver iterations "
      f"(advisory drift band ±{ITER_DRIFT_PCT:.0f} %; baseline invariant is hard)")
for field in ("cold_mean_iterations", "block_mean_iterations", "paper_mean_iterations"):
    b, c = base_fleet.get(field), cur_fleet.get(field)
    if b is None or c is None:
        print(f"  {field:<26} baseline={b} current={c}  (incomparable)")
        continue
    delta = (c - b) / b * 100.0 if b else 0.0
    note = "ok" if abs(delta) <= ITER_DRIFT_PCT else "warn (smaller quick corpus shifts the workload)"
    print(f"  {field:<26} {b:>8.1f} -> {c:>8.1f}  {delta:+6.1f}%  {note}")
cc, cp = cur_fleet.get("cold_mean_iterations"), cur_fleet.get("paper_mean_iterations")
if cc is not None and cp is not None and cc > 0.6 * cp:
    print(f"  note: current quick run cold {cc} > 60 % of the paper schedule's {cp} "
          "(advisory; the gate reads the committed baseline)")

if solver_failures:
    print(f"\nbench_check: {len(solver_failures)} fleet solver gate failure(s):")
    for msg in solver_failures:
        print(f"  {msg}")
    sys.exit(1)

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
