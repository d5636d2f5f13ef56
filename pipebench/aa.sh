#!/usr/bin/env bash
# A/A check: two interleaved sets (ABAB…) of N full runs of the same
# build, each run on another seed, as the benchmark's driver makes them.
#
#   pipebench/aa.sh [N] [SECONDS]        N >= 5, default 10; SECONDS
#                                        defaults to BENCHMARK.json's
#
# Prints, per workload x end-to-end metric: both sets' medians, the gap
# between them (positive = the second set is worse), each set's spread
# across seeds (interquartile range over median, by
# statistics.quantiles(n=4)) and the bound from BENCHMARK.json. Exits
# non-zero if any gap or any spread (setup_s's spread excepted, as in the
# driver) exceeds its bound, or if a count that must repeat exactly for a
# given seed does not. The table is what NOISE.md records.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
n="${1:-10}"
if [ "$n" -lt 5 ]; then
    echo "aa.sh: N must be at least 5" >&2
    exit 64
fi
seconds="${2:-$(python3 -c "import json;print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")}"

cd "$root"
cargo build --release --offline --quiet --manifest-path pipebench/Cargo.toml
bin="${CARGO_TARGET_DIR:-pipebench/target}/release/pipebench"

# Results stay inside the build tree, like everything else the
# benchmark writes.
out="$(dirname "$bin")/pipebench-aa.$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT

workloads="$(python3 -c "import json;print(' '.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")"
for workload in $workloads; do
    for seed in $(seq 1 "$n"); do
        for set in A B; do
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 > "$out/$workload.$set.$seed.json"
            echo "ran $workload set $set seed $seed" >&2
        done
    done
    # The exact per-layer counts come from traced runs: one short pair.
    for set in A B; do
        "$bin" --workload "$workload" --seed 1 --seconds 6 --trace 1 \
            | tail -n 1 > "$out/$workload.$set.traced.json"
    done
done

python3 - "$out" "$n" <<'EOF'
import json, statistics, sys
out, n = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
exact = {"payload_bits_per_packet", "prd_pct"}
bad = 0
print(f"| workload | metric | median A | median B | gap B vs A | spread A | spread B | bound |")
print(f"|---|---|---:|---:|---:|---:|---:|---:|")
for w in (w["name"] for w in bench["workloads"]):
    runs = {s: [json.load(open(f"{out}/{w}.{s}.{seed}.json")) for seed in range(1, n + 1)] for s in "AB"}
    for s in "AB":
        for r in runs[s]:
            if not r["correct"] or r["failed"]:
                print(f"aa.sh: {w} set {s}: a run failed its gates", file=sys.stderr)
                bad += 1
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in "AB"}
        med = {s: statistics.median(vals[s]) for s in "AB"}
        def spread(v):
            q = statistics.quantiles(v, n=4)
            return (q[2] - q[0]) / statistics.median(v)
        gap = (med["B"] - med["A"]) / med["A"] * (1 if lower else -1)
        sp = {s: spread(vals[s]) for s in "AB"}
        flags = ""
        if gap > bound:
            flags += " GAP"
        if name != "setup_s" and max(sp.values()) > bound:
            flags += " SPREAD"
        if name in exact and vals["A"] != vals["B"]:
            flags += " NOT-EXACT"
        bad += bool(flags)
        print(f"| {w} | {name} | {med['A']:.6g} | {med['B']:.6g} | {gap:+.2%} | {sp['A']:.2%} | {sp['B']:.2%} | {bound:.0%}{flags} |")
    traced = [json.load(open(f"{out}/{w}.{s}.traced.json"))["metrics"] for s in "AB"]
    for name in ("recovery.iterations_per_packet", "codec.bits_per_symbol", "clinical.beats_per_packet"):
        a, b = (t[name]["value"] for t in traced)
        same = "" if a == b else " NOT-EXACT"
        bad += bool(same)
        print(f"| {w} | {name} | {a:.6g} | {b:.6g} | exact | | | 0%{same} |")
sys.exit(1 if bad else 0)
EOF
