#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a change lands.
#
#   scripts/tier1.sh
#
# Release build (the benches and report binaries only make sense
# optimized), the full test suite (the root manifest's `default-members`
# make the plain `cargo build` / `cargo test` cover every crate, not just
# the umbrella package), clippy with warnings denied, the
# steady-state zero-allocation guarantee under the optimizer, the
# committed results regenerated, short live-telemetry, chaos, crash,
# ingest and clinical smokes, and last an advisory quick benchmark
# snapshot (exercises the parse + report plumbing, not the committed
# numbers).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace -- -D warnings

# Intra-doc links are the only check that a renamed or deleted item is
# gone from the prose too.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# `unsafe` stays where it is: two modules hold all of it (the AVX2 gather
# kernels of cs-sensing, the wide DWT and solve dispatch of cs-dsp), every
# occurrence sits under a `// SAFETY:` comment, and every other crate root
# still forbids it outright.
scripts/unsafe_check.sh

# Non-test lines per crate and in total, printed for the reader and never
# a gate: the figure a deletion reports against its parent
# (`scripts/loc.sh DIR` counts another checkout).
scripts/loc.sh

# The same two modules under AddressSanitizer. It needs the nightly
# toolchain; where there is none, say so and go on (CI runs it nightly).
if cargo +nightly --version >/dev/null 2>&1; then
  scripts/asan_check.sh
else
  echo "tier1: skipping asan_check.sh: no nightly toolchain (cargo +nightly) to build -Zsanitizer=address with" >&2
fi

# The zero-alloc tests run in the debug suite above too, but the claim
# that matters is about the optimized decoder, so pin them in release —
# the plain steady state and the prior-driven (group-prox) one.
cargo test -q --release -p cs-core --test zero_alloc
cargo test -q --release -p cs-core --test zero_alloc_prior

# The ingest transport path makes the same claim one layer down: after
# session setup, deframe + validate + control encode allocate nothing,
# and the decode-queue handoff costs exactly one buffer per frame.
cargo test -q --release -p cs-ingest --test zero_alloc_ingest

# The clinical crate under the optimizer: the detector's bit-exact
# band-pass and split parity, the primary-lead and alarm-model
# properties, and the zero-allocation analysis path.
cargo test -q --release -p cs-clinical

# Prior-driven solver guarantees under the optimizer: the block prior
# holds PRD against plain ℓ1 at fewer iterations (the test decodes both
# with the decoder-level warm start, which no production path enables).
cargo test -q --release --test solver_priors

# Bit-exactness under the optimizer: the golden decode digest (production
# and `SolverPolicy::paper()`), the production schedule against the
# paper's, and the across-output DWT and blocked-gather kernels against
# their per-output oracles. Reassociation-style regressions only show up
# in release codegen — and so does anything wrong with the `unsafe` AVX2
# gathers or the wide DWT instantiation, hence those crates' own suites;
# the lane reductions and the fused iteration tail of cs-recovery differ
# from their oracles *only* under the optimizer, hence its.
cargo test -q --release --test numerical_equivalence
# The wire decode core against a seeded fault schedule, with no threads:
# every frame and window accounted for, each lane in wire order, and
# run_fleet at one and two workers emitting the bare core's windows.
cargo test -q --release --test wire_core
# The fleet engine under the optimizer, where thread timing differs: the
# golden `Leads` digests, per-stream order under backpressure, and
# teardown without deadlock after a sink failure or a consumer's panic.
cargo test -q --release --test fleet_engine
cargo test -q --release -p cs-dsp -p cs-sensing -p cs-recovery

# Every committed results/*.txt is what this tree produces, outside the
# bracketed host-time figures, and EXPERIMENTS.md cites files that exist
# (all 14 binaries, under a minute).
scripts/results_check.sh

# The coordinator's wall-clock gate (in-budget iterations > the paper's
# 2000) only means something for optimized code; the debug suite above
# skips that one clause.
cargo test -q --release --test platform_reports

# The end-to-end benchmark is a package of its own (own lock file and
# target directory) that compiles against these crates from outside, so
# nothing above builds it: a signature change it depends on would
# otherwise surface only in the benchmark driver. `--smoke` runs all four
# workloads, three passes each, with their correctness gates (~12 s).
cargo run --release --offline --manifest-path pipebench/Cargo.toml -- --smoke

# Telemetry smoke: one tiny fleet (~2 s of signal) with the live
# registry and both exporters; fails if the scrape comes out empty.
# (Captured first: grep -q on a pipe would SIGPIPE the report binary.)
smoke="$(target/release/fleet_report --records 1 --seconds 2 --telemetry)"
grep -q 'cs_stage_latency_ns_bucket{stage="fista_solve"' <<<"$smoke"
grep -q 'cs_fault_total{kind="concealed_loss"' <<<"$smoke"

# HTTP serve smoke: the same short run behind the live /metrics
# endpoint. The report announces its ephemeral port on stdout before
# decoding and parks after the report, so scrape it over real TCP with
# a hard timeout, then kill the parked process.
serve_log="$(mktemp)"
target/release/fleet_report --records 1 --seconds 2 --serve 127.0.0.1:0 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log"' EXIT
for _ in $(seq 50); do
  grep -q '^serving http://' "$serve_log" && break
  kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log" >&2; exit 1; }
  sleep 0.2
done
serve_addr="$(sed -n 's|^serving http://\([^/]*\)/metrics.*|\1|p' "$serve_log" | head -1)"
[[ -n "$serve_addr" ]] || { echo "tier1: fleet_report --serve never announced its port" >&2; cat "$serve_log" >&2; exit 1; }
# The e2e gauges only populate once the traced run has emitted packets;
# poll until the decode finishes (bounded by the loop, 5 s per scrape).
for i in $(seq 60); do
  scrape="$(curl -sS --max-time 5 "http://$serve_addr/metrics")"
  grep -q 'cs_e2e_latency_seconds_bucket{patient="0"' <<<"$scrape" && break
  [[ "$i" == 60 ]] && { echo "tier1: /metrics never showed e2e latency rows" >&2; exit 1; }
  sleep 0.5
done
grep -q 'cs_patient_health{patient="0",state="healthy"} 1' <<<"$scrape"
grep -q 'cs_slo_burn_rate{patient="0",window="fast"' <<<"$scrape"
grep -q 'cs_lane_freshness_seconds{patient="0"' <<<"$scrape"
health="$(curl -sS --max-time 5 -o /dev/null -w '%{http_code}' "http://$serve_addr/healthz")"
[[ "$health" == 200 ]] || { echo "tier1: /healthz returned $health for a healthy run" >&2; exit 1; }
kill "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f "$serve_log"

# Chaos smoke: a short seeded soak of the lossy-wire fleet (the 60 s
# profile runs out of band; see scripts/chaos.sh).
CHAOS_SECONDS="${CHAOS_SECONDS:-5}" scripts/chaos.sh

# Crash-recovery smoke: SIGKILL the archive writer mid-append and
# require a lossless recovery scan (the 8-round profile runs out of
# band; see scripts/archive_crash.sh).
CRASH_ROUNDS="${CRASH_ROUNDS:-2}" scripts/archive_crash.sh

# Ingest smoke: a 200-mote swarm through the socket service, clean and
# behind the chaos proxy, with every lifecycle invariant checked (the
# 1000-mote profile runs out of band; see scripts/ingest_soak.sh).
SWARM_MOTES="${SWARM_MOTES:-200}" scripts/ingest_soak.sh

# Clinical smoke: the short-profile arrhythmia soak — detection accuracy
# on reconstructed signals, alarm latency, adaptive-CR escalation and
# the false-alarm controls (the full profile runs out of band; see
# scripts/arrhythmia_soak.sh).
SOAK_SHORT=1 scripts/arrhythmia_soak.sh

# Bench table, last and advisory (as CI's `bench-check` job is): the quick
# snapshot's per-row min_ns deltas against the committed BENCH_decode.json
# are printed for the reader and never change the exit status — on a
# shared host the multi-thread rows trip the script's fail band on an
# untouched tree. Timing is judged by the pipebench A/B, not here.
scripts/bench_check.sh || echo "tier1: bench_check.sh flagged a row (advisory, not a failure)" >&2

# The quick snapshot doubles as a bench smoke, and this part is a gate:
# fail if the ingest bench stopped producing rows (a silent rename would
# otherwise leave the committed baseline comparing against nothing).
grep -q '"ingest_throughput/deframe/1400B"' target/BENCH_decode_quick.json
