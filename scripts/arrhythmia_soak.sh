#!/usr/bin/env bash
# Clinical gate: the streaming arrhythmia pipeline must hold its
# accuracy and alarm SLOs on *reconstructed* signals, not pristine ones.
#
#   scripts/arrhythmia_soak.sh                  # full profile (nightly)
#   SOAK_SHORT=1 scripts/arrhythmia_soak.sh     # short CI profile
#
# Runs the seeded arrhythmia_soak harness. Every record is encoded,
# framed and decoded by a bare WireCore, the shipped decode path; a
# dropped window is a frame never pushed. Four phases, every failure an
# Err and a non-zero exit:
#
#   1. detection accuracy: >= 95 % QRS sensitivity and PPV against the
#      synthesizer's beat annotations, after decode, across CR 50-75 %,
#   2. the same floor under seeded wire chaos (dropped windows the core
#      conceals) at CR 2:1,
#   3. alarm latency: tachy / brady / PVC-run episodes must alarm within
#      10 s of annotated onset, never before it, and every alarm must
#      be clear by the end of the record,
#   4. false-alarm control: a clean sinus record raises nothing, clean
#      or behind the chaos profile (concealment-aware suppression).
#
# Deterministic per seed; a failure reproduces locally with --seed.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SOAK_SEED:-2024}"
HARD_LIMIT="${SOAK_HARD_LIMIT:-300}"
ARGS=(--seed "$SEED")
[[ -n "${SOAK_SHORT:-}" ]] && ARGS+=(--short)

cargo build --release -q -p cs-bench --bin arrhythmia_soak

echo "== arrhythmia soak: seed ${SEED}${SOAK_SHORT:+, short profile} =="
timeout --signal=KILL "${HARD_LIMIT}s" \
    target/release/arrhythmia_soak "${ARGS[@]}"
