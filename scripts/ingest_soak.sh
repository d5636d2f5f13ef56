#!/usr/bin/env bash
# Ingest gate: the socket-fed service must survive a hostile TCP path
# at swarm scale, with the books balanced.
#
#   scripts/ingest_soak.sh                 # 1000 motes (run by hand; no CI job does)
#   SWARM_MOTES=200 scripts/ingest_soak.sh # the profile tier1.sh and CI's ingest-soak job run
#
# Runs mote_swarm twice — once clean (admission shedding and graceful
# drain under a straight loopback), once through the seeded TcpChaosProxy
# (RST-style aborts, stalls, single-byte writes, truncated closes, bit
# flips) — under coreutils `timeout`, so every failure mode turns into a
# non-zero exit:
#
#   * a lifecycle invariant violation — accounting leak, double emission
#     after resume, leaked session gauge, /healthz stuck — (exit 1),
#   * a panic in the listener, a session thread, or the engine (abort),
#   * a deadlock or livelock (timeout kills it, exit 124).
#
# The soak is deterministic per seed on the chaos side; a failure
# reproduces locally with the same --seed.
set -euo pipefail
cd "$(dirname "$0")/.."

MOTES="${SWARM_MOTES:-1000}"
FRAMES="${SWARM_FRAMES:-6}"
SEED="${SWARM_SEED:-7}"
# Each mote has a 120 s wall-clock budget but the swarm runs them over a
# bounded pool; the hard limit is a hang detector, not a pace-setter.
HARD_LIMIT="${SWARM_HARD_LIMIT:-600}"

cargo build --release -q -p cs-bench --bin mote_swarm

echo "== ingest soak: clean, ${MOTES} motes =="
timeout --signal=KILL "${HARD_LIMIT}s" \
    target/release/mote_swarm \
    --motes "$MOTES" --frames "$FRAMES" --seed "$SEED"

echo "== ingest soak: chaos proxy, ${MOTES} motes =="
timeout --signal=KILL "${HARD_LIMIT}s" \
    target/release/mote_swarm \
    --motes "$MOTES" --frames "$FRAMES" --seed "$SEED" --chaos
