#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a change lands.
#
#   scripts/tier1.sh
#
# Release build (the report binaries only make sense optimized), the
# full test suite (the root manifest's `default-members` make the plain
# `cargo build` / `cargo test` cover every crate, not just the umbrella
# package), clippy with warnings denied on every target (tests, examples
# and the one bench, `telemetry_overhead`, compiled here and never run),
# the steady-state zero-allocation guarantee under the optimizer, the
# committed results regenerated and the end-to-end benchmark's smoke
# pass. Timing is judged by `pipebench` alone. The shipped daemon is
# checked by `crates/ingest/tests/daemon.rs`,
# which runs `cs-ingestd` itself — its `/metrics`, `/healthz` and archive,
# which `archive_replay` must decode whole, and a `mote_swarm` soak clean
# and through a chaos proxy — in the suite and again under the optimizer,
# and archive crash recovery by `crates/archive/tests/crash_recovery.rs`,
# which SIGKILLs a writer mid-append, likewise. CI runs this script as
# its one gate, plus a nightly AddressSanitizer job.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

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
# The release daemon as it ships: streamed to, scraped, drained, archived,
# and soaked by a 200-mote `mote_swarm`, clean and behind the chaos proxy,
# with the books checked from outside the process.
cargo test -q --release -p cs-ingest --test daemon

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

# Crash recovery under the optimizer, where the writer appends fastest:
# eight rounds of SIGKILLing a writer mid-append, each followed by a
# read-only scan that must find every completed record, byte for byte.
cargo test -q --release -p cs-archive --test crash_recovery

# The one-patient system simulation and the fleet under a hostile wire,
# under the optimizer: detection accuracy and alarm latency on signals
# decoded through WireCore, the false-alarm controls, and the fleet's
# accounting, ordering, supervision and lossless archive tap.
cargo test -q --release --test system_sim --test failure_injection
