#!/usr/bin/env bash
# The `unsafe` kernels under AddressSanitizer.
#
#   scripts/asan_check.sh
#
# `unsafe_check.sh` pins *where* the `unsafe` is; this runs it. The two
# modules that hold it — cs-sensing's gather kernels and cs-dsp's wide
# dispatch — are exercised by their crates' lib tests (the bitwise
# properties against the portable kernels, the three-arm parity of the DWT
# and the adversarial-table property of `BlockedGather::new`), and the
# solve-level arm parity runs the AVX-512 solve loop that cs-dsp's
# `in_arm` instantiates. All of it is built with `-Zsanitizer=address` on
# the nightly toolchain, optimized (the code the arms ship), in a target
# directory of its own so it never mixes with the ordinary build.
#
# What ASan does not cover: a `vgatherdps` is one instruction the
# sanitizer does not instrument, so an out-of-range index in a gather
# table would go unseen here. Those tables are checked entry by entry
# instead (`BlockedGather::check_invariant`, run on every table the
# adversarial property builds) — DESIGN §8 says which check covers what.
#
# Needs `cargo +nightly` (no rust-src or Miri: std itself is not
# instrumented, only this workspace's code). Exits 0 when every test
# passed, non-zero otherwise; with no nightly toolchain it says so and
# exits 2.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo +nightly --version >/dev/null 2>&1; then
  echo "asan_check: no nightly toolchain (cargo +nightly); cannot build with -Zsanitizer=address" >&2
  exit 2
fi

target="$(rustc -vV | sed -n 's/^host: //p')"
export RUSTFLAGS="-Zsanitizer=address"
export RUSTDOCFLAGS="-Zsanitizer=address"
export CARGO_TARGET_DIR="target/asan"
# An explicit --target keeps build scripts and proc macros uninstrumented.
run() { cargo +nightly test --offline --release --target "$target" -q "$@"; }

run -p cs-sensing -p cs-dsp --lib
run -p cs-recovery --lib arm_tests
echo "asan_check: ok (cs-sensing, cs-dsp lib tests and the solve-level arm parity under AddressSanitizer)"
