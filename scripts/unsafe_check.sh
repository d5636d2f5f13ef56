#!/usr/bin/env bash
# Where `unsafe` may live, checked over the library sources (the crates'
# `src/` trees and the umbrella `src/`; test-only counting allocators
# under `tests/` are out of scope):
#
#   * the word occurs as code in exactly two files — the AVX2 gather
#     kernels of cs-sensing and the wide DWT and solve dispatch of cs-dsp;
#   * every occurrence there is preceded, within the few lines above it
#     (attributes and the comment's own continuation lines allowed), by a
#     `// SAFETY:` comment — a declaration `unsafe fn` by `# Safety` docs
#     or a SAFETY comment;
#   * every other crate root still carries `#![forbid(unsafe_code)]`, and
#     the two exceptions `#![deny(unsafe_code)]`.
set -euo pipefail
cd "$(dirname "$0")/.."

allowed=(crates/sensing/src/blocked.rs crates/dsp/src/wavelet/dispatch.rs)
deny_roots=(crates/sensing/src/lib.rs crates/dsp/src/lib.rs)
fail=0

# Code occurrences: drop comment lines and the lint attributes that name
# the lint rather than use the keyword.
hits="$(grep -rnw --include='*.rs' 'unsafe' crates/*/src src \
  | grep -Ev '^[^:]+:[0-9]+:\s*//' \
  | grep -Ev 'unsafe_code' || true)"
while IFS= read -r hit; do
  [[ -z "$hit" ]] && continue
  file="${hit%%:*}"
  rest="${hit#*:}"
  line="${rest%%:*}"
  ok=0
  for a in "${allowed[@]}"; do [[ "$file" == "$a" ]] && ok=1; done
  if [[ $ok -eq 0 ]]; then
    echo "unsafe_check: \`unsafe\` outside the two allowed modules: $hit" >&2
    fail=1
    continue
  fi
  from=$(( line > 8 ? line - 8 : 1 ))
  if ! sed -n "${from},$(( line - 1 ))p" "$file" | grep -Eq '// SAFETY:|/// # Safety'; then
    echo "unsafe_check: no \`// SAFETY:\` comment above $file:$line" >&2
    fail=1
  fi
done <<<"$hits"

for root in crates/*/src/lib.rs src/lib.rs; do
  want='#![forbid(unsafe_code)]'
  for d in "${deny_roots[@]}"; do [[ "$root" == "$d" ]] && want='#![deny(unsafe_code)]'; done
  if ! grep -qF "$want" "$root"; then
    echo "unsafe_check: $root lacks $want" >&2
    fail=1
  fi
done

[[ $fail -eq 0 ]] && echo "unsafe_check: ok (unsafe confined to ${allowed[*]})"
exit $fail
