#!/usr/bin/env bash
# Runs `cargo test <args> -- <names>` after checking that every name matches
# at least one test: cargo treats a name as a substring filter, and a filter
# that matches nothing passes with zero tests run.
#
#   .github/run-named-tests.sh -p mbi-core --lib -- v12_bytes_are_pinned tier::
set -euo pipefail
args=()
while [[ $# -gt 0 && $1 != -- ]]; do
  args+=("$1")
  shift
done
shift
listed=$(cargo test "${args[@]}" -- --list | grep -F ': test')
for name in "$@"; do
  if ! grep -qF -- "$name" <<<"$listed"; then
    echo "no test matches '$name' in cargo test ${args[*]}" >&2
    exit 1
  fi
done
cargo test "${args[@]}" -- "$@"
