#!/usr/bin/env bash
# Run `cargo test` with the given arguments and fail if no test ran.
#
# `cargo test ... <filter>` exits 0 when the filter matches no test, so
# a renamed test would silently turn a by-name CI step into a no-op.
# This wrapper sums the "N passed" counts of every test binary cargo
# ran and fails when the total is zero.
#
# Usage: .github/test-by-name.sh --test differential driver_grid -- --nocapture
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
passed=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log")
if [ "$passed" -eq 0 ]; then
  echo "cargo test $* ran no tests: the filter matches nothing" >&2
  exit 1
fi
echo "cargo test $* ran $passed test(s)"
