#!/usr/bin/env bash
# Runs one name-filtered integration test binary and fails unless the
# filter selected at least one test that passed.
#
#   bash .github/scripts/filtered-test.sh <test-binary> <name-filter>
#
# `cargo test` reports "test result: ok. 0 passed" when a filter matches
# nothing, so a renamed test would otherwise drop out of a CI loop
# without a trace.
set -euo pipefail

log="$(mktemp)"
trap 'rm -f "$log"' EXIT
cargo test --release --test "$1" "$2" -- --nocapture | tee "$log"
if ! grep -Eq '^test result: ok\. [1-9]' "$log"; then
    echo "no test in $1 matches '$2'" >&2
    exit 1
fi
