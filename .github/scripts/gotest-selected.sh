#!/usr/bin/env bash
# Usage: gotest-selected.sh [go test flags...] -run PATTERN PKG...
#
# Runs go test and fails when the -run pattern selects no test in any
# listed package, so renaming a test cannot silently empty a CI filter.
set -eo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test "$@" 2>&1 | tee "$out"
if grep -q 'no tests to run' "$out"; then
  echo "::error::a -run filter selected no tests in at least one listed package" >&2
  exit 1
fi
