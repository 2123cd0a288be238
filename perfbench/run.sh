#!/usr/bin/env bash
# Builds pxqld and the load generator from this checkout, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload jobs-explain --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: binaries, the Go build cache, generated logs, traces and
# result records.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/pxqld" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a perfxplain checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOWORK=off

go build -o "$out/bin/pxqld" ./cmd/pxqld >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
