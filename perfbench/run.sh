#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload ur-low --seed 1 --seconds 20 --trace 0
# Everything the build writes (Go build cache, temporary files, the
# binary) and the scratch data of a run stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found here)" >&2
	exit 2
fi

mkdir -p .bench_build/gocache .bench_build/tmp .bench_build/config .bench_build/gopath
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
