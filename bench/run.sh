#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g. from the repository root:
#
#   bash bench/run.sh --workload simulate --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under bench/.bench_build/:
# the Go build cache, temporary files and the binary.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$dir/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$dir" && go build -o "$out/bench" .) >&2
exec "$out/bench" --workdir "$out/work" "$@"
