#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the repository root; flags
# pass through to the program (see bench/README.md):
#
#   bash bench/run.sh                      # every workload, 30 s each
#   bash bench/run.sh -workload roam -seed 7 -seconds 20 -trace 0
#
# The Go build cache, the binaries and everything the run writes stay
# under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
