#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload batch-week --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write lands in .bench_build/ under the
# current directory: the Go build cache, the binary, scratch state
# directories and result files. The module needs nothing from the network.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd bench && go build -buildvcs=false -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
