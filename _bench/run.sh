#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree around it and
# runs it with the given arguments. Run from the repository root:
#
#   bash _bench/run.sh --workload closed-credit --seed 46000 --seconds 20 --trace 0
#
# Everything the build and the runs write (Go build cache, binary,
# checkpoint and spans files) goes to .bench_build in the current
# directory. The build reads no network and fails unless the
# repository's own sources sit one level up.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
