#!/usr/bin/env bash
# Builds servebench from this checkout's source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash servebench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and traced runs' span dumps live under
# .bench_build/servebench at the root, so a run reads and writes nothing
# outside the checkout apart from the Go toolchain itself.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build/servebench"
mkdir -p "$out/gocache" "$out/tmp"
PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off
(cd "$here" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
