#!/usr/bin/env bash
# Build upcxx-perf from this checkout and run it with the given flags:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh            # whole suite; see benchmark/README.md
#
# Everything the build and the run leave behind (binary, Go build cache,
# temporary files, the shared-memory files of the hier conduit) stays in
# .bench_build/ at the root of the checkout. The build is repeated on
# every call; after the first it is a cache hit of well under a second.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -C "$here" -o "$build/upcxx-perf" ./cmd/upcxx-perf >&2
exec "$build/upcxx-perf" "$@"
