#!/usr/bin/env bash
# Builds the benchmark and the two served binaries from source into
# .bench_build/ at the checkout root, then runs the benchmark with the
# caller's flags. Everything the build and the run write (Go build cache
# included) stays inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/bin/" . repro/cmd/ektelo-serve repro/cmd/ektelo-router)

exec "$build/bin/bench" -bin "$build/bin" -scratch "$build" -out "$here/out" "$@"
