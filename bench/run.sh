#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Every file the build and the run write stays
# inside the checkout: the Go build cache, its temporary directory and the
# binary live under .bench_build/, traces and reports under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command keeps its env file and telemetry counters in the user's
# config directory; point that inside the checkout as well.
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
# No VCS stamping: a checkout need not be a git repository, and one that sits
# inside somebody else's must not fail the build. The commit is best effort.
(cd "$here" && go build -buildvcs=false -o "$build/netlock-bench" .)
BENCH_COMMIT="${BENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export BENCH_COMMIT
cd "$root"
exec "$build/netlock-bench" "$@"
