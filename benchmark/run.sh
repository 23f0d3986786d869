#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (Go build cache included) stays under
# .bench_build/ at the root of the checkout; reports go to .bench_out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
# The go command keeps per-user state (telemetry counters, go env -w) under
# the home directory; give it one inside the checkout for the build.
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go -C "$here" build -o "$build/blemesh-benchmark" .
cd "$root"
exec "$build/blemesh-benchmark" "$@"
