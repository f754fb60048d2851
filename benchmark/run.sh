#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build writes (the binary, Go's build cache, temp files)
# stays under .bench_build/ in the checkout; nothing is read from or written
# to $HOME.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

(
  cd "$here"
  HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
  GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off \
    go build -o "$build/slfe-benchmark" .
) >&2

cd "$root"
TMPDIR="$build/tmp" exec "$build/slfe-benchmark" "$@"
