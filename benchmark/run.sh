#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness with every build
# artefact (Go build cache, temp files, binaries) inside the checkout's
# .bench_build/, then hands over to it. Arguments go to the harness; see
# README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/cmd/passd/main.go" ] || [ ! -f "$root/go.mod" ]; then
  echo "benchmark: $root is not a checkout of the repo (no cmd/passd): nothing to measure" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/harness" .)
exec "$build/bin/harness" -root "$root" "$@"
