#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the arguments
# given, for example:
#
#   bash perfbench/run.sh --workload suite_sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build
# cache and trace spans stay under .bench_build/ in that directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

# The benchmark imports the program's packages from the checkout root; a
# directory without them fails here, before anything is measured.
test -f "$root/go.mod" || { echo "perfbench: no go.mod in $root" >&2; exit 1; }
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" --spans-dir "$out/spans" "$@"
