#!/usr/bin/env bash
# Builds the lock-path benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash lockbench/run.sh --workload oltp-ramp --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (compiler cache, temporary files,
# the binary, the traced run's span files) stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/lockbench" build -o "$out/lockbench" .

sha=unknown
if [ -e "$root/.git" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/lockbench" --sha "$sha" --trace-dir "$out/trace" "$@"
