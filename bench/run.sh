#!/usr/bin/env bash
# Builds thermbench and thermservd from this checkout, then runs
# thermbench with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Build caches, binaries, results and scratch data all stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/thermservd || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod, cmd/thermservd and bench/ not found)" >&2
	exit 2
fi

root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bin/thermservd" ./cmd/thermservd
(cd bench && go build -o "$build/bin/thermbench" ./cmd/thermbench)
exec "$build/bin/thermbench" -root "$root" -servd "$build/bin/thermservd" -out "$build/out" "$@"
