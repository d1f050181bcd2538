#!/usr/bin/env bash
# Build the benchmark once and run it.
#
#   benchmarks/run.sh [-seed N] [-window S] [-only W] [-notrace] [-sets K]
#       every workload, untraced then traced; records, span files and
#       daemon logs land in benchmarks/out/, the summary table on stdout
#   benchmarks/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the driver's JSON object
#   benchmarks/run.sh compare A.json B.json
#   benchmarks/run.sh test
#       the benchmark's own tests (go vet + go test, about 20 s); this
#       module is not part of the root module's go test ./...
#
# Works from any directory. Everything it writes stays inside the
# checkout: the binary and the Go build cache under .bench_build/, results
# under benchmarks/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build" "$here/out"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

if [ "${1:-}" = test ]; then
	cd "$here" && go vet ./... && exec go test ./...
fi

# go build is incremental: after the first build this is a cache check.
(cd "$here" && go build -o "$build/reblocbench" ./cmd/reblocbench)

if [ "${1:-}" = compare ]; then
	shift
	exec "$build/reblocbench" compare -manifest "$root/BENCHMARK.json" "$@"
fi
exec "$build/reblocbench" -manifest "$root/BENCHMARK.json" -out "$here/out" "$@"
