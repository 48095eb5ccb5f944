#!/usr/bin/env bash
# Builds the benchmark and the daemon it measures, then runs the
# benchmark with the arguments given. Run it from the repository root:
#
#   bash bench/run.sh                                  every workload, timed and traced
#   bash bench/run.sh --workload doall_hot --seed 3 --seconds 10 --trace 0
#
# Everything it writes stays inside the checkout: binaries and the Go
# build cache under .bench_build/, spans under bench/out/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOWORK=off GOTOOLCHAIN=local

start=$(date +%s%N)
(
	cd "$here"
	go build -o "$build/spicebench" .
	go build -o "$build/spiced" spice/cmd/spiced
)
ms=$((($(date +%s%N) - start) / 1000000))
echo "# build_s $((ms / 1000)).$(printf '%03d' $((ms % 1000))) (depends on the build cache; not a metric)"

exec "$build/spicebench" -spiced "$build/spiced" -outdir "$here/out" "$@"
