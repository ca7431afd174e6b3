#!/usr/bin/env bash
# Builds the benchmark of record from the sources of this checkout and
# runs it with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload bank-durable --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, database
# directories, span files) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout. The build fails, and the script
# exits non-zero without printing a result, when the engine sources
# are not beside perfbench/.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOMODCACHE=$build/modcache GOTMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -data "$build/data" "$@"
