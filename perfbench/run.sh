#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload run-abort --seed 7 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the
# binary) goes under $CARGO_TARGET_DIR, default .bench_build, so nothing is
# written outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of the repository, next to its go.mod" >&2
	exit 2
fi

build="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
