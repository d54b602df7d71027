#!/usr/bin/env bash
# Builds vrsim's benchmark and vrbench from this checkout, then runs the
# benchmark with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload hpcdb-core --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh -regen perfbench/testdata
#
# Everything it writes, Go's build cache included, stays under the build
# directory: $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR" "$build/bin"
(cd "$here" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/vrbench" vrsim/cmd/vrbench) >&2
exec "$build/bin/perfbench" -build "$build" -vrbench "$build/bin/vrbench" "$@"
