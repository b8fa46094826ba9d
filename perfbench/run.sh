#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run from the
# repository root, e.g.
#
#   bash perfbench/run.sh --workload fig7-tight --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files,
# telemetry) stays under
# .bench_build in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
