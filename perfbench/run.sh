#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it, e.g.
#   bash perfbench/run.sh --workload replay-grid --seed 3 --seconds 12 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/home"
# The toolchain keeps its caches and settings under HOME; point it into
# the checkout so the build writes nothing outside it.
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off \
	go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
