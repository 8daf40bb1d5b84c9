#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root. Arguments pass through, e.g.
#   bash perfbench/run.sh --workload attack --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache and the go command's own state stay
# under .bench_build/ (or $CARGO_TARGET_DIR).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
