#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the repository.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
