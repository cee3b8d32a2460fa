#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <study|service|recover> --seed <n> --seconds <s> --trace <0|1>
#
# or every workload in turn, printing every metric of each:
#
#   bash perfbench/run.sh --all --seed <n> --seconds <s> --trace 1
#
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binary, checkpoints, traces) stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/perfbench" .
if [ "${1:-}" = "--all" ]; then
	shift
	for w in study service recover; do
		"$out/perfbench" -out "$out/perfbench-run" --workload "$w" "$@"
	done
	exit 0
fi
exec "$out/perfbench" -out "$out/perfbench-run" "$@"
