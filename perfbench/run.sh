#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload mega-flood --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all      # every workload in turn
#
# mega-dht, held out of BENCHMARK.json, runs the same way.
#
# Every build output stays under .bench_build in the current directory:
# the Go build cache, GOPATH, temporary files, and the go command's own
# config (its local telemetry counters live under XDG_CONFIG_HOME).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
	GOWORK=off GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

workload=""
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload="$2"; shift 2 ;;
	*) args+=("$1"); shift ;;
	esac
done

if [ "$workload" = all ]; then
	for w in mega-flood live-kad sim-paper; do
		echo "== $w"
		"$out/perfbench" --workload "$w" "${args[@]}"
	done
	exit 0
fi
exec "$out/perfbench" --workload "$workload" "${args[@]}"
