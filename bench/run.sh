#!/usr/bin/env bash
# run.sh - build esbench inside the checkout and run one benchmark pass.
#
# Usage, from the root of the checkout:
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Every build product, cache and temporary file stays under .bench_build
# in the checkout.  --trace 1 makes the run a traced one: esbench prints
# the per-layer metrics and writes its spans to .bench_build/trace.  Any
# other flag is passed to esbench unchanged.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--trace)
		if [ "${2:-0}" = 1 ]; then
			args+=(-trace "$out/trace")
		fi
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done

go -C bench build -o "$out/esbench" ./esbench
exec "$out/esbench" "${args[@]}"
