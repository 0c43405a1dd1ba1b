#!/bin/sh
# bench_server.sh - the serving-layer and engine timing benchmarks
# (BenchmarkServerEval sequential/parallel, BenchmarkServerEvalTCP
# serial/pipelined through the TCP listener, the session-spawn cost
# every connection pays on its own goroutine, the pre-baked-from-image
# spawn path next to the restore-per-session cost it avoids, the
# static-analysis pass that esd -vet puts on the admission path, the
# EngineEval micros and ScriptFamilies, the builtin pipelines
# (PipeBuiltins, PipeWordCount, Fig1PipeProfile, Fig1PipeBaseline,
# Fig1PipeCorpus), the shell startups (StartupEnv, StartupRcFile,
# StartupBare: the other half of an `es -c` request), and two esload
# waves against a live daemon binary: unix serial and TCP pipelined).
#
# Usage: scripts/bench_server.sh [benchtime]   regenerate BENCH_server.json
#        scripts/bench_server.sh -check [rev]  paired gate against rev
#
# -check compares like with like: the working tree against a build of
# rev, on the same host, in alternating runs.  rev defaults to HEAD when
# tracked files differ from it, else HEAD~1: the parent of the change
# under test either way.  The base is checked out in a temporary
# `git worktree add --detach`, removed on exit.  Each of 5 rounds runs
# every row at -benchtime=200ms on both sides, flipping which side goes
# first, and each side's esload waves run once against its own esd.  A
# row fails when the median over the rounds of its change/base ns/op
# ratio is above 1.25.  Each row prints both sides' medians, that ratio
# and the rounds the change won; a row only one side has is listed and
# not compared.  -check does not read BENCH_server.json: a baseline
# recorded on another host, or under other load, cannot tell a
# regression from a busy machine.
set -eu
cd "$(dirname "$0")/.."

benches='ServerEval|ServerSession|Analyze|EngineEval|ScriptFamilies|Pipe|Startup'

tmp=$(mktemp -d)
espid=""
base=""
cleanup() {
	[ -n "$espid" ] && kill "$espid" 2>/dev/null || true
	if [ -n "$base" ]; then
		git worktree remove --force "$tmp/base" 2>/dev/null || true
		git worktree prune
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

# waves SRC BIN LABEL runs the two esload waves of the checkout in SRC
# against an esd of its own, building both into BIN, and prints one
# go-bench-shaped line per wave.  Wave 1 is the serial unix-socket floor,
# wave 2 the pipelined TCP path (hello window 8).  Each wave is the best
# of the number of runs the fourth argument gives, 3 by default.  It
# runs in the calling shell, so the exit trap can stop its esd; the
# names it and bestof set are global, so they share none with the
# caller's loops.
waves() {
	src=$1 bin=$2 runs=${4:-3}
	(cd "$src" && go build -o "$bin/esd" ./cmd/esd && go build -o "$bin/esload" ./cmd/esload)
	sock="$bin/esd.sock"
	rm -f "$sock" "$bin/addr"
	"$bin/esd" -socket "$sock" -tcp 127.0.0.1:0 -addr-file "$bin/addr" -quiet &
	espid=$!
	for tick in $(seq 1 100); do
		[ -S "$sock" ] && [ -s "$bin/addr" ] && break
		sleep 0.1
	done
	[ -S "$sock" ] || { echo "bench_server: esd did not come up ($3)" >&2; exit 1; }
	addr=$(sed -n 's/^tcp=//p' "$bin/addr")
	bestof "$runs" "$bin/esload" -socket "$sock" -sessions 16 -evals 200 -name unix_micro_w1
	bestof "$runs" "$bin/esload" -addr "$addr" -window 8 -sessions 16 -evals 200 -name tcp_micro_w8
	kill "$espid" 2>/dev/null || true
	wait "$espid" 2>/dev/null || true
	espid=""
}

# bestof N CMD... prints the line of the fastest of N runs of an esload
# wave (esload reports wall-clock ns/op in its third field).
bestof() {
	tries=$1
	shift
	best=""
	bestns=""
	for try in $(seq 1 "$tries"); do
		line=$("$@" -quiet)
		ns=$(echo "$line" | awk '{print $3}')
		if [ -z "$bestns" ] || [ "$ns" -lt "$bestns" ]; then
			best=$line
			bestns=$ns
		fi
	done
	echo "$best"
}

if [ "${1:-}" = "-check" ]; then
	rev=${2:-}
	if [ -z "$rev" ]; then
		if git diff --quiet HEAD --; then
			rev=HEAD~1
		else
			rev=HEAD
		fi
	fi
	benchtime=200ms
	rounds=5
	base=$(git rev-parse --verify "$rev^{commit}")
	echo "bench-check: working tree against $rev ($base), $rounds rounds, benchtime $benchtime"
	git worktree add --quiet --detach "$tmp/base" "$base"
	mkdir -p "$tmp/bin-base" "$tmp/bin-change"
	go test -c -o "$tmp/bin-change/es.test" .
	(cd "$tmp/base" && go test -c -o "$tmp/bin-base/es.test" .)
	: >"$tmp/results"
	for r in $(seq 1 "$rounds"); do
		if [ $((r % 2)) -eq 1 ]; then sides="base change"; else sides="change base"; fi
		for side in $sides; do
			if [ "$side" = base ]; then src=$tmp/base; else src=.; fi
			bin=$tmp/bin-$side
			(cd "$src" && "$bin/es.test" -test.run=NONE -test.bench="$benches" \
				-test.benchtime="$benchtime") >"$tmp/out"
			waves "$src" "$bin" "$side" 1 >>"$tmp/out"
			awk -v side="$side" -v round="$r" '
			/^Benchmark|^esload\// {
				name = $1
				sub(/-[0-9]+$/, "", name)
				sub(/^Benchmark/, "", name)
				print side, round, name, $3
			}' "$tmp/out" >>"$tmp/results"
		done
		echo "bench-check: round $r of $rounds done"
	done
	awk -v rounds="$rounds" '
	function median(v, n,    i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
		return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
	}
	{
		if (!(($3) in seen)) { seen[$3] = 1; order[n++] = $3 }
		ns[$1, $2, $3] = $4 + 0
	}
	END {
		status = 0
		for (k = 0; k < n; k++) {
			name = order[k]
			m = 0; won = 0
			for (r = 1; r <= rounds; r++) {
				if (!(("base", r, name) in ns) || !(("change", r, name) in ns) || ns["base", r, name] == 0) continue
				m++
				b[m] = ns["base", r, name]; c[m] = ns["change", r, name]
				ratio[m] = c[m] / b[m]
				if (c[m] < b[m]) won++
			}
			if (m == 0) {
				printf "bench-check: %-32s on one side only, not compared\n", name
				continue
			}
			mr = median(ratio, m)
			verdict = "ok"
			if (mr > 1.25) { verdict = "REGRESSION"; status = 1 }
			printf "bench-check: %-32s base %10.0f ns/op  change %10.0f ns/op  ratio %5.3f  won %d/%d  %s\n", \
				name, median(b, m), median(c, m), mr, won, m, verdict
		}
		exit status
	}' "$tmp/results"
	echo "bench-check ok (no row's median change/base ratio above 1.25)"
	exit 0
fi

benchtime="${1:-300ms}"

# -count=3 with a min-of-counts scrape: the per-name minimum is stabler
# than a single 300ms sample.
out=$(go test -run=NONE -bench="$benches" -benchtime="$benchtime" -count=3 .)
echo "$out"
mkdir -p "$tmp/bin"
waves . "$tmp/bin" write >"$tmp/load"
loadout=$(cat "$tmp/load")
echo "$loadout"
out="$out
$loadout"

echo "$out" | awk -v benchtime="$benchtime" '
BEGIN { n = 0 }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark|^esload\// {
	name = $1
	if (name ~ /^Benchmark/) {
		sub(/-[0-9]+$/, "", name)
		sub(/^Benchmark/, "", name)
	}
	if (name in idx) {
		k = idx[name]
		if ($3 + 0 < ns[k] + 0) { iters[k] = $2; ns[k] = $3 }
		next
	}
	idx[name] = n
	iters[n] = $2
	ns[n] = $3
	names[n] = name
	n++
}
END {
	printf "{\n"
	printf "  \"suite\": \"server\",\n"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"benchmarks\": [\n"
	for (k = 0; k < n; k++) {
		printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s}%s\n", \
			names[k], iters[k], ns[k], (k < n - 1 ? "," : "")
	}
	printf "  ]\n"
	printf "}\n"
}' > BENCH_server.json
echo "wrote BENCH_server.json"
