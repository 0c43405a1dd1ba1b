#!/bin/sh
# bench_server.sh - the serving-layer performance baseline
# (BenchmarkServerEval sequential/parallel, BenchmarkServerEvalTCP
# serial/pipelined through the TCP listener, the session-spawn cost
# every connection pays on its own goroutine, the pre-baked-from-image
# spawn path next to the restore-per-session cost it avoids, the
# static-analysis pass that esd -vet puts on the admission path, and
# two esload waves against a live daemon binary: unix serial and TCP
# pipelined).
#
# Usage: scripts/bench_server.sh [benchtime]          regenerate BENCH_server.json
#        scripts/bench_server.sh -check [benchtime]   compare against BENCH_server.json,
#                                                     failing on a >25% ns/op regression
set -eu
cd "$(dirname "$0")/.."

mode=write
if [ "${1:-}" = "-check" ]; then
	mode=check
	shift
fi
benchtime="${1:-300ms}"

# -count=3 with a min-of-counts scrape: single 300ms samples jitter more
# than the 25% gate tolerates, the per-name minimum is stable.
out=$(go test -run=NONE -bench='ServerEval|ServerSession|Analyze' \
	-benchtime="$benchtime" -count=3 .)
echo "$out"

# The esload waves drive a real esd binary: wave 1 is the serial
# unix-socket floor, wave 2 the pipelined TCP path (hello window 8).
# Their go-bench-shaped summary lines fold into the same baseline.
tmp=$(mktemp -d)
espid=""
cleanup() {
	[ -n "$espid" ] && kill "$espid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/esd" ./cmd/esd
go build -o "$tmp/esload" ./cmd/esload
sock="$tmp/esd.sock"
"$tmp/esd" -socket "$sock" -tcp 127.0.0.1:0 -addr-file "$tmp/addr" -quiet &
espid=$!
for i in $(seq 1 100); do
	[ -S "$sock" ] && [ -s "$tmp/addr" ] && break
	sleep 0.1
done
[ -S "$sock" ] || { echo "bench_server: esd did not come up" >&2; exit 1; }
addr=$(sed -n 's/^tcp=//p' "$tmp/addr")

# Each wave is best-of-3: esload reports wall-clock ns/op, and a single
# run jitters more than the 25% gate tolerates.
bestof() {
	best=""
	bestns=""
	for r in 1 2 3; do
		line=$("$tmp/esload" "$@" -quiet)
		ns=$(echo "$line" | awk '{print $3}')
		if [ -z "$bestns" ] || [ "$ns" -lt "$bestns" ]; then
			best=$line
			bestns=$ns
		fi
	done
	echo "$best"
}

loadout=$(bestof -socket "$sock" -sessions 16 -evals 200 -name unix_micro_w1)
loadout="$loadout
$(bestof -addr "$addr" -window 8 -sessions 16 -evals 200 -name tcp_micro_w8)"
echo "$loadout"
kill "$espid" 2>/dev/null || true
wait "$espid" 2>/dev/null || true
espid=""

out="$out
$loadout"

if [ "$mode" = "check" ]; then
	echo "$out" | awk -v basefile=BENCH_server.json '
	BEGIN {
		# The baseline file is the exact shape this script writes, so a
		# line-oriented scrape is reliable: one benchmark per line.
		while ((getline line < basefile) > 0) {
			if (match(line, /"name": "[^"]*"/)) {
				name = substr(line, RSTART + 9, RLENGTH - 10)
				if (match(line, /"ns_per_op": [0-9]+/)) {
					base[name] = substr(line, RSTART + 13, RLENGTH - 13) + 0
				}
			}
		}
		close(basefile)
	}
	/^Benchmark|^esload\// {
		name = $1
		if (name ~ /^Benchmark/) {
			sub(/-[0-9]+$/, "", name)
			sub(/^Benchmark/, "", name)
		}
		if (!(name in cur) || $3 + 0 < cur[name]) cur[name] = $3 + 0
	}
	END {
		if (length(base) == 0) {
			print "bench-check: no baseline in " basefile
			exit 1
		}
		status = 0
		for (name in base) {
			if (!(name in cur)) {
				printf "bench-check: %s missing from current run\n", name
				status = 1
				continue
			}
			limit = base[name] * 1.25
			verdict = "ok"
			if (cur[name] > limit) {
				verdict = "REGRESSION"
				status = 1
			}
			printf "bench-check: %-28s base %8d ns/op  now %8d ns/op  limit %8.0f  %s\n", \
				name, base[name], cur[name], limit, verdict
		}
		exit status
	}'
	echo "bench-check ok (within 25% of BENCH_server.json)"
	exit 0
fi

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
