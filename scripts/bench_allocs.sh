#!/bin/sh
# bench_allocs.sh - the allocation baseline: allocs/op and B/op of every
# benchmark `make bench` runs (SessionImage and ServerSessionRestore among
# them: a session image decoded, restored, run, captured and encoded),
# plus Analyze, ApplyFunction, StartupEnv, StartupBare,
# ServerEval/sequential and FrameDecode (esd's frame decoder on one line
# of each shape its traffic brings: esbench's eval line, an escaped
# rpc_script eval, a session_state restore line and a result reply,
# recorded before the decoder was cut down to a reader of json.Marshal's
# shape in front of encoding/json).  An allocation count is a
# property of the code, not of the host, so this gate needs no paired run
# against a parent build.
#
# Usage: scripts/bench_allocs.sh          regenerate BENCH_allocs.json
#        scripts/bench_allocs.sh -check   compare against BENCH_allocs.json
#
# -check fails on any row whose allocs/op is above the baseline's, or whose
# B/op is above it by more than the row's bytes_tol_pct, and on a baseline
# row the run no longer has.  It names every row whose allocs/op fell, so
# that the change lowering it records the new count: the file only
# ratchets down.  Each row is the minimum over three counts.
#
# Regenerating keeps each row's tolerance from the existing file; a new
# row gets 2%.  A wider tolerance is set by hand in the file, for a row
# whose B/op ten -check runs showed moving by more than 2%; no row has
# one.  The path-search rows build $path under a directory of fixed
# length (pathRootLen in bench_test.go), so their B/op no longer follows
# the host's temporary directory.
set -eu
cd "$(dirname "$0")/.."

mode=write
if [ "${1:-}" = "-check" ]; then
	mode=check
fi

base=BENCH_allocs.json
flags="-run=NONE -benchmem -benchtime=100ms -count=3"
out=$(go test $flags \
	-bench='NativePath|ParseCold|GlobMatch|EnvDecode|AllocUnderLiveRoots|Fig1PipeBaseline|Fig1PipeCorpus|PipeWordCount|PipeBuiltins|ForkClone|ServerSessionSpawn|ServerSessionRestore|SessionImage|SpawnResident|CompileProgram|EngineEval|ScriptFamilies|Analyze|ApplyFunction|StartupEnv|StartupBare|FrameDecode' \
	. ./internal/gc ./internal/glob ./internal/compile ./internal/server)
out="$out
$(go test $flags -bench='^BenchmarkServerEval$/^sequential$' .)"

# rows prints "name allocs bytes" for each benchmark, the minimum of each
# over the counts, in first-seen order.
rows() {
	echo "$out" | awk '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		sub(/^Benchmark/, "", name)
		a = ""; b = ""
		for (k = 3; k <= NF; k++) {
			if ($k == "allocs/op") a = $(k - 1) + 0
			if ($k == "B/op") b = $(k - 1) + 0
		}
		if (a == "" || b == "") next
		if (!(name in allocs)) {
			order[n++] = name
			allocs[name] = a
			bytes[name] = b
		}
		if (a < allocs[name]) allocs[name] = a
		if (b < bytes[name]) bytes[name] = b
	}
	END {
		for (k = 0; k < n; k++) print order[k], allocs[order[k]], bytes[order[k]]
	}'
}

# The baseline file is the exact shape this script writes, one benchmark
# per line, so a line-oriented scrape is reliable.
scrape='
	while ((getline line < basefile) > 0) {
		if (!match(line, /"name": "[^"]*"/)) continue
		name = substr(line, RSTART + 9, RLENGTH - 10)
		match(line, /"allocs_per_op": [0-9]+/)
		ballocs[name] = substr(line, RSTART + 17, RLENGTH - 17) + 0
		match(line, /"bytes_per_op": [0-9]+/)
		bbytes[name] = substr(line, RSTART + 16, RLENGTH - 16) + 0
		match(line, /"bytes_tol_pct": [0-9.]+/)
		btol[name] = substr(line, RSTART + 17, RLENGTH - 17) + 0
		bnames[nb++] = name
	}
	close(basefile)
'

if [ "$mode" = "check" ]; then
	rows | awk -v basefile="$base" '
	BEGIN {'"$scrape"'}
	{ seen[$1] = 1; callocs[$1] = $2; cbytes[$1] = $3 }
	END {
		if (nb == 0) {
			print "bench-allocs: no baseline in " basefile
			exit 1
		}
		status = 0
		for (k = 0; k < nb; k++) {
			name = bnames[k]
			if (!(name in seen)) {
				printf "bench-allocs: %s missing from the current run\n", name
				status = 1
				continue
			}
			limit = bbytes[name] * (1 + btol[name] / 100)
			verdict = "ok"
			if (callocs[name] > ballocs[name]) {
				verdict = "ROSE (allocs/op)"
				status = 1
			} else if (cbytes[name] > limit) {
				verdict = "ROSE (B/op)"
				status = 1
			} else if (callocs[name] < ballocs[name]) {
				verdict = "FELL: record it with scripts/bench_allocs.sh"
			}
			printf "bench-allocs: %-48s allocs %6d -> %6d  B %8d -> %8d (limit %.0f)  %s\n", \
				name, ballocs[name], callocs[name], bbytes[name], cbytes[name], limit, verdict
		}
		for (name in seen) {
			if (!(name in ballocs)) printf "bench-allocs: %s is not in %s yet\n", name, basefile
		}
		exit status
	}'
	echo "bench-allocs ok (no count above $base)"
	exit 0
fi

touch "$base"
trap 'rm -f "$base.tmp"' EXIT
rows | awk -v basefile="$base" '
BEGIN {'"$scrape"'}
{ k = n++; row[k] = $1; allocs[k] = $2; bytes[k] = $3 }
END {
	printf "{\n"
	printf "  \"suite\": \"allocs\",\n"
	printf "  \"benchtime\": \"100ms\",\n"
	printf "  \"count\": 3,\n"
	printf "  \"note\": \"rows are the minimum over the counts; bytes_tol_pct is 2 unless ten -check runs showed a row moving by more, and a regenerated file keeps the tolerance of each row\",\n"
	printf "  \"benchmarks\": [\n"
	for (k = 0; k < n; k++) {
		tol = (row[k] in btol) ? btol[row[k]] : 2
		printf "    {\"name\": \"%s\", \"allocs_per_op\": %d, \"bytes_per_op\": %d, \"bytes_tol_pct\": %s}%s\n", \
			row[k], allocs[k], bytes[k], tol, (k < n - 1 ? "," : "")
	}
	printf "  ]\n"
	printf "}\n"
}' > "$base.tmp"
mv "$base.tmp" "$base"
echo "wrote $base"
