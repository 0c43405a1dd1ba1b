#!/bin/sh
# check.sh - repository verification tiers.
#
#   tier 1 (default): go build + go test, the floor every change must hold,
#                     plus gofmt (any file it lists fails), go vet and the
#                     short tests of the bench module (which go test ./...
#                     never compiles but which imports the server, core,
#                     compile and image APIs), esvet, escheck, and the
#                     allocation ratchet against BENCH_allocs.json (about
#                     30s: allocation counts do not depend on the host;
#                     its FrameDecode rows hold esd's frame decoder to
#                     what it allocated per line shape);
#                     it ends by printing the count of non-test Go lines
#                     under cmd/ and internal/, the figure a change that
#                     simplifies quotes (a report, not a gate)
#   tier 2 (-race):   adds go vet, the fork, spawn, isolation, pipe,
#                     runner, cancel, interrupt, wait, shared-program and
#                     concurrent-snapshot tests, the concurrent-access
#                     test of the CLOCK caches, which every session shares
#                     (the parse cache above all), and esd's tests of the
#                     same names with its concurrent-session test (esd
#                     sessions snap and restore at once over the frame
#                     buffers and image scratch every connection takes
#                     from shared pools and gives back), ten times over
#                     under the race detector (forks and spawned sessions share
#                     one frozen variable table across goroutines, whose
#                     names the first of them to snapshot sorts for all,
#                     pipeline elements share the ends
#                     of their pipes, subshells share the runners that
#                     run them and the interrupt count of their group,
#                     waiters share their job table, sessions that run
#                     one fresh program may each lower it into the one
#                     parse cache, and sessions that unparse its closures
#                     at once may each derive its trees), the race
#                     detector over the full
#                     suite (including the 100-session esd soak test), 20s of
#                     FuzzFrameCodec (esd's frame codec against
#                     encoding/json; minimizing a new input is bounded
#                     to 1s, so that it cannot stall the run), 20s of
#                     FuzzTextBuiltins (sort, tr and uniq against the
#                     algorithms they replaced), 20s of FuzzQuoting
#                     (glob patterns folded by Concat from quoted and
#                     magic bytes, against the reference matchers over
#                     an explicit per-byte mask; minimizing bounded to
#                     1s, as for FuzzFrameCodec), 20s of FuzzImageCodec
#                     (the session-image codec against the one it
#                     replaced, kept in internal/image/reference_test.go;
#                     minimizing bounded to 1s), 20s of FuzzParse (the
#                     unparse round trip, Pretty's layout re-parsing to
#                     the same program, and syntax.Inspect against a
#                     walk over the AST's fields) and 20s of FuzzAnalyze
#                     (the analyzer survives any input), both with
#                     minimizing bounded to 1s, a binary-level server
#                     soak
#                     (concurrent esc clients against a race-enabled esd,
#                     asserting zero failed frames and a clean drain on
#                     SIGTERM), and last the paired timing gate
#                     (bench_server.sh -check): the working tree against
#                     a build of its parent on this host, in alternating
#                     rounds, failing on a median ratio above 1.25
#
# Usage: scripts/check.sh [-race]
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...
echo "== go test ./..."
go test ./...
echo "== gofmt -l (must list nothing)"
unformatted=$(gofmt -l cmd internal examples bench *.go)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	exit 1
fi
echo "== go vet ./esbench (the bench module)"
(cd bench && go vet ./esbench)
echo "== go test -short ./esbench (the bench module's own tests)"
(cd bench && go test -short ./esbench)
echo "== esvet (primitive registry hygiene)"
go run ./cmd/esvet ./internal/prim
echo "== escheck (zero errors over lib/ and the embedded prelude)"
go run ./cmd/escheck -prelude lib/*.es
echo "== bench_allocs.sh -check (no allocs/op above BENCH_allocs.json)"
sh scripts/bench_allocs.sh -check
echo "== non-test Go lines under cmd/ and internal/ (a report, not a gate)"
find cmd internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

if [ "${1:-}" = "-race" ]; then
	echo "== go vet ./..."
	go vet ./...
	echo "== go test -race -count=10 (fork, spawn, isolation, pipe, runner, cancel, interrupt, wait, shared-program, shared-cache, concurrent-snapshot and shared-pool session tests)"
	go test -race -count=10 -run 'Fork|Spawn|Subshell|Isolation|BackgroundJob|Pipe|Runner|Cancel|Interrupt|Wait|ConcurrentFirstRunSharesProgram|ConcurrentWhatisSharesTrees|ConcurrentAccess|ConcurrentSnapshot|ConcurrentSessionsSharePools' ./internal/core ./internal/prim ./internal/cache ./internal/server
	echo "== go test -race ./..."
	go test -race ./...
	echo "== FuzzFrameCodec (20s: the frame codec against encoding/json)"
	go test -run '^$' -fuzz '^FuzzFrameCodec$' -fuzztime 20s -fuzzminimizetime 1s ./internal/server
	echo "== FuzzTextBuiltins (20s: sort, tr and uniq against their references)"
	go test -run '^$' -fuzz '^FuzzTextBuiltins$' -fuzztime 20s ./internal/coreutils
	echo "== FuzzQuoting (20s: glob's folded quoting against an explicit mask)"
	go test -run '^$' -fuzz '^FuzzQuoting$' -fuzztime 20s -fuzzminimizetime 1s ./internal/glob
	echo "== FuzzImageCodec (20s: the session-image codec against its reference)"
	go test -run '^$' -fuzz '^FuzzImageCodec$' -fuzztime 20s -fuzzminimizetime 1s ./internal/image
	echo "== FuzzParse (20s: the unparse and Pretty round trips, and Inspect against the AST's fields)"
	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 20s -fuzzminimizetime 1s ./internal/syntax
	echo "== FuzzAnalyze (20s: the analyzer survives any input)"
	go test -run '^$' -fuzz '^FuzzAnalyze$' -fuzztime 20s -fuzzminimizetime 1s ./internal/analysis
	echo "== server soak (esd -race + concurrent esc, SIGTERM drain)"
	sh scripts/soak.sh
	echo "== paired timing gate (scripts/bench_server.sh -check, against the parent)"
	sh scripts/bench_server.sh -check
fi
echo "ok"
