#!/bin/sh
# check.sh - repository verification tiers.
#
#   tier 1 (default): go build + go test, the floor every change must hold,
#                     plus gofmt (any file it lists fails), go vet and the
#                     short tests of the bench module (which go test ./...
#                     never compiles but which imports the server, core,
#                     compile and image APIs), esvet and escheck
#   tier 2 (-race):   adds go vet, the race detector over the full suite
#                     (including the 100-session esd soak test), 20s of
#                     FuzzFrameCodec (esd's frame codec against
#                     encoding/json), a binary-level server soak
#                     (concurrent esc clients against a race-enabled esd,
#                     asserting zero failed frames and a clean drain on
#                     SIGTERM), and last the serving-layer bench gate
#                     against BENCH_server.json, which runs after the soak
#                     because a host slower than the one that recorded the
#                     baseline fails it
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

if [ "${1:-}" = "-race" ]; then
	echo "== go vet ./..."
	go vet ./...
	echo "== go test -race ./..."
	go test -race ./...
	echo "== FuzzFrameCodec (20s: the frame codec against encoding/json)"
	go test -run '^$' -fuzz '^FuzzFrameCodec$' -fuzztime 20s ./internal/server
	echo "== server soak (esd -race + concurrent esc, SIGTERM drain)"
	sh scripts/soak.sh
	echo "== server bench gate (scripts/bench_server.sh -check)"
	sh scripts/bench_server.sh -check
fi
echo "ok"
