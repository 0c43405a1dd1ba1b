#!/bin/sh
# soak.sh - binary-level serving soak: N concurrent esc clients against a
# race-enabled esd, asserting zero failed frames, a working per-request
# deadline, a session migrating to a second daemon over TCP, and a
# graceful drain — SIGTERM during load must complete every in-flight eval
# and exit 0.
#
# Usage: scripts/soak.sh [clients] [evals-per-client]
set -eu
cd "$(dirname "$0")/.."

clients="${1:-8}"
evals="${2:-5}"

tmp=$(mktemp -d)
espid=""
espid2=""
cleanup() {
	[ -n "$espid" ] && kill "$espid" 2>/dev/null || true
	[ -n "$espid2" ] && kill "$espid2" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -race -o "$tmp/esd" ./cmd/esd
go build -o "$tmp/esc" ./cmd/esc
go build -o "$tmp/esload" ./cmd/esload

sock="$tmp/esd.sock"
"$tmp/esd" -socket "$sock" -tcp 127.0.0.1:0 -addr-file "$tmp/addr" \
	-quiet -drain-timeout 30s &
espid=$!
for i in $(seq 1 100); do
	[ -S "$sock" ] && [ -s "$tmp/addr" ] && break
	sleep 0.1
done
[ -S "$sock" ] || { echo "soak: esd did not come up" >&2; exit 1; }
tcpaddr=$(sed -n 's/^tcp=//p' "$tmp/addr")

fail=0

# Wave 1: concurrent clients, several evals each; every frame must be a
# clean result with the expected output.
pids=""
for c in $(seq 1 "$clients"); do
	(
		for n in $(seq 1 "$evals"); do
			out=$("$tmp/esc" -socket "$sock" "echo c${c}n${n}") || exit 1
			[ "$out" = "c${c}n${n}" ] || exit 1
		done
	) &
	pids="$pids $!"
done
for p in $pids; do
	wait "$p" || fail=1
done
[ "$fail" -eq 0 ] || { echo "soak: failed frames in wave 1" >&2; exit 1; }

# A runaway script under a 50ms deadline must come back as an exception
# (nonzero esc status), quickly, and must not wedge the daemon.
if "$tmp/esc" -socket "$sock" -deadline 50 'while {} {}' 2>/dev/null; then
	echo "soak: deadline eval unexpectedly succeeded" >&2
	exit 1
fi
out=$("$tmp/esc" -socket "$sock" 'echo alive') || fail=1
[ "$out" = "alive" ] || fail=1
[ "$fail" -eq 0 ] || { echo "soak: daemon unusable after deadline" >&2; exit 1; }

# TCP wave: pipelined sessions over the TCP listener against the
# race-enabled daemon — the concurrency soak for the hello/window path.
# esload exits nonzero on any transport failure or unexpected error frame.
"$tmp/esload" -addr "$tcpaddr" -window 4 -sessions "$clients" \
	-evals "$evals" -mix mixed -quiet > /dev/null ||
	{ echo "soak: TCP pipelined wave failed" >&2; exit 1; }
out=$("$tmp/esc" -socket "$sock" 'echo alive-tcp') || fail=1
[ "$out" = "alive-tcp" ] || fail=1
[ "$fail" -eq 0 ] || { echo "soak: daemon unusable after TCP wave" >&2; exit 1; }

# Two daemons: a session opened on the first migrates to a second one
# reachable over TCP and runs its command there (the second daemon's
# restores counter proves where it ran); the second daemon must then
# drain cleanly on SIGTERM, as the first does in wave 2.
"$tmp/esd" -socket "$tmp/esd2.sock" -tcp 127.0.0.1:0 -addr-file "$tmp/addr2" \
	-quiet -drain-timeout 30s &
espid2=$!
for i in $(seq 1 100); do
	[ -s "$tmp/addr2" ] && break
	sleep 0.1
done
tcpaddr2=$(sed -n 's/^tcp=//p' "$tmp/addr2")
[ -n "$tcpaddr2" ] || { echo "soak: second esd did not come up" >&2; exit 1; }
out=$("$tmp/esc" -socket "$sock" -migrate "tcp://$tcpaddr2" 'echo moved') || fail=1
[ "$out" = "moved" ] || fail=1
"$tmp/esc" -addr "$tcpaddr2" -stats | grep -qx 'restores:1' || fail=1
kill -TERM "$espid2"
if wait "$espid2"; then :; else
	echo "soak: second esd exited nonzero after SIGTERM" >&2
	fail=1
fi
espid2=""
[ "$fail" -eq 0 ] || { echo "soak: migration to a TCP daemon failed" >&2; exit 1; }

# Wave 2: SIGTERM while evals are in flight.  Every client must still get
# its result (then the drain goodbye), and esd must exit 0.
pids=""
for c in $(seq 1 4); do
	"$tmp/esc" -socket "$sock" 'sleep 0.5; echo drained' > "$tmp/drain$c.out" &
	pids="$pids $!"
done
sleep 0.2
kill -TERM "$espid"
for p in $pids; do
	wait "$p" || fail=1
done
for c in $(seq 1 4); do
	[ "$(cat "$tmp/drain$c.out")" = "drained" ] || fail=1
done
if wait "$espid"; then :; else
	echo "soak: esd exited nonzero after SIGTERM" >&2
	fail=1
fi
espid=""
[ "$fail" -eq 0 ] || { echo "soak: drain under load failed" >&2; exit 1; }
echo "soak ok ($clients clients x $evals evals, deadline, TCP pipelining, TCP migration, SIGTERM drain)"
