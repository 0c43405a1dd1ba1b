# Verification tiers: `make check` is the tier-1 floor (build, tests,
# gofmt, and vet plus the short tests of the bench module), which ends
# by printing the non-test Go line count under cmd/ and internal/;
# `make race` adds vet, the fork, spawn, isolation, pipe, wait,
# shared-program and concurrent-snapshot tests ten times over under the
# race detector (sessions that run one fresh program may each lower it
# into the one parse cache, and sessions spawned from one template sort
# its names once), the race detector over
# everything, 20s each of frame-codec, text-builtin, glob-quoting,
# image-codec, parser (Pretty's round trip and syntax.Inspect against the
# AST's fields among its checks) and analyzer fuzzing (all but the text builtins with
# minimizing bounded to 1s), the
# esd server soak, and then the serving bench gate; `make bench` runs, with -benchmem, the dispatch-cache
# benchmarks that guard the native cache speedups, the builtin
# pipelines whose allocations the coreutils buffer pools cut and whose
# stages the in-memory pipe joins without descriptors (Fig1PipeCorpus
# runs Figure 1 over a shell_exec-sized corpus), the fork and
# spawn benchmarks of the copy-on-write variable table (SpawnResident
# reports heap bytes per live session), the session-image path
# (ServerSessionRestore restores an image onto a spawned session, and
# SessionImage runs one session_state session: decode, restore, step,
# capture and encode), CompileProgram, which lowers
# higher-order programs into flat units and reports their allocations
# and the heap bytes a program's units keep (unit-B/prog), the EngineEval
# micros of steady-state evaluation, and ScriptFamilies, which runs one
# program per family of esbench's rpc_script workload on a warm spawned
# session and reports its allocations per program;
# `make bench-server` regenerates the serving baseline, and
# `make bench-check` is the paired timing gate: it builds the parent
# (HEAD when the tree is dirty, else HEAD~1) in a temporary git worktree,
# runs the serving rows, Analyze, the EngineEval micros, ScriptFamilies,
# the builtin pipelines (PipeBuiltins, PipeWordCount, Fig1PipeProfile,
# Fig1PipeBaseline, Fig1PipeCorpus), the Startup rows and the two esload
# waves on both builds in 5 alternating rounds, and
# fails when a row's median change/parent ratio is above 1.25;
# `make bench-allocs` records allocs/op and B/op of the bench set plus
# Analyze, ApplyFunction, Startup* and ServerEval/sequential in
# BENCH_allocs.json, and `make bench-allocs-check` (also part of tier 1)
# fails on any allocs/op above it or any B/op above it by more than the
# row's tolerance.

.PHONY: check race soak bench bench-server bench-check bench-allocs bench-allocs-check build

build:
	go build ./...

check:
	scripts/check.sh

race:
	scripts/check.sh -race

soak:
	sh scripts/soak.sh

bench:
	go test -run=NONE -bench='NativePath|ParseCold|GlobMatch|EnvDecode|AllocUnderLiveRoots|Fig1PipeBaseline|Fig1PipeCorpus|PipeWordCount|PipeBuiltins|ForkClone|ServerSessionSpawn|ServerSessionRestore|SessionImage|SpawnResident|CompileProgram|EngineEval|ScriptFamilies' -benchmem -benchtime=200ms . ./internal/gc ./internal/glob ./internal/compile

bench-server:
	sh scripts/bench_server.sh

bench-check:
	sh scripts/bench_server.sh -check

bench-allocs:
	sh scripts/bench_allocs.sh

bench-allocs-check:
	sh scripts/bench_allocs.sh -check
