# Verification tiers: `make check` is the tier-1 floor (build, tests,
# gofmt, and vet plus the short tests of the bench module);
# `make race` adds vet, the race detector, 20s of frame-codec fuzzing,
# the esd server soak, and then the serving bench gate; `make bench`
# runs, with -benchmem, the dispatch-cache benchmarks that guard the
# native cache speedups and the builtin pipelines whose allocations the
# coreutils buffer pools cut;
# `make bench-server` regenerates the serving baseline and
# `make bench-check` gates against it (>25% ns/op regression fails).

.PHONY: check race soak bench bench-server bench-check build

build:
	go build ./...

check:
	scripts/check.sh

race:
	scripts/check.sh -race

soak:
	sh scripts/soak.sh

bench:
	go test -run=NONE -bench='NativePath|ParseCold|GlobMatch|EnvDecode|AllocUnderLiveRoots|Fig1PipeBaseline|PipeWordCount' -benchmem -benchtime=200ms . ./internal/gc ./internal/glob

bench-server:
	sh scripts/bench_server.sh

bench-check:
	sh scripts/bench_server.sh -check
