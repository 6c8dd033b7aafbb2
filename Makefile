# Developer entry points. `make ci` is the gate run before every commit:
# vet, build, a coverage pass that fails on any function of ./internal/... or
# the root package that tier-1 never executes (`dark`), a vet-and-short-test
# pass over the nested benchmark module (which the root `go build ./...` does
# not see), a few iterations of the router and cache micro-benchmarks
# (`kernel-bench`), five seconds of each fuzz target (`fuzz-smoke`), the
# checkpoint fork-equivalence oracle and the job long poll under the race
# detector (fast fail, `fork-race` and `poll-race`), the full test suite under the race detector (every byte-equality oracle lives there: dense = event = sharded on the 16-tile
# machine and the paper's 4x8 mesh, the skewed-hotspot and barrier stress
# oracles, the analytic model's golden cross-checks, the fractional allocation
# gates, the daemon's multi-client harness, every figure at quick windows
# against internal/exp/testdata/quick, the goldens behind every command's run
# function, and the process-level gate in cmd/nocsimd that SIGKILLs a real
# worker process holding leases), and a regeneration of results/fig6.tsv
# diffed against the committed file (`make results-check EXP=all` for all
# fifteen). Times are measured in one place only: `bash benchmark/run.sh`
# (BENCHMARK.json, benchmark/README.md).

GO ?= go

.PHONY: all build vet test race dark fork-race poll-race bench-module kernel-bench fuzz-smoke results-check profile loc ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# The checkpoint correctness oracles on their own, under the race detector:
# warmup-then-fork must reproduce the straight-through run byte for byte
# under every stepper, and a checkpoint must survive a serialize-restore-
# serialize round trip unchanged. Runs ahead of the full `race` suite (which
# also includes them) so snapshot-format breakage fails CI within a minute.
fork-race:
	$(GO) test -race -run 'TestCheckpointForkEquivalence|TestCheckpointRoundTrip' ./internal/sim

# The daemon's job poll and the client's Wait under the race detector, twenty
# times over: a held poll sleeps on a per-job channel that every event,
# result and status change closes and replaces, and a drain or abort
# releases it. Runs ahead of the full `race` suite so a lost wake-up or a
# racy release shows up in a couple of minutes.
poll-race:
	$(GO) test -race -count=20 -run 'TestJob|TestWait' ./internal/simd ./internal/simdclient

# Dark code: one coverage pass of the tier-1 suite over ./internal/... and the
# root package, then each non-test function that no test executed. The list is
# printed in full and the target fails on any entry: a function a command, an
# example or the README reaches is executed through that caller (the commands'
# run functions have goldens), and a function nothing reaches is deleted, not
# kept. String methods are exempt: they only format panic text.
dark:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test -count=1 -coverprofile="$$tmp/cover.out" -coverpkg=./internal/...,. ./... && \
	$(GO) tool cover -func="$$tmp/cover.out" | awk '$$NF == "0.0%" { print; if ($$2 != "String") bad++ } \
		END { if (bad) { print "dark: " bad " function(s) never execute under tier-1"; exit 1 } }'

# benchmark/ is a module of its own that imports nocmem/internal/...: the
# root module's build and tests never compile it, so an internal API change
# can break the repository benchmark unnoticed. Vet it and run its short
# tests (~6 s).
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# The router, cache and latency-histogram kernels' micro-benchmarks, a few
# iterations each: they drive hand-built fixtures (a loaded 4x8 mesh, an
# L2-shaped cache, a round-trip-shaped latency stream) that no other target
# runs as benchmarks, so a layout change that stops them compiling or running
# fails here rather than in the next profiling session.
kernel-bench:
	$(GO) test -run '^$$' -bench 'NetworkTick|CacheAccess|HistogramAdd' -benchtime 200x ./internal/noc ./internal/cache ./internal/stats

# The four fuzz targets, 5 s each beyond their seed corpora: the daemon's
# request resolver, the checkpoint decoder, the result store's entry reader
# and the trace-file parser, each fed input a client or a disk can hand it.
# `go test -fuzz` takes one target per package per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzResolveSpec$$' -fuzztime 5s ./internal/simd
	$(GO) test -run '^$$' -fuzz '^FuzzStoreRead$$' -fuzztime 5s ./internal/simd
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 5s ./internal/snapshot
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/trace

# results/ is a committed record, so it has to stay true of HEAD: regenerate
# EXP at the full windows of results/README.md and compare every regenerated
# file with the committed bytes. The default is the cheapest simulated file
# (fig6, one simulation, ~10 s) and is what `ci` runs; `make results-check
# EXP=all` is the full oracle (~12 min on 2 CPUs) that a PR touching
# internal/exp or claiming unchanged simulated bytes runs once. A diff means
# simulated behaviour changed: regenerate results/ with the README's command
# and say so in the PR.
EXP ?= fig6
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/figures -exp $(EXP) -out "$$tmp" -warmup 100000 -measure 400000 -push 25000 -q && \
	for f in "$$tmp"/*.tsv; do diff "results/$${f##*/}" "$$f" || exit 1; done && \
	echo "results/ reproduces: $(EXP)"

# CPU-profile the two Step-only loops that bracket the stepper's regimes (the
# 16x16 bursty shape: mostly idle mesh, MSHR-blocked bursts; and the saturated
# 32-core machine) and the two Step-free halves of a warm-up fork on that
# machine (Checkpoint, RestoreImage). The two Step-only loops and the restore
# also print heap-MB, the live heap of their shape, beside ns/op. Writes cpu.pprof (and
# the test binary nocmem.test) next to the repo, ready for `go tool pprof
# nocmem.test cpu.pprof`. See ARCHITECTURE.md ("Profiling workflow") for how
# to read the output.
profile:
	$(GO) test -run '^$$' -bench 'StepBursty256|SimCycle32Core|Checkpoint32|RestoreImage32' -cpuprofile cpu.pprof .
	@echo "wrote cpu.pprof; inspect with: $(GO) tool pprof nocmem.test cpu.pprof"

# The ROADMAP's tracked size: non-test Go lines outside the benchmark module
# (18 853 at PR 16, 17 444 at PR 18, 17 179 at PR 19, 16 987 at PR 20,
# 16 914 at PR 21, 16 977 at PR 22, 17 082 at PR 23, 17 081 at PR 24,
# 16 054 at PR 25, 16 117 at PR 26).
# One chunk per worker, work stealing and three dead helpers deleted: 15 924.
# 32-bit LRU stamps renumbered at the clock's wrap, and a dirty bitset: 15 999.
# Latency histograms grown on demand, job GC swept once per JobTTL/10: 16 093.
# Job polls by results cursor and long poll, released by a drain: 16 259.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1

ci: vet build dark bench-module kernel-bench fuzz-smoke fork-race poll-race race results-check
