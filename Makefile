# Developer entry points. `make ci` is the gate run before every commit:
# vet, build, a vet-and-short-test pass over the nested benchmark module
# (which the root `go build ./...` does not see), the checkpoint
# fork-equivalence oracle under the race detector (fast fail), the full test
# suite under the race detector (which includes the skewed-hotspot and barrier
# stress oracles, the daemon's multi-client harness, and the process-level
# gate in cmd/nocsimd that SIGKILLs a real worker process holding leases),
# the shard-scaling smoke gate (a 2-worker stealing run must reproduce the
# sequential stepper byte for byte on the skewed corner-hotspot workload),
# the analytic-model smoke gate (closed-form estimates cross-checked against
# short simulated runs, plus the golden-scenario and divergence-oracle unit
# tests), and a smoke run of the perf harness (micro-benchmarks plus the
# sharded-vs-sequential and bursty dense/event/sharded byte-equality gates,
# regression-gated; the full harness writing BENCH_8.json is `make bench`).

GO ?= go

.PHONY: all build vet test race fork-race bench bench-smoke bench-module shard-scaling-smoke estimate-smoke profile loc ci

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

# Full perf-regression harness: micro-benchmarks, dense-vs-event stepper
# comparison (including the bursty router-timed-wake scenario and its
# byte-equality gate), the sharded-stepper sweep (with its sequential
# byte-equality gate), the checkpoint-fork warmup-amortization point, and
# the sequential-vs-parallel figure sweep, and the analytic-model divergence
# record, written to BENCH_8.json for before/after comparison.
bench:
	$(GO) run ./cmd/bench

# Quick harness pass with small windows, gated against the committed PR-1
# report: fails if any micro benchmark allocates more per op than recorded
# there, if the 32-core cycle loop runs more than 20% slower, or if a
# sharded run fails to reproduce the sequential result byte for byte.
bench-smoke:
	$(GO) run ./cmd/bench -quick -skip-sweep -out - -check BENCH_1.json

# benchmark/ is a module of its own that imports nocmem/internal/...: the
# root module's build and tests never compile it, so an internal API change
# can break the repository benchmark unnoticed. Vet it and run its short
# tests (~6 s).
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# The shard-scaling determinism gate on its own: sharded runs of the skewed
# corner-hotspot workload (2 workers stealing, 4 workers no-steal) must
# reproduce the sequential event stepper byte for byte.
shard-scaling-smoke:
	$(GO) run ./cmd/bench -scaling-smoke

# The analytic-model gate: cross-check the closed-form estimator against
# short simulated runs of the profile-driven stepper scenarios (fatal beyond
# the loose oracle band or on a structurally dead tile), then run the golden
# calibration scenarios and the divergence-oracle mutation test.
estimate-smoke:
	$(GO) run ./cmd/bench -estimate-smoke
	$(GO) test -run 'TestGolden|TestOracle' ./internal/analytic

# CPU-profile the two Step-only loops that bracket the stepper's regimes: the
# 16x16 bursty shape (mostly idle mesh, MSHR-blocked bursts) and the saturated
# 32-core machine. Writes cpu.pprof (and the test binary nocmem.test) next to
# the repo, ready for `go tool pprof nocmem.test cpu.pprof`. See
# ARCHITECTURE.md ("Profiling workflow") for how to read the output.
profile:
	$(GO) test -run '^$$' -bench 'StepBursty256|SimCycle32Core' -cpuprofile cpu.pprof .
	@echo "wrote cpu.pprof; inspect with: $(GO) tool pprof nocmem.test cpu.pprof"

# The ROADMAP's tracked size: non-test Go lines outside the benchmark module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1

ci: vet build bench-module fork-race race shard-scaling-smoke estimate-smoke bench-smoke
