// Benchmarks: BenchmarkFigure/<id> for every table/figure of the paper's
// evaluation (scaled-down measurement windows so a full -bench=. sweep stays
// tractable) plus micro-benchmarks of the simulator's hot paths. The
// full-length series are regenerated by cmd/figures; times that gate a PR are
// measured by benchmark/ only.
package nocmem

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/sim"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// benchOpts keeps experiment benches around a few seconds each.
func benchOpts() exp.Options {
	return exp.Options{
		WarmupCycles:        20_000,
		MeasureCycles:       60_000,
		Seed:                1,
		ThresholdPushPeriod: 5_000,
	}
}

// BenchmarkFigure regenerates each experiment of exp.Figures() — the paper's
// own parameters, all 18 workloads for Fig. 11/15 — on a fresh runner per
// iteration; select one with -bench 'Figure/fig12$'.
func BenchmarkFigure(b *testing.B) {
	for _, f := range exp.Figures() {
		b.Run(f.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := f.Run(exp.NewRunner(benchOpts()), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks of the simulator hot paths ---

// workload7 returns the per-tile profiles of workload 7 (its 16-core halved
// variant when halve is set).
func workload7(tb testing.TB, halve bool) []trace.Profile {
	tb.Helper()
	w, err := workload.Get(7)
	if err == nil && halve {
		w, err = w.Halve()
	}
	if err != nil {
		tb.Fatal(err)
	}
	apps, err := w.Profiles()
	if err != nil {
		tb.Fatal(err)
	}
	return apps
}

// saturated builds cfg's machine running workload 7 (halved as for
// workload7) and steps it warm cycles into steady state.
func saturated(tb testing.TB, cfg config.Config, halve bool, warm int64) *sim.Simulator {
	tb.Helper()
	s, err := sim.New(cfg, workload7(tb, halve))
	if err != nil {
		tb.Fatal(err)
	}
	s.Step(warm)
	return s
}

// reportHeap reports heap-MB, the live heap after a garbage collection taken
// while s is still referenced: the host memory of the shape s simulates.
func reportHeap(b *testing.B, s *sim.Simulator) {
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MB")
}

// BenchmarkSimCycle32Core measures raw simulation speed: one op = one
// simulated cycle of the fully loaded 32-core system. It also reports the
// machine's live heap (heap-MB).
func BenchmarkSimCycle32Core(b *testing.B) {
	s := saturated(b, config.Baseline32(), false, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	s.Step(int64(b.N))
	reportHeap(b, s)
}

// BenchmarkSimCycle16Core is the 16-core variant.
func BenchmarkSimCycle16Core(b *testing.B) {
	s := saturated(b, config.Baseline16(), true, 20_000)
	b.ReportAllocs()
	b.ResetTimer()
	s.Step(int64(b.N))
}

// forkWarmup is the warm-up length of the repository benchmark's svc_mixed
// points: the cycle the two benchmarks below checkpoint and restore at.
const forkWarmup = 12_500

// BenchmarkCheckpoint32 is the producing half of a warm-up fork, without a
// Step: one op = one Checkpoint of the warmed 32-core machine into a buffer
// that already has the image's size.
func BenchmarkCheckpoint32(b *testing.B) {
	s := saturated(b, config.Baseline32(), false, forkWarmup)
	var img bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.Reset()
		if err := s.Checkpoint(&img); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(img.Len()))
}

// BenchmarkRestoreImage32 is the consuming half, paid once per forked point:
// one op = one RestoreImage of the warmed 32-core machine's image,
// construction included, after 20k and after 200k warm-up cycles. A restore
// that replayed the warm-up would grow with it; one that decodes state does
// not. It also reports the restored machine's live heap (heap-MB).
func BenchmarkRestoreImage32(b *testing.B) {
	cfg := config.Baseline32()
	apps := workload7(b, false)
	for _, warm := range []int64{20_000, 200_000} {
		b.Run(fmt.Sprintf("warm=%dk", warm/1000), func(b *testing.B) {
			var img bytes.Buffer
			if err := saturated(b, cfg, false, warm).Checkpoint(&img); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(img.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			var s *sim.Simulator
			for i := 0; i < b.N; i++ {
				var err error
				if s, err = sim.RestoreImage(cfg, apps, img.Bytes()); err != nil {
					b.Fatal(err)
				}
			}
			reportHeap(b, s)
		})
	}
}

// par256 builds the repository benchmark's par256 machine — a 16x16 mesh of
// the 32-core configuration with mcf on every other tile, stepped by two
// shards — and steps it warm cycles into steady state.
func par256(tb testing.TB, warm int64) *sim.Simulator {
	tb.Helper()
	cfg := config.Baseline32()
	cfg.Mesh.Width, cfg.Mesh.Height = 16, 16
	cfg.Run.Shards = 2
	apps := make([]trace.Profile, cfg.Mesh.Nodes())
	for i := 0; i < len(apps); i += 2 {
		apps[i] = trace.MustLookup("mcf")
	}
	s, err := sim.New(cfg, apps)
	if err != nil {
		tb.Fatal(err)
	}
	s.Step(warm)
	return s
}

// TestSteadyStateAllocs gates the saturated cycle loops' allocation rate in
// fractions of an allocation per simulated cycle: -benchmem's allocs/op is a
// truncated integer, which reads 0.06 as 0. Transactions, packets and
// messages are pooled, so what is left is growth: of the directory maps, of
// the latency histograms and of queues' backing arrays. The reading is a pure
// function of (config, seed) — the same with and without -race, still
// falling until ~15k cycles (hence the warm-up) — and each bound sits a little
// above its reading: host-side changes must not move it.
func TestSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sim   func() *sim.Simulator
		below float64
	}{
		{"sim_cycle_32core", func() *sim.Simulator { return saturated(t, config.Baseline32(), false, 20_000) }, 0.05},
		{"sim_cycle_16core", func() *sim.Simulator { return saturated(t, config.Baseline16(), true, 20_000) }, 0.02},
		{"par256", func() *sim.Simulator { return par256(t, 20_000) }, 0.1},
	} {
		s := tc.sim()
		const cycles = 2_000
		perCycle := testing.AllocsPerRun(1, func() { s.Step(cycles) }) / cycles
		t.Logf("%s: %.3f allocs/cycle", tc.name, perCycle)
		if perCycle >= tc.below {
			t.Errorf("%s allocates %.3f per cycle in steady state, want < %.2f", tc.name, perCycle, tc.below)
		}
	}
}

// BenchmarkTraceGenerator measures synthetic instruction generation.
func BenchmarkTraceGenerator(b *testing.B) {
	g, err := trace.NewGenerator(trace.MustLookup("mcf"), 0, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// burstySource alternates a burst of cold misses that exhausts the L1 MSHRs
// (mesh and DRAM go hot) with a long stretch of non-memory instructions (the
// mesh drains): the instruction stream of the repository benchmark's
// bursty256 workload.
type burstySource struct {
	burst, gap int
	storeEvery int
	hotLeft    int
	gapLeft    int
	addr       uint64
}

func (b *burstySource) Next() trace.Instr {
	if b.hotLeft > 0 {
		b.hotLeft--
		if b.hotLeft == 0 {
			b.gapLeft = b.gap
		}
		a := b.addr
		b.addr += 64
		return trace.Instr{IsMem: true, IsStore: b.hotLeft%b.storeEvery == 0, Addr: a}
	}
	b.gapLeft--
	if b.gapLeft <= 0 {
		b.hotLeft = b.burst
	}
	return trace.Instr{}
}

func (b *burstySource) PrewarmLines() (hot, warm []uint64) { return nil, nil }

// BenchmarkStepPar256 is the Step-only cost of the par256 shape (see
// par256): 128 mcf tiles on a 16x16 mesh, two shards. One op = one simulated
// cycle. It also reports the machine's live heap (heap-MB): most of it is the
// tag stores and the directories, so a change to what a line costs shows
// here without the full benchmark.
func BenchmarkStepPar256(b *testing.B) {
	s := par256(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	s.Step(int64(b.N))
	reportHeap(b, s)
}

// BenchmarkStepBursty256 is the Step-only cost of the bursty256 shape: a
// 16x16 mesh with a bursty source on every 7th tile and three clock-divided
// routers, 219 tiles idle. One op = one simulated cycle. It also reports what
// the resource-blocked sleeps elided per cycle (sim.DebugBlockedStats) and the
// machine's live heap (heap-MB); `make profile` profiles it next to the
// saturated 32-core loop.
func BenchmarkStepBursty256(b *testing.B) {
	cfg := config.Baseline32()
	cfg.Mesh.Width, cfg.Mesh.Height = 16, 16
	cfg.NoC.ClockDivisors = map[int]int{70: 2, 133: 2, 199: 4}
	nodes := cfg.Mesh.Nodes()
	apps := make([]trace.Profile, nodes)
	srcs := make([]trace.AppSource, nodes)
	rng := rand.New(rand.NewSource(1))
	for j, tile := 0, 3; tile < nodes; j, tile = j+1, tile+7 {
		apps[tile] = trace.Profile{Name: "bursty"}
		srcs[tile] = &burstySource{
			burst: 200, gap: 8_000, storeEvery: 5,
			gapLeft: 1 + rng.Intn(8_000),
			addr:    uint64(j+1) << 28,
		}
	}
	s, err := sim.NewFromSources(cfg, srcs, apps)
	if err != nil {
		b.Fatal(err)
	}
	s.Step(20_000)
	before := s.DebugBlockedStats()
	b.ReportAllocs()
	b.ResetTimer()
	s.Step(int64(b.N))
	b.StopTimer()
	after := s.DebugBlockedStats()
	n := float64(b.N)
	b.ReportMetric(float64(after.CoreStallCycles-before.CoreStallCycles)/n, "core-stalls/op")
	b.ReportMetric(float64(after.L2RetryPolls-before.L2RetryPolls)/n, "l2-retries/op")
	b.ReportMetric(float64(after.CreditWakes-before.CreditWakes)/n, "credit-wakes/op")
	reportHeap(b, s)
}
