package sim

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// runOnce builds a simulator over the given workload, forces the chosen
// stepper and shard count, runs the configured window and returns the
// serialized summary plus the raw result for field-level comparison and the
// simulator itself for scheduler-counter assertions. shards <= 1 selects the
// sequential stepper. Profile-named workloads leave srcs nil; synthetic ones
// pass a factory so every run gets fresh, deterministic source state.
func runOnce(t *testing.T, cfg config.Config, apps []trace.Profile, srcs func() []trace.AppSource, dense bool, shards int) ([]byte, *Result, *Simulator) {
	t.Helper()
	cfg.Run.Shards = shards
	var s *Simulator
	var err error
	if srcs != nil {
		s, err = NewFromSources(cfg, srcs(), apps)
	} else {
		s, err = New(cfg, apps)
	}
	if err != nil {
		t.Fatal(err)
	}
	s.SetDenseStepping(dense)
	r := s.Run()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r, s
}

// burstSource is this package's one synthetic instruction stream: burst
// memory accesses stride bytes apart (every storeEvery-th a store), then gap
// non-memory instructions, over and over. Cold strided misses hard-stall the
// core against off-chip latency while the gap lets the mesh drain — the load
// shape profile-driven traces never produce. A stride of 512 lines (64*512
// bytes) pins every access to DRAM controller 0 and L2 bank 0, both at tile
// 0's corner.
type burstSource struct {
	burst, gap       int // phase lengths, in instructions
	storeEvery       int
	hotLeft, gapLeft int
	addr, stride     uint64
}

func (b *burstSource) Next() trace.Instr {
	if b.hotLeft > 0 {
		b.hotLeft--
		if b.hotLeft == 0 {
			b.gapLeft = b.gap
		}
		a := b.addr
		b.addr += b.stride
		return trace.Instr{IsMem: true, IsStore: b.hotLeft%b.storeEvery == 0, Addr: a}
	}
	b.gapLeft--
	if b.gapLeft <= 0 {
		b.hotLeft = b.burst
	}
	return trace.Instr{}
}

func (b *burstSource) PrewarmLines() (hot, warm []uint64) { return nil, nil }

// burstWorkload puts one burstSource on each listed tile (mk builds the j-th)
// and returns the profile slice NewFromSources wants beside a factory of
// fresh sources.
func burstWorkload(cfg config.Config, tiles []int, mk func(j int) burstSource) ([]trace.Profile, func() []trace.AppSource) {
	nodes := cfg.Mesh.Nodes()
	apps := make([]trace.Profile, nodes)
	for _, tile := range tiles {
		apps[tile] = trace.Profile{Name: "burst"}
	}
	return apps, func() []trace.AppSource {
		out := make([]trace.AppSource, nodes)
		for j, tile := range tiles {
			b := mk(j)
			out[tile] = &b
		}
		return out
	}
}

// expectSame fails the test unless the run labelled name matches the dense
// reference byte for byte, including the raw core and network counters that
// the summary aggregates away.
func expectSame(t *testing.T, name string, refJSON []byte, ref *Result, gotJSON []byte, got *Result) {
	t.Helper()
	if !bytes.Equal(refJSON, gotJSON) {
		t.Fatalf("%s summary differs from dense reference\n--- dense ---\n%s\n--- %s ---\n%s", name, refJSON, name, gotJSON)
	}
	if !reflect.DeepEqual(ref.CoreStats, got.CoreStats) {
		t.Fatalf("%s core stats differ:\ndense %+v\n%s %+v", name, ref.CoreStats, name, got.CoreStats)
	}
	if ref.Net != got.Net {
		t.Fatalf("%s network stats differ:\ndense %+v\n%s %+v", name, ref.Net, name, got.Net)
	}
	expectSameHistograms(t, name, ref, got)
}

// expectSameHistograms compares the per-application latency distributions —
// full bucket contents, not just the means the JSON summary carries — so a
// stepper or checkpoint path that perturbs individual samples cannot hide
// behind aggregate-level agreement.
func expectSameHistograms(t *testing.T, name string, ref, got *Result) {
	t.Helper()
	for i := range ref.Collector.RoundTrip {
		if !reflect.DeepEqual(ref.Collector.RoundTrip[i], got.Collector.RoundTrip[i]) {
			t.Fatalf("%s: tile %d round-trip latency histogram differs from reference", name, i)
		}
		if !reflect.DeepEqual(ref.Collector.SoFar[i], got.Collector.SoFar[i]) {
			t.Fatalf("%s: tile %d so-far delay histogram differs from reference", name, i)
		}
		if !reflect.DeepEqual(ref.Collector.Breakdown[i], got.Collector.Breakdown[i]) {
			t.Fatalf("%s: tile %d per-leg breakdown differs from reference", name, i)
		}
	}
}

// TestEventDenseEquivalence is the scheduler's correctness oracle, now
// three-way: the event-driven stepper AND the sharded parallel stepper (2,
// 3, 4 and 8 workers — 3 pins the non-power-of-two layout
// the contiguous-range partition made legal) must reproduce the dense
// reference cycle for cycle —
// byte-identical summaries and identical core counters (which include the
// stall and outstanding-instruction integrals the closed-form catch-up
// reconstructs) — across workloads exercising idle tiles, hard-stalled
// cores, saturation, both schemes and heterogeneous router clocks, on the
// 16-tile test machine and on the paper's non-square 4x8 mesh. Run
// under -race (make ci), this doubles as the data-race oracle for the
// boundary-queue construction.
func TestEventDenseEquivalence(t *testing.T) {
	base := smallConfig()

	hetero := smallConfig()
	// Tile 0 hosts both a core and a memory controller in smallConfig, so a
	// divisor there exercises router timed wakes on the busiest tile.
	hetero.NoC.ClockDivisors = map[int]int{0: 2, 5: 2, 10: 4}

	schemes := smallConfig().WithSchemes(true, true)
	schemes.S1.UpdatePeriod = 2_000

	// mixed_w1_half_16: the 16-core halved variant of workload 1 occupying
	// every tile of the 16-tile mesh — the moderate-occupancy mix where the
	// event stepper historically regressed.
	mixed := workloadApps(t, 1, true)

	// The paper's machine, on short windows: the non-square 4x8 mesh with
	// four corner controllers that every figure runs on.
	paper := config.Baseline32()
	paper.Run.WarmupCycles, paper.Run.MeasureCycles = 2_000, 6_000

	// Six bursty cores spread over the mesh, the rest idle, and three routers
	// below the mesh clock: every burst leaves arrivals and credit returns
	// rippling through a mesh whose div-aligned timed wakes sit on a hot path.
	bursty := paper
	bursty.NoC.ClockDivisors = map[int]int{10: 2, 13: 2, 19: 4}
	burstyApps, burstySrcs := burstWorkload(bursty, []int{2, 5, 11, 20, 26, 29}, func(j int) burstSource {
		return burstSource{burst: 200, gap: 8_000, storeEvery: 5, addr: uint64(j+1) << 30, stride: 64 * 512}
	})

	// One core issuing long all-store streams with LSQSize 1: exactly one
	// read-for-ownership is outstanding at a time while evicted dirty lines
	// pile writebacks into the controllers, which between completions have
	// nothing but internal deadlines (drain issues, refreshes, idleness
	// samples). What elides controller Ticks here is the exact NextWake
	// deadline.
	drain := paper
	drain.Run.MeasureCycles = 8_000
	drain.CPU.LSQSize = 1
	drainApps, drainSrcs := burstWorkload(drain, []int{2}, func(int) burstSource {
		return burstSource{burst: 2_000, gap: 500, storeEvery: 1, addr: 1 << 30, stride: 64 * 512}
	})

	cases := []struct {
		name string
		cfg  config.Config
		apps []trace.Profile
		srcs func() []trace.AppSource // nil: profile-driven
		// allWorkers widens the worker sweep to {2, 3, 4, 8} — 3 pins the
		// non-power-of-two layout the contiguous-range partition made legal,
		// 8 two tiles per worker on the 16-tile machine. Only the heaviest
		// workloads carry the full sweep; the rest run {2, 4} to keep the
		// raced suite's wall-clock bounded on small hosts (the skewed-hotspot
		// test below covers 3 and 8 workers too).
		allWorkers bool
		// fewerDRAMTicks requires every non-dense run to execute strictly
		// fewer controller Ticks than the dense per-cycle sweep: the same
		// bytes from less work, or the deadlines are not being used.
		fewerDRAMTicks bool
	}{
		{name: "all_idle", cfg: base, apps: make([]trace.Profile, base.Mesh.Nodes())},
		{name: "alone_mcf", cfg: base, apps: fillApps(base, "mcf", 1)},
		{name: "milc_8", cfg: base, apps: fillApps(base, "milc", 8)},
		{name: "saturated_mcf_16", cfg: base, apps: fillApps(base, "mcf", 16), allWorkers: true},
		{name: "schemes_mcf_12", cfg: schemes, apps: fillApps(schemes, "mcf", 12)},
		{name: "hetero_clocks_milc_8", cfg: hetero, apps: fillApps(hetero, "milc", 8)},
		{name: "mixed_w1_half_16", cfg: base, apps: mixed, allWorkers: true},
		{name: "idle_4x8", cfg: paper, apps: make([]trace.Profile, paper.Mesh.Nodes()), fewerDRAMTicks: true},
		{name: "bursty_hot_idle_4x8", cfg: bursty, apps: burstyApps, srcs: burstySrcs},
		{name: "store_drain_4x8", cfg: drain, apps: drainApps, srcs: drainSrcs, fewerDRAMTicks: true},
		{name: "saturated_w7_4x8", cfg: paper, apps: workloadApps(t, 7, false)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			denseJSON, denseRes, denseSim := runOnce(t, tc.cfg, tc.apps, tc.srcs, true, 1)
			if got := denseSim.DebugTickedCycles(); got != 0 {
				t.Fatalf("dense reference went through the event-driven cycle counter (%d cycles): the oracle compares the scheduler with itself", got)
			}
			denseTicks, _ := denseSim.DebugDRAMTicks()
			workerCounts := []int{1, 2, 4}
			if tc.allWorkers {
				workerCounts = []int{1, 2, 3, 4, 8}
			}
			for _, shards := range workerCounts {
				name := "event"
				if shards > 1 {
					name = fmt.Sprintf("sharded_%d", shards)
				}
				gotJSON, gotRes, gotSim := runOnce(t, tc.cfg, tc.apps, tc.srcs, false, shards)
				expectSame(t, name, denseJSON, denseRes, gotJSON, gotRes)
				if got, _ := gotSim.DebugDRAMTicks(); tc.fewerDRAMTicks && got >= denseTicks {
					t.Errorf("%s executed %d DRAM ticks, dense reference %d: nothing was elided", name, got, denseTicks)
				}
			}
		})
	}
}

// workloadApps expands one of the paper's Table-2 workloads, or its 16-core
// halved variant, into per-tile profiles.
func workloadApps(t *testing.T, id int, halve bool) []trace.Profile {
	t.Helper()
	w, err := workload.Get(id)
	if err == nil && halve {
		w, err = w.Halve()
	}
	if err != nil {
		t.Fatal(err)
	}
	apps, err := w.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	return apps
}

// TestLargeMeshRegression is the regression test for the headline bug: the
// former uint64 active-set masks silently saturated at 64 tiles, so a 16x16
// mesh ran with most of its tiles permanently excluded from event-driven
// stepping and produced wrong results with no error. The widened bitset
// implementation must instead simulate a large mesh correctly: the
// event-driven and 4-way-sharded runs reproduce the dense reference, and
// tiles beyond index 63 demonstrably make progress. The 32x32 row is the
// execution behind config.MaxMeshTiles: the largest mesh Validate admits.
func TestLargeMeshRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("256- and 1024-tile equivalence runs are slow")
	}
	for _, tc := range []struct {
		side  int
		tiles []int // mcf here: both sides of the old 64-tile boundary, out to the last tile
	}{
		{16, []int{0, 20, 63, 64, 100, 200, 255}},
		{32, []int{0, 63, 64, 255, 256, 700, 1023}},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.side, tc.side), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Mesh.Width, cfg.Mesh.Height = tc.side, tc.side
			cfg.Run.WarmupCycles = 1_000
			cfg.Run.MeasureCycles = 3_000
			apps := make([]trace.Profile, cfg.Mesh.Nodes())
			for _, tile := range tc.tiles {
				apps[tile] = trace.MustLookup("mcf")
			}
			denseJSON, denseRes, _ := runOnce(t, cfg, apps, nil, true, 1)
			eventJSON, eventRes, _ := runOnce(t, cfg, apps, nil, false, 1)
			expectSame(t, "event", denseJSON, denseRes, eventJSON, eventRes)
			shardJSON, shardRes, _ := runOnce(t, cfg, apps, nil, false, 4)
			expectSame(t, "sharded_4", denseJSON, denseRes, shardJSON, shardRes)
			for _, tile := range tc.tiles {
				if tile >= 64 && eventRes.CoreStats[tile].Retired == 0 {
					t.Errorf("tile %d retired nothing under event stepping: the active set is truncated", tile)
				}
			}
		})
	}
}

// TestIdleCyclesAreCheap pins what an idle cycle costs, since the clock never
// jumps over one: an all-idle machine stepped a million cycles executes every
// one of them, but executes no router tick, and each memory controller ticks
// only at its own deadlines — an idleness sample or a refresh.
func TestIdleCyclesAreCheap(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg, make([]trace.Profile, cfg.Mesh.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 1_000_000
	s.Step(cycles)
	if s.Now() != cycles || s.DebugTickedCycles() != cycles {
		t.Fatalf("Now = %d, executed %d cycles after Step(%d)", s.Now(), s.DebugTickedCycles(), cycles)
	}
	// Construction activates every router, so each takes one tick call on
	// the first cycle and retires; a router on the idle-cycle path would take
	// one per cycle.
	for id := 0; id < cfg.Mesh.Nodes(); id++ {
		if calls, execs, _ := s.net.DebugRouterTicks(id); calls > 1 || execs != 0 {
			t.Errorf("router %d took %d tick calls and executed %d on an idle mesh", id, calls, execs)
		}
	}
	// A controller samples idleness every 100 cycles from cycle 0.
	deadlines := int64(cycles / 100)
	if p := cfg.DRAM.RefreshPeriod; p > 0 {
		deadlines += cycles / p
	}
	if total, _ := s.DebugDRAMTicks(); total > deadlines*int64(len(s.mcs)) {
		t.Errorf("%d controllers executed %d ticks, more than their %d deadlines each", len(s.mcs), total, deadlines)
	}
}

// TestQuiesceAfterDrain runs two finite applications — a few thousand
// accesses striding whole L1 sets apart to force misses, evictions and
// writebacks, then non-memory instructions for ever — to prove the system
// runs completely dry, and that no wakeup was lost: a stranded message would
// stay parked in a queue QuiesceCheck inspects.
func TestQuiesceAfterDrain(t *testing.T) {
	cfg := smallConfig()
	apps, srcs := burstWorkload(cfg, []int{0, 5}, func(j int) burstSource {
		return burstSource{burst: 2_000 / (j + 1), gap: math.MaxInt, storeEvery: 4, addr: uint64(j) << 30, stride: 64 * 512}
	})
	s, err := NewFromSources(cfg, srcs(), apps)
	if err != nil {
		t.Fatal(err)
	}
	s.resetStats() // the collector only counts inside a measurement window
	s.Step(2_000_000)
	if err := s.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
	// The event scheduler must also reach its fixed point: no active bit or
	// router wake may leak once everything is drained.
	if err := s.net.DebugLeaks(); err != nil {
		t.Fatal(err)
	}
	r := s.results()
	if r.Collector.OffChip[0] == 0 || r.Collector.OffChip[5] == 0 {
		t.Fatalf("drain sources completed no off-chip accesses: %d / %d",
			r.Collector.OffChip[0], r.Collector.OffChip[5])
	}
}

// TestSkewedHotspotEquivalence pins the sharded stepper on the skewed load:
// a quarter of the tiles, spread over the whole mesh, issue near-continuous
// accesses that all land on the controller-0 corner, so that quadrant carries
// nearly all simulation work while the far ones idle — the shape where the
// old rectangular shard split degenerated to one busy worker, and the one
// most sensitive to partition placement. Every worker count (1, 2, 3, 4, 8)
// must reproduce the dense reference byte for byte; 3 pins a
// non-power-of-two split of the hot corner.
func TestSkewedHotspotEquivalence(t *testing.T) {
	cfg := smallConfig()
	// Six runs of this workload; a tighter window than smallConfig's keeps
	// the raced suite's wall-clock bounded without losing coverage — the
	// hotspot saturates the corner within a few hundred cycles.
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = 2_000, 8_000
	var tiles []int
	for i := 0; i < cfg.Mesh.Nodes(); i += 4 {
		tiles = append(tiles, i)
	}
	apps, srcs := burstWorkload(cfg, tiles, func(j int) burstSource {
		return burstSource{burst: 400, gap: 100, storeEvery: 5, addr: uint64(j+1) << 30, stride: 64 * 512}
	})

	denseJSON, denseRes, _ := runOnce(t, cfg, apps, srcs, true, 1)
	eventJSON, eventRes, _ := runOnce(t, cfg, apps, srcs, false, 1)
	expectSame(t, "event", denseJSON, denseRes, eventJSON, eventRes)
	for _, workers := range []int{2, 3, 4, 8} {
		gotJSON, gotRes, _ := runOnce(t, cfg, apps, srcs, false, workers)
		expectSame(t, fmt.Sprintf("sharded_%d", workers), denseJSON, denseRes, gotJSON, gotRes)
	}
}
