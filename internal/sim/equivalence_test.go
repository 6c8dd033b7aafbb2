package sim

import (
	"bytes"
	"fmt"
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
// sequential stepper.
func runOnce(t *testing.T, cfg config.Config, apps []trace.Profile, dense bool, shards int) ([]byte, *Result, *Simulator) {
	t.Helper()
	cfg.Run.Shards = shards
	s, err := New(cfg, apps)
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
// 3, 4 and 8 workers, work stealing on — 3 pins the non-power-of-two layout
// the contiguous-range partition made legal) must reproduce the dense
// reference cycle for cycle —
// byte-identical summaries and identical core counters (which include the
// stall and outstanding-instruction integrals the closed-form catch-up
// reconstructs) — across workloads exercising idle tiles, hard-stalled
// cores, saturation, both schemes and heterogeneous router clocks. Run
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

	// The bench harness's mixed_w1_half_16 shape: the 16-core halved variant
	// of workload 1 occupying every tile of the 16-tile mesh — the moderate-
	// occupancy mix where the event stepper historically regressed.
	w1, err := workload.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := w1.Halve()
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := half.Profiles()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		cfg  config.Config
		apps []trace.Profile
		// wantTicked, when nonzero, pins the event stepper's executed-cycle
		// count (every shard count must match). On an always-busy workload
		// every cycle must execute; a timed wake silently skipped by wake
		// coalescing would let the quiescence fast-forward jump over due
		// work, and this counter is the direct witness — it under-counts
		// even when the summary happens to agree.
		wantTicked int64
		// allWorkers widens the worker sweep to {2, 3, 4, 8} — 3 pins the
		// non-power-of-two layout the contiguous-range partition made legal,
		// 8 the chunks-per-worker floor. Only the heaviest workloads carry
		// the full sweep; the rest run {2, 4} to keep the raced suite's
		// wall-clock bounded on small hosts (the skewed-hotspot test below
		// covers 8 workers with stealing on and off separately).
		allWorkers bool
	}{
		{"all_idle", base, make([]trace.Profile, base.Mesh.Nodes()), 0, false},
		{"alone_mcf", base, fillApps(base, "mcf", 1), 0, false},
		{"milc_8", base, fillApps(base, "milc", 8), 0, false},
		{"saturated_mcf_16", base, fillApps(base, "mcf", 16), 0, true},
		{"schemes_mcf_12", schemes, fillApps(schemes, "mcf", 12), 0, false},
		{"hetero_clocks_milc_8", hetero, fillApps(hetero, "milc", 8), 0, false},
		{"mixed_w1_half_16", base, mixed, base.Run.WarmupCycles + base.Run.MeasureCycles, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			denseJSON, denseRes, denseSim := runOnce(t, tc.cfg, tc.apps, true, 1)
			if got := denseSim.DebugTickedCycles(); got != 0 {
				t.Fatalf("dense reference went through the event-driven cycle counter (%d cycles): the oracle compares the scheduler with itself", got)
			}
			eventJSON, eventRes, eventSim := runOnce(t, tc.cfg, tc.apps, false, 1)
			expectSame(t, "event", denseJSON, denseRes, eventJSON, eventRes)
			if tc.wantTicked != 0 {
				if got := eventSim.DebugTickedCycles(); got != tc.wantTicked {
					t.Errorf("event stepper executed %d cycles, want %d", got, tc.wantTicked)
				}
			}
			workerCounts := []int{2, 4}
			if tc.allWorkers {
				workerCounts = []int{2, 3, 4, 8}
			}
			for _, shards := range workerCounts {
				name := fmt.Sprintf("sharded_%d", shards)
				gotJSON, gotRes, gotSim := runOnce(t, tc.cfg, tc.apps, false, shards)
				expectSame(t, name, denseJSON, denseRes, gotJSON, gotRes)
				if tc.wantTicked != 0 {
					if got := gotSim.DebugTickedCycles(); got != tc.wantTicked {
						t.Errorf("%s executed %d cycles, want %d", name, got, tc.wantTicked)
					}
				}
			}
		})
	}
}

// TestLargeMeshRegression is the regression test for the headline bug: the
// former uint64 active-set masks silently saturated at 64 tiles, so a 16x16
// mesh ran with most of its tiles permanently excluded from event-driven
// stepping and produced wrong results with no error. The widened bitset
// implementation must instead simulate a 256-tile mesh correctly: the
// event-driven and 4-way-sharded runs reproduce the dense reference, and
// tiles beyond index 63 demonstrably make progress.
func TestLargeMeshRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("256-tile equivalence run is slow")
	}
	cfg := smallConfig()
	cfg.Mesh.Width, cfg.Mesh.Height = 16, 16
	cfg.Run.WarmupCycles = 1_000
	cfg.Run.MeasureCycles = 3_000
	apps := make([]trace.Profile, cfg.Mesh.Nodes())
	p := trace.MustLookup("mcf")
	// Activity on both sides of the old 64-tile truncation boundary.
	for _, tile := range []int{0, 20, 63, 64, 100, 200, 255} {
		apps[tile] = p
	}
	denseJSON, denseRes, _ := runOnce(t, cfg, apps, true, 1)
	eventJSON, eventRes, _ := runOnce(t, cfg, apps, false, 1)
	expectSame(t, "event", denseJSON, denseRes, eventJSON, eventRes)
	shardJSON, shardRes, _ := runOnce(t, cfg, apps, false, 4)
	expectSame(t, "sharded_4", denseJSON, denseRes, shardJSON, shardRes)
	for _, tile := range []int{64, 100, 200, 255} {
		if eventRes.CoreStats[tile].Retired == 0 {
			t.Errorf("tile %d retired nothing under event stepping: the active set is truncated", tile)
		}
	}
}

// TestEventFastForwardsIdle proves the quiescence fast-forward actually
// skips work: an all-idle system only executes the cycles on which a memory
// controller samples idleness (every 100 cycles) or refreshes, a tiny
// fraction of simulated time.
func TestEventFastForwardsIdle(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg, make([]trace.Profile, cfg.Mesh.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 1_000_000
	s.Step(cycles)
	if s.Now() != cycles {
		t.Fatalf("Now = %d after Step(%d)", s.Now(), cycles)
	}
	if got := s.DebugTickedCycles(); got > cycles/20 {
		t.Fatalf("executed %d of %d cycles; fast-forward is not engaging", got, cycles)
	}
}

// drainSource is a finite synthetic application: count memory accesses
// (every fourth a store) striding whole L1 sets apart to force misses,
// evictions and writebacks, then non-memory instructions forever. Used to
// prove the system runs completely dry — and that no wakeup was lost, since
// a stranded message would stay parked in a queue QuiesceCheck inspects.
type drainSource struct {
	left   int
	addr   uint64
	stride uint64
}

func (d *drainSource) Next() trace.Instr {
	if d.left <= 0 {
		return trace.Instr{}
	}
	d.left--
	a := d.addr
	d.addr += d.stride
	return trace.Instr{IsMem: true, IsStore: d.left%4 == 0, Addr: a}
}

func (d *drainSource) PrewarmLines() (hot, warm []uint64) { return nil, nil }

func TestQuiesceAfterDrain(t *testing.T) {
	cfg := smallConfig()
	nodes := cfg.Mesh.Nodes()
	srcs := make([]trace.AppSource, nodes)
	apps := make([]trace.Profile, nodes)
	srcs[0] = &drainSource{left: 2_000, stride: 64 * 512}
	apps[0] = trace.Profile{Name: "drain"}
	srcs[5] = &drainSource{left: 1_000, addr: 1 << 30, stride: 64 * 512}
	apps[5] = trace.Profile{Name: "drain"}
	s, err := NewFromSources(cfg, srcs, apps)
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

// hotspotSource issues an endless stream of memory accesses whose stride (64
// lines x 512) pins every request to DRAM controller 0 and L2 bank 0 — both
// resident at tile 0's mesh corner. With several of these running, the
// corner quadrant carries nearly all simulation work while the far quadrants
// idle: the load shape where the old rectangular shard split degenerated to
// one busy worker, and the one most sensitive to partition placement and
// steal ordering.
type hotspotSource struct {
	addr uint64
}

func (h *hotspotSource) Next() trace.Instr {
	a := h.addr
	h.addr += 64 * 512
	return trace.Instr{IsMem: true, IsStore: h.addr%5 == 0, Addr: a}
}

func (h *hotspotSource) PrewarmLines() (hot, warm []uint64) { return nil, nil }

// skewedWorkload puts hotspot sources on a quarter of the tiles, spread over
// the whole mesh, all hammering the controller-0 corner.
func skewedWorkload(cfg config.Config) ([]trace.Profile, func() []trace.AppSource) {
	nodes := cfg.Mesh.Nodes()
	apps := make([]trace.Profile, nodes)
	var tiles []int
	for i := 0; i < nodes; i += 4 {
		apps[i] = trace.Profile{Name: "hotspot"}
		tiles = append(tiles, i)
	}
	srcs := func() []trace.AppSource {
		out := make([]trace.AppSource, nodes)
		for j, tile := range tiles {
			out[tile] = &hotspotSource{addr: uint64(j+1) << 30}
		}
		return out
	}
	return apps, srcs
}

// TestSkewedHotspotEquivalence pins the sharded stepper on the skewed load:
// every worker count (1, 2, 4, 8), with work stealing enabled and disabled,
// must reproduce the dense reference byte for byte even though nearly all
// work lands in one corner of the mesh. Under -race (make ci) this is also
// the data-race oracle for the stealing fast path: stolen chunks of the hot
// quadrant execute on whichever worker claims them while the cold quadrants'
// owners go idle and steal.
func TestSkewedHotspotEquivalence(t *testing.T) {
	cfg := smallConfig()
	// Seven runs of this workload; a tighter window than smallConfig's keeps
	// the raced suite's wall-clock bounded without losing coverage — the
	// hotspot saturates the corner within a few hundred cycles.
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = 2_000, 8_000
	apps, srcs := skewedWorkload(cfg)

	run := func(dense bool, shards int, noSteal bool) ([]byte, *Result) {
		t.Helper()
		c := cfg
		c.Run.Shards = shards
		c.Run.NoSteal = noSteal
		s, err := NewFromSources(c, srcs(), apps)
		if err != nil {
			t.Fatal(err)
		}
		s.SetDenseStepping(dense)
		r := s.Run()
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), r
	}

	denseJSON, denseRes := run(true, 1, false)
	eventJSON, eventRes := run(false, 1, false)
	expectSame(t, "event", denseJSON, denseRes, eventJSON, eventRes)
	for _, workers := range []int{2, 4, 8} {
		for _, noSteal := range []bool{false, true} {
			name := fmt.Sprintf("sharded_%d_steal_%v", workers, !noSteal)
			gotJSON, gotRes := run(false, workers, noSteal)
			expectSame(t, name, denseJSON, denseRes, gotJSON, gotRes)
		}
	}
}
