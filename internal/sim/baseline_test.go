package sim

import (
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// mixedHalf returns the halved mixed workload-1 for a 16-tile system.
func mixedHalf(t *testing.T) []trace.Profile { return halved(t, 1) }

// halved returns workload id halved onto a 16-tile system.
func halved(t *testing.T, id int) []trace.Profile {
	t.Helper()
	w, err := workload.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	half, err := w.Halve()
	if err != nil {
		t.Fatal(err)
	}
	apps, err := half.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	return apps
}

// TestAppAwareNetFavorsLightApps verifies the comparison baseline: with
// application-aware prioritization, the less memory-intensive applications'
// off-chip latencies improve relative to the unprioritized network.
func TestAppAwareNetFavorsLightApps(t *testing.T) {
	cfg := smallConfig()
	cfg.Run.MeasureCycles = 60_000
	apps := mixedHalf(t)

	run := func(aware bool) *Result {
		c := cfg
		c.AppAwareNet = aware
		s, err := New(c, apps)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	base, aware := run(false), run(true)

	lightLat := func(r *Result) (sum float64, n int) {
		for _, tile := range r.ActiveTiles() {
			if r.Apps[tile].MemoryIntensive() {
				continue
			}
			if h := r.Collector.RoundTrip[tile]; h.Count() > 0 {
				sum += h.Mean()
				n++
			}
		}
		return sum, n
	}
	b, nb := lightLat(base)
	a, na := lightLat(aware)
	if nb == 0 || na == 0 {
		t.Fatal("no light applications measured")
	}
	if a/float64(na) > b/float64(nb)*1.02 {
		t.Errorf("app-aware light-app latency %.0f worse than base %.0f", a/float64(na), b/float64(nb))
	}
}

// TestFCFSLosesRowHits verifies the FCFS memory-scheduler baseline: ignoring
// the row buffer must reduce the row-hit count on streaming-heavy load.
func TestFCFSLosesRowHits(t *testing.T) {
	cfg := smallConfig()
	apps := fillApps(cfg, "libquantum", 8) // heavy streaming: many row hits available

	rowHits := func(sched config.MemSched) int64 {
		c := cfg
		c.DRAM.Sched = sched
		s, err := New(c, apps)
		if err != nil {
			t.Fatal(err)
		}
		r := s.Run()
		var hits int64
		for _, d := range r.DRAM {
			hits += d.RowHits
		}
		return hits
	}
	fr, fc := rowHits(config.FRFCFS), rowHits(config.FCFS)
	if fr == 0 {
		t.Fatal("FR-FCFS found no row hits on a streaming workload")
	}
	if fc >= fr {
		t.Errorf("FCFS row hits %d >= FR-FCFS %d", fc, fr)
	}
}

// TestAppAwareMemScheduler verifies the plumbing: sensitive requests exist
// and the system still completes everything.
func TestAppAwareMemScheduler(t *testing.T) {
	cfg := smallConfig()
	cfg.DRAM.Sched = config.AppAwareMem
	apps := mixedHalf(t)
	s, err := New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	var done int64
	for _, tile := range r.ActiveTiles() {
		done += r.Collector.OffChip[tile]
		if r.IPC[tile] <= 0 {
			t.Errorf("tile %d stalled under app-aware memory scheduling", tile)
		}
	}
	if done == 0 {
		t.Fatal("no off-chip transactions completed")
	}
}

// TestBatchingModeRuns exercises the batching anti-starvation mode on a full
// system.
func TestBatchingModeRuns(t *testing.T) {
	cfg := smallConfig().WithSchemes(true, true)
	cfg.NoC.StarvationMode = config.Batching
	cfg.NoC.BatchInterval = 1000
	s, err := New(cfg, fillApps(cfg, "mcf", 8))
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	for _, tile := range r.ActiveTiles() {
		if r.IPC[tile] <= 0 {
			t.Errorf("tile %d stalled under batching arbitration", tile)
		}
	}
}

// TestInclusiveBackInvalidation verifies the directory: when the L2 evicts a
// line, sharer L1s are invalidated over the network and dirty copies are
// written back to memory.
func TestInclusiveBackInvalidation(t *testing.T) {
	cfg := smallConfig()
	// Small pointer-chasing working sets with heavy cold streaming force
	// L2 evictions of lines some L1 still caches.
	apps := fillApps(cfg, "mcf", 16)
	s, err := New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	if r.Collector.Invalidations == 0 {
		t.Fatal("no back-invalidations sent despite L2 pressure")
	}
	// The system must remain live and conservative under the extra
	// message class.
	for _, tile := range r.ActiveTiles() {
		if r.IPC[tile] <= 0 {
			t.Errorf("tile %d stalled", tile)
		}
	}
}
