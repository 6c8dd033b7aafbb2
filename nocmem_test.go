package nocmem

import (
	"os"
	"sync"
	"testing"

	"nocmem/internal/trace"
)

func quickCfg() Config {
	cfg := Baseline16()
	cfg.Run.WarmupCycles = 5_000
	cfg.Run.MeasureCycles = 20_000
	cfg.S1.UpdatePeriod = 2_000
	return cfg
}

func TestWorkloadsAccessors(t *testing.T) {
	if got := len(Workloads()); got != 18 {
		t.Fatalf("%d workloads", got)
	}
	w, err := GetWorkload(7)
	if err != nil || w.Category != MemIntensive {
		t.Fatalf("GetWorkload(7) = %+v, %v", w, err)
	}
	if _, err := GetWorkload(0); err == nil {
		t.Fatal("workload 0 accepted")
	}
	if len(Apps()) < 28 {
		t.Fatal("missing application profiles")
	}
	if _, err := LookupApp("mcf"); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupApp("nope"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunWorkloadOnSmallSystem(t *testing.T) {
	cfg := quickCfg()
	w, err := GetWorkload(7)
	if err != nil {
		t.Fatal(err)
	}
	half, err := w.Halve()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunWorkload(cfg, half)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ActiveTiles()) != 16 {
		t.Fatalf("%d active tiles", len(r.ActiveTiles()))
	}
	ws, err := WeightedSpeedup(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if ws <= 0 || ws > 16 {
		t.Errorf("weighted speedup %.2f out of (0, 16]", ws)
	}
}

func TestRunWorkloadRejectsOversize(t *testing.T) {
	cfg := quickCfg()        // 16 tiles
	w, err := GetWorkload(7) // 32 applications
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(cfg, w); err == nil {
		t.Fatal("32 applications accepted on a 16-tile mesh")
	}
}

func TestAloneIPCCached(t *testing.T) {
	cfg := quickCfg()
	app, err := LookupApp("sjeng")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := AloneIPC(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	// Second call must hit the cache and return the identical value even
	// if schemes are toggled (alone runs are always unprioritized).
	v2, err := AloneIPC(cfg.WithSchemes(true, true), app)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Errorf("alone IPC not cached/scheme-independent: %v vs %v", v1, v2)
	}
	if v1 <= 0 {
		t.Errorf("alone IPC %v", v1)
	}
}

func TestSpeedupForProducesAllVariants(t *testing.T) {
	cfg := quickCfg()
	w, err := GetWorkload(13)
	if err != nil {
		t.Fatal(err)
	}
	half, err := w.Halve()
	if err != nil {
		t.Fatal(err)
	}
	row, err := SpeedupFor(cfg, half)
	if err != nil {
		t.Fatal(err)
	}
	if row.Base == nil || row.S1 == nil || row.S1S2 == nil {
		t.Fatal("missing variant results")
	}
	if row.BaseWS <= 0 || row.NormS1 <= 0 || row.NormS1S2 <= 0 {
		t.Errorf("speedups %+v", row)
	}
	// Normalized values should stay within a plausible band.
	for _, v := range []float64{row.NormS1, row.NormS1S2} {
		if v < 0.8 || v > 1.3 {
			t.Errorf("normalized speedup %v implausible", v)
		}
	}
	// Sharing the machine slows every application down at least a little.
	slow, harmonic, err := Fairness(cfg, row.Base)
	if err != nil {
		t.Fatal(err)
	}
	if slow < 1 || harmonic <= 0 || harmonic > 1 {
		t.Errorf("max slowdown %v (want >= 1), harmonic speedup %v (want in (0, 1])", slow, harmonic)
	}
}

// TestStatsCountOneExecutionCore: every package-level helper runs on the one
// default runner, so Stats sees the shared runs (never cached: labels do not
// identify a facade placement) and the alone runs (cached per application).
func TestStatsCountOneExecutionCore(t *testing.T) {
	SetShareWarmup(false) // fresh runner: empty caches, zero counters
	cfg := quickCfg()
	w, err := GetWorkload(13)
	if err != nil {
		t.Fatal(err)
	}
	half, err := w.Halve()
	if err != nil {
		t.Fatal(err)
	}
	distinct := int64(len(half.Apps))
	if _, err := SpeedupFor(cfg, half); err != nil {
		t.Fatal(err)
	}
	first := Stats()
	if first.Executed != 3+distinct || first.Runs != first.Executed+first.CacheHits {
		t.Errorf("first SpeedupFor: %+v, want %d executed (3 shared + %d alone)", first, 3+distinct, distinct)
	}
	if _, err := SpeedupFor(cfg, half); err != nil {
		t.Fatal(err)
	}
	second := Stats()
	if d := second.Executed - first.Executed; d != 3 {
		t.Errorf("second SpeedupFor executed %d simulations, want only the 3 shared runs", d)
	}
	if second.Runs-first.Runs != 3+(second.CacheHits-first.CacheHits) {
		t.Errorf("second SpeedupFor: alone requests not all cache hits: %+v -> %+v", first, second)
	}
}

// TestAloneIPCSingleflight: concurrent callers of one alone point share one
// simulation — and with warmup sharing on, that run is one warmup plus one
// fork. Run under -race.
func TestAloneIPCSingleflight(t *testing.T) {
	defer SetShareWarmup(false)
	cfg := quickCfg()
	app, err := LookupApp("milc")
	if err != nil {
		t.Fatal(err)
	}
	for _, share := range []bool{false, true} {
		SetShareWarmup(share)
		var wg sync.WaitGroup
		ipcs := make([]float64, 8)
		for i := range ipcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := AloneIPC(cfg, app)
				if err != nil {
					t.Error(err)
				}
				ipcs[i] = v
			}()
		}
		wg.Wait()
		for _, v := range ipcs {
			if v != ipcs[0] || v <= 0 {
				t.Fatalf("share=%v: callers saw different alone IPCs: %v", share, ipcs)
			}
		}
		st := Stats()
		if st.Runs != 8 || st.Executed != 1 || st.CacheHits != 7 {
			t.Errorf("share=%v: %+v, want 8 requests, 1 executed, 7 cache hits", share, st)
		}
		if want := map[bool]int64{false: 0, true: 1}[share]; st.Warmups != want || st.Forked != want {
			t.Errorf("share=%v: %d warmups, %d forked, want %d each", share, st.Warmups, st.Forked, want)
		}
	}
}

func TestRunTracesRoundTrip(t *testing.T) {
	cfg := quickCfg()
	app, err := LookupApp("sphinx3")
	if err != nil {
		t.Fatal(err)
	}
	// Record a short trace via the library path and replay it.
	dir := t.TempDir()
	path := dir + "/app.trace"
	if err := recordTrace(path, app, 0, cfg); err != nil {
		t.Fatal(err)
	}
	ft, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTraces(cfg, []*trace.FileTrace{ft, nil}, []string{"sphinx3-replay"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ActiveTiles()) != 1 || r.Apps[0].Name != "sphinx3-replay" {
		t.Fatalf("active tiles %v name %q", r.ActiveTiles(), r.Apps[0].Name)
	}
	if r.IPC[0] <= 0 {
		t.Errorf("replayed IPC %v", r.IPC[0])
	}
}

// recordTrace captures a short synthetic stream to a file.
func recordTrace(path string, app Profile, coreID int, cfg Config) error {
	g, err := trace.NewGenerator(app, coreID, cfg.L1.LineBytes, cfg.Run.Seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Record(f, g, 200_000); err != nil {
		return err
	}
	return f.Close()
}
