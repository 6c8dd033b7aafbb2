package nocmem

import (
	"os"
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

// TestSpeedupForKeepsPlacementsApart: a halved workload keeps its parent's
// Name(), so the shared runs of SpeedupFor must not be cached by label — on
// the 32-tile machine the full and the halved mix each read their own runs.
func TestSpeedupForKeepsPlacementsApart(t *testing.T) {
	cfg := Baseline32()
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles, cfg.S1.UpdatePeriod = 2_000, 6_000, 400
	w, err := GetWorkload(13)
	if err != nil {
		t.Fatal(err)
	}
	half, err := w.Halve()
	if err != nil {
		t.Fatal(err)
	}
	if half.Name() != w.Name() {
		t.Fatalf("halved workload renamed %q -> %q: the test no longer pins anything", w.Name(), half.Name())
	}
	var rows [2]SpeedupRow
	for i, wl := range []Workload{half, w, half} {
		row, err := SpeedupFor(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*Result{row.Base, row.S1, row.S1S2} {
			if got := len(res.ActiveTiles()); got != wl.Size() {
				t.Errorf("%s of %d applications: a shared run has %d active tiles", wl.Name(), wl.Size(), got)
			}
		}
		if i < 2 {
			rows[i] = row
		} else if row.BaseWS != rows[0].BaseWS || row.NormS1S2 != rows[0].NormS1S2 {
			t.Errorf("halved mix after the full one: %+v, first %+v", row, rows[0])
		}
	}
	if rows[0].BaseWS == rows[1].BaseWS {
		t.Errorf("halved and full mix share base WS %v", rows[0].BaseWS)
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
