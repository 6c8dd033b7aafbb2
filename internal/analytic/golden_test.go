package analytic_test

import (
	"fmt"
	"testing"

	"nocmem/internal/analytic"
	"nocmem/internal/config"
	"nocmem/internal/sim"
	"nocmem/internal/stats"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// scenario is one golden calibration point: a configuration plus per-tile
// profiles, simulated cycle-accurately and compared against the model.
type scenario struct {
	name string
	cfg  config.Config
	apps []trace.Profile
}

// pad extends apps with idle tiles to the mesh size.
func pad(cfg config.Config, apps []trace.Profile) []trace.Profile {
	out := make([]trace.Profile, cfg.Mesh.Nodes())
	copy(out, apps)
	return out
}

func mustProfiles(t testing.TB, id int, halve bool) []trace.Profile {
	t.Helper()
	w, err := workload.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if halve {
		if w, err = w.Halve(); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := w.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// shortRun scales the measurement protocol down to test length.
func shortRun(cfg config.Config, warm, measure int64) config.Config {
	cfg.Run.WarmupCycles = warm
	cfg.Run.MeasureCycles = measure
	cfg.S1.UpdatePeriod = measure / 15
	return cfg
}

// mesh256 is the 16x16 geometry point: 256 tiles, 4 corner MCs, a moderate
// mix of 16 apps scattered one per row on distinct columns (7 is coprime
// with 16). Scattering matters: stacking the apps in one column funnels all
// XY-routed responses through that column's vertical links and saturates
// them — a hotspot regime the steady-state model deliberately does not
// carry (see ARCHITECTURE.md, "known-bad regimes").
func mesh256() (config.Config, []trace.Profile) {
	cfg := config.Baseline32()
	cfg.Mesh = config.Mesh{Width: 16, Height: 16}
	apps := make([]trace.Profile, cfg.Mesh.Nodes())
	names := []string{"omnetpp", "sphinx3", "astar", "xalancbmk"}
	for y := 0; y < cfg.Mesh.Height; y++ {
		apps[y*cfg.Mesh.Width+(y*7)%cfg.Mesh.Width] = trace.MustLookup(names[y%len(names)])
	}
	return cfg, apps
}

func goldenScenarios(t testing.TB) []scenario {
	base := config.Baseline32()
	w7 := mustProfiles(t, 7, false)
	w1h := mustProfiles(t, 1, true)
	cfg256, apps256 := mesh256()
	return []scenario{
		{
			name: "alone_namd_32",
			cfg:  shortRun(base, 50_000, 200_000),
			apps: pad(base, []trace.Profile{trace.MustLookup("namd")}),
		},
		{
			name: "alone_mcf_32",
			cfg:  shortRun(base, 50_000, 200_000),
			apps: pad(base, []trace.Profile{trace.MustLookup("mcf")}),
		},
		{
			name: "saturated_w7_32",
			cfg:  shortRun(base, 100_000, 200_000),
			apps: pad(base, w7),
		},
		{
			name: "saturated_w7_32_s1",
			cfg:  shortRun(base.WithSchemes(true, false), 100_000, 200_000),
			apps: pad(base, w7),
		},
		{
			name: "saturated_w7_32_s1s2",
			cfg:  shortRun(base.WithSchemes(true, true), 100_000, 200_000),
			apps: pad(base, w7),
		},
		{
			name: "mixed_w1_half_16",
			cfg:  shortRun(config.Baseline16(), 100_000, 200_000),
			apps: pad(config.Baseline16(), w1h),
		},
		{
			name: "mesh_16x16_sparse",
			cfg:  shortRun(cfg256, 50_000, 120_000),
			apps: apps256,
		},
	}
}

// TestGoldenCrossCheck pins the calibrated band: on every canonical
// scenario the model's aggregate per-leg latencies stay within
// CalibratedBand of the cycle-accurate simulator, and the oracle raises no
// structural flags. Run with -v to see the per-leg comparison (the
// calibration workflow: tune calib.go until the table is inside the band).
func TestGoldenCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("golden cross-check simulates full scenarios")
	}
	for _, sc := range goldenScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			s, err := sim.New(sc.cfg, sc.apps)
			if err != nil {
				t.Fatal(err)
			}
			sum := s.Run().Summary()
			est, err := analytic.Predict(sc.cfg, sc.apps)
			if err != nil {
				t.Fatal(err)
			}
			rep := est.CrossCheck(sum, analytic.CalibratedBand)
			logReport(t, rep)
			if len(sum.MCs) > 0 {
				mc := sum.MCs[0]
				t.Logf("diag: model rowhit %.2f q %.1f svc %.1f util %.2f s1 %.2f s2 %.2f | sim rowhit %.2f q %.1f s1 %.2f s2 %.2f",
					est.RowHitRate, est.MCQueueDelay, est.MCServiceTime, est.LinkUtilization,
					est.S1TaggedFrac, est.S2TaggedFrac, mc.RowHitRate, mc.AvgQueue, sum.S1TaggedFrac, sum.S2TaggedFrac)
				var ipcM, ipcS float64
				for _, a := range est.Apps {
					ipcM += a.IPC
				}
				for _, a := range sum.Apps {
					ipcS += a.IPC
				}
				t.Logf("diag: model sumIPC %.2f | sim sumIPC %.2f", ipcM, ipcS)
			}
			if rep.MaxLegErr > analytic.CalibratedBand {
				t.Errorf("max per-leg error %.0f%% exceeds the %.0f%% calibrated band",
					100*rep.MaxLegErr, 100*analytic.CalibratedBand)
			}
			for _, f := range rep.Flags {
				if f.Kind == "dead-tile" {
					t.Errorf("oracle flagged a healthy run: %s %s: %s", f.Tile, f.App, f.Detail)
				}
			}
		})
	}
}

func logReport(t *testing.T, rep *analytic.Report) {
	t.Helper()
	for l := stats.Leg(0); l < stats.NumLegs; l++ {
		e := rep.Legs[l]
		t.Logf("%-9s model %8.1f  sim %8.1f  err %5.1f%%", l, e.Model, e.Sim, 100*e.RelErr)
	}
	t.Logf("%-9s model %8.1f  sim %8.1f  err %5.1f%%", "total", rep.Total.Model, rep.Total.Sim, 100*rep.Total.RelErr)
	t.Logf("%-9s model %8.1f  sim %8.1f  err %5.1f%%", "net", rep.Net.Model, rep.Net.Sim, 100*rep.Net.RelErr)
	for _, f := range rep.Flags {
		t.Logf("flag: %s %s %s: %s", f.Kind, f.Tile, f.App, f.Detail)
	}
}

// TestEstimateSummaryShape checks the -estimate rendering contract: the
// summary carries the Estimated marker, the simulator's field population
// (apps, MCs, percentile ordering), and zero simulated cycles are needed.
func TestEstimateSummaryShape(t *testing.T) {
	cfg := config.Baseline32()
	apps := pad(cfg, mustProfiles(t, 7, false))
	e, err := analytic.Predict(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	sum := e.Summary()
	if !sum.Estimated {
		t.Error("summary not marked estimated")
	}
	if len(sum.Apps) != 32 {
		t.Fatalf("%d apps, want 32", len(sum.Apps))
	}
	if len(sum.MCs) != cfg.DRAM.Controllers {
		t.Fatalf("%d MCs, want %d", len(sum.MCs), cfg.DRAM.Controllers)
	}
	for _, a := range sum.Apps {
		if a.IPC <= 0 || a.IPC > float64(cfg.CPU.Width) {
			t.Errorf("%s: IPC %v out of range", a.App, a.IPC)
		}
		if a.MeanLatency <= 0 {
			t.Errorf("%s: non-positive latency", a.App)
		}
		if !(a.P50Latency <= a.P90Latency && a.P90Latency <= a.P99Latency) {
			t.Errorf("%s: percentiles not ordered: %d/%d/%d", a.App, a.P50Latency, a.P90Latency, a.P99Latency)
		}
		var total float64
		for _, v := range a.Legs {
			if v <= 0 {
				t.Errorf("%s: non-positive leg in %v", a.App, a.Legs)
			}
			total += v
		}
		if d := total - a.MeanLatency; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s: legs sum %v != mean latency %v", a.App, total, a.MeanLatency)
		}
	}
}

// TestPredictDeterministic: the fixed point must be reproducible, and a
// placement shorter than the mesh predicts what its idle-padded copy does
// (no caller pads).
func TestPredictDeterministic(t *testing.T) {
	cfg := config.Baseline32()
	short := mustProfiles(t, 3, true)
	var got [3]string
	for i, apps := range [][]trace.Profile{short, short, pad(cfg, short)} {
		e, err := analytic.Predict(cfg, apps)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = fmt.Sprintf("%+v", e.Apps)
	}
	if got[0] != got[1] {
		t.Error("Predict is not deterministic")
	}
	if got[0] != got[2] {
		t.Error("Predict(short) differs from Predict(padded)")
	}
}

// TestPredictRejectsInvalid: config validation must run before any math.
func TestPredictRejectsInvalid(t *testing.T) {
	cfg := config.Baseline32()
	cfg.DRAM.Controllers = 3
	if _, err := analytic.Predict(cfg, nil); err == nil {
		t.Error("invalid config accepted")
	}
	cfg = config.Baseline32()
	if _, err := analytic.Predict(cfg, make([]trace.Profile, 100)); err == nil {
		t.Error("too many apps accepted")
	}
}

// TestPredictIdle: an empty workload yields an empty, finite estimate.
func TestPredictIdle(t *testing.T) {
	cfg := config.Baseline32()
	e, err := analytic.Predict(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Apps) != 0 || e.NetLatency != 0 {
		t.Errorf("idle estimate not empty: %+v", e)
	}
}
