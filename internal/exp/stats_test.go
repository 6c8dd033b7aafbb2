package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/par"
	"nocmem/internal/trace"
)

// statsGrid is an 8-point policy sweep on one substrate: every point differs
// only in policy dimensions (schemes, app-aware baselines, memory scheduler),
// so all 8 share a single warmup snapshot group.
func statsGrid() []config.Config {
	base := config.Baseline16()
	base.Run.WarmupCycles = 2_000
	base.Run.MeasureCycles = 4_000
	base.S1.UpdatePeriod = 1_000

	var grid []config.Config
	for _, s := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		grid = append(grid, base.WithSchemes(s[0], s[1]))
	}
	appNet := base
	appNet.AppAwareNet = true
	appMem := base
	appMem.DRAM.Sched = config.AppAwareMem
	fcfs := base
	fcfs.DRAM.Sched = config.FCFS
	thr := base.WithSchemes(true, true)
	thr.S1.ThresholdFactor = 1.3
	grid = append(grid, appNet, appMem, fcfs, thr)
	return grid
}

// TestStatsPolicySweep pins the provenance counters of an 8-config policy
// sweep with warmup sharing: one warmup window, every measurement run forked
// from it (the issue's floor is forked >= 6), exactly one execution per
// unique key, and a repeat of the grid absorbed entirely by the run cache.
func TestStatsPolicySweep(t *testing.T) {
	grid := statsGrid()
	apps := []trace.Profile{trace.MustLookup("mcf"), trace.MustLookup("lbm")}
	r := NewRunner(Options{ShareWarmup: true})

	runAll := func() {
		t.Helper()
		for _, cfg := range grid {
			if _, err := r.RunConfig(cfg, apps, "mcf+lbm"); err != nil {
				t.Fatal(err)
			}
		}
	}

	runAll()
	st := r.Stats()
	if st.Runs != 8 || st.Executed != 8 || st.CacheHits != 0 {
		t.Errorf("first pass: runs=%d executed=%d hits=%d, want 8/8/0", st.Runs, st.Executed, st.CacheHits)
	}
	if st.Warmups != 1 {
		t.Errorf("first pass executed %d warmups, want 1 (all 8 points share one snapshot group)", st.Warmups)
	}
	if st.Forked < 6 {
		t.Errorf("first pass forked %d runs, want >= 6", st.Forked)
	}
	if st.Forked != st.Executed {
		t.Errorf("forked %d of %d executed runs — some point fell out of the snapshot group", st.Forked, st.Executed)
	}
	// 8 forks draw on one snapshot: the producer's own request plus 7
	// in-memory hits, and nothing from disk (no store is attached).
	if st.SnapshotMemHits != 7 {
		t.Errorf("%d snapshot mem hits, want 7", st.SnapshotMemHits)
	}
	if st.SnapshotDiskHits != 0 || st.SnapshotEvictions != 0 {
		t.Errorf("disk hits %d, evictions %d, want 0/0 (no store attached)", st.SnapshotDiskHits, st.SnapshotEvictions)
	}

	// The identical grid again: all cache, no new work of any kind.
	runAll()
	st2 := r.Stats()
	if st2.Runs != 16 || st2.Executed != 8 || st2.CacheHits != 8 {
		t.Errorf("second pass: runs=%d executed=%d hits=%d, want 16/8/8", st2.Runs, st2.Executed, st2.CacheHits)
	}
	if st2.Warmups != 1 || st2.Forked != st.Forked {
		t.Errorf("second pass did fresh work: warmups=%d forked=%d", st2.Warmups, st2.Forked)
	}
}

// TestStatsColdRunner pins the counters without warmup sharing: every run
// executes cold, so the fork-cache counters all stay zero.
func TestStatsColdRunner(t *testing.T) {
	grid := statsGrid()[:2]
	apps := []trace.Profile{trace.MustLookup("milc")}
	r := NewRunner(Options{})
	for _, cfg := range grid {
		if _, err := r.RunConfig(cfg, apps, "milc"); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Runs != 2 || st.Executed != 2 || st.CacheHits != 0 {
		t.Errorf("runs=%d executed=%d hits=%d, want 2/2/0", st.Runs, st.Executed, st.CacheHits)
	}
	if st.Warmups != 0 || st.Forked != 0 || st.SnapshotMemHits != 0 {
		t.Errorf("cold runner touched the fork cache: %+v", st)
	}
}

// TestSpeedupsRequestCounts pins the request sequence of Speedups on the
// benchmark's fig11 sweep: three shared runs per workload and one alone run
// per distinct application, each asked for once — so a first call is all
// executions, a second all recalls, at every pool width.
func TestSpeedupsRequestCounts(t *testing.T) {
	ws, err := workloads([]int{1, 7, 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2} {
		r := NewRunner(Options{WarmupCycles: 200, MeasureCycles: 800, Seed: 1, ThresholdPushPeriod: 400, Parallelism: width})
		if _, err := r.Speedups(config.Baseline32(), ws); err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Runs != 36 || st.Executed != 36 || st.CacheHits != 0 {
			t.Errorf("Parallelism %d: runs=%d executed=%d hits=%d, want 36/36/0", width, st.Runs, st.Executed, st.CacheHits)
		}
		if _, err := r.Speedups(config.Baseline32(), ws); err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Runs != 72 || st.Executed != 36 || st.CacheHits != 36 {
			t.Errorf("Parallelism %d, second call: runs=%d executed=%d hits=%d, want 72/36/36", width, st.Runs, st.Executed, st.CacheHits)
		}
	}
}

// TestRunSummaryKeepsBytes pins the daemon's path through the run cache:
// concurrent RunSummary requests of one key execute once and share the
// summary bytes, the slot keeps those bytes and no Result, and a key that the
// other entry point started is served across — a RunConfig key's Result is
// summarised on a RunSummary hit, and a RunSummary key, which has no Result,
// is executed afresh by RunConfig — with the same bytes and honest counts.
func TestRunSummaryKeepsBytes(t *testing.T) {
	grid := statsGrid()[:2]
	apps := []trace.Profile{trace.MustLookup("milc")}
	r := NewRunner(Options{Parallelism: 2})

	sums := make([][]byte, 4)
	g := par.NewGroup(len(sums))
	for i := range sums {
		g.Go(func() (err error) {
			sums[i], err = r.RunSummary(grid[0], apps, "milc")
			return err
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		if !bytes.Equal(sums[i], sums[0]) {
			t.Fatalf("request %d read other bytes", i)
		}
	}
	if st := r.Stats(); st.Runs != 4 || st.Executed != 1 || st.CacheHits != 3 {
		t.Errorf("runs=%d executed=%d hits=%d, want 4/1/3", st.Runs, st.Executed, st.CacheHits)
	}
	if e := r.runs[RunKey(grid[0], "milc")]; e.res != nil || !bytes.Equal(e.sum, sums[0]) {
		t.Error("the run cache keeps a Result, or not the summary bytes, for a RunSummary key")
	}

	res, err := r.RunConfig(grid[0], apps, "milc")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(res.Summary()); !bytes.Equal(got, sums[0]) {
		t.Error("RunConfig of a RunSummary key differs from its bytes")
	}
	if _, err := r.RunConfig(grid[1], apps, "milc"); err != nil {
		t.Fatal(err)
	}
	got, err := r.RunSummary(grid[1], apps, "milc")
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(r.runs[RunKey(grid[1], "milc")].res.Summary()); !bytes.Equal(got, want) {
		t.Error("RunSummary of a RunConfig key differs from its Result's summary")
	}
	if st := r.Stats(); st.Runs != 7 || st.Executed != 3 || st.CacheHits != 4 {
		t.Errorf("runs=%d executed=%d hits=%d, want 7/3/4", st.Runs, st.Executed, st.CacheHits)
	}
}

// TestStatsThresholdPrefix pins the prefix counters of a threshold sweep run
// in order on a runner without a store: the second point builds the group's
// in-memory prefix and the other two fork from it.
func TestStatsThresholdPrefix(t *testing.T) {
	base := statsGrid()[3]
	apps := []trace.Profile{trace.MustLookup("mcf"), trace.MustLookup("lbm")}
	r := NewRunner(Options{ShareWarmup: true})
	for _, f := range []float64{0.8, 1.0, 1.2, 1.4} {
		cfg := base
		cfg.S1.ThresholdFactor = f
		if _, err := r.RunConfig(cfg, apps, "mcf+lbm"); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Forked != 4 || st.PrefixBuilds != 1 || st.PrefixForks != 2 {
		t.Errorf("forked %d, prefixes built %d, forked from %d, want 4, 1, 2",
			st.Forked, st.PrefixBuilds, st.PrefixForks)
	}
}
