package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/simdclient"
	"nocmem/internal/workload"
)

// testSweep is a small grid on the paper's machine: the three vcs points of
// workload 8 at 4k+8k cycles.
func testSweep(t *testing.T) ([]point, workload.Workload) {
	t.Helper()
	base := config.Baseline32()
	base.Run.WarmupCycles = 4_000
	base.Run.MeasureCycles = 8_000
	base.S1.UpdatePeriod = 8_000 / 15
	points, err := grid("vcs", base)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Get(8)
	if err != nil {
		t.Fatal(err)
	}
	return points, w
}

func table(t *testing.T, points []point, w workload.Workload, estimate bool, prune float64, run executor) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep(&buf, points, w, estimate, prune, run); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTableIdenticalAcrossExecutors: the one table path prints the same
// bytes whether the specs execute in this process, on a coordinator with two
// workers, or come back entirely from that coordinator's store.
func TestTableIdenticalAcrossExecutors(t *testing.T) {
	points, w := testSweep(t)
	local := exp.NewRunner(exp.Options{})
	want := table(t, points, w, false, 0, localExecutor(local))
	if !strings.Contains(want, "8 VCs") {
		t.Fatalf("implausible table:\n%s", want)
	}
	specs, _, err := plan(points, w, false)
	if err != nil {
		t.Fatal(err)
	}
	if st := local.Stats(); st.Executed != int64(len(specs)) || st.CacheHits != 0 {
		t.Errorf("local sweep of %d deduplicated specs: %+v", len(specs), st)
	}

	logf := func(string, ...any) {}
	base, shutdown, err := bootLocalCoordinator(distOptions{workers: 2}, logf)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	cl := simdclient.New(base)
	defer cl.Close()
	if got := table(t, points, w, false, 0, coordinatorExecutor(cl, logf)); got != want {
		t.Errorf("coordinator table differs from local:\n--- local ---\n%s--- coordinator ---\n%s", want, got)
	}
	first, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Runner.RemoteCompletions != int64(len(specs)) {
		t.Errorf("%d worker completions for %d specs", first.Runner.RemoteCompletions, len(specs))
	}

	if got := table(t, points, w, false, 0, coordinatorExecutor(cl, logf)); got != want {
		t.Errorf("repeated coordinator table differs from local:\n--- local ---\n%s--- repeat ---\n%s", want, got)
	}
	again, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Runner.LeasesGranted != first.Runner.LeasesGranted ||
		again.Store.ResultHits-first.Store.ResultHits != int64(len(specs)) {
		t.Errorf("repeat was not served from the store: leases %d -> %d, store hits %d -> %d",
			first.Runner.LeasesGranted, again.Runner.LeasesGranted, first.Store.ResultHits, again.Store.ResultHits)
	}
}

// TestPrunedRowsEqualUnprunedRows: pruning only removes rows. The model
// cannot tell VC counts apart, so behind point 0 the vcs points go; the
// app-aware-network point differs from Scheme-1+2 and stays.
func TestPrunedRowsEqualUnprunedRows(t *testing.T) {
	points, w := testSweep(t)
	policy, err := grid("policy", points[0].cfg.WithSchemes(false, false))
	if err != nil {
		t.Fatal(err)
	}
	points = append(points, policy[1])
	run := localExecutor(exp.NewRunner(exp.Options{}))

	// Column widths follow the dashes, so compare fields, not padding.
	lines := func(s string) [][]string {
		var out [][]string
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			out = append(out, strings.Fields(l))
		}
		return out
	}
	full := lines(table(t, points, w, false, 0, run))
	pruned := lines(table(t, points, w, false, 0.005, run))
	var dashes int
	for i := range full {
		if strings.Join(pruned[i], " ") == strings.Join(full[i], " ") {
			continue
		}
		dashes++
		if got := strings.Join(pruned[i][len(pruned[i])-4:], ""); got != "----" || i < 2 {
			t.Errorf("line %d: pruned sweep printed %q, unpruned %q", i, pruned[i], full[i])
		}
	}
	if dashes != 2 {
		t.Errorf("%d rows pruned, want the 4- and 8-VC points:\n%v", dashes, pruned)
	}
}

// TestEstimatedSweepSimulatesNothing: -estimate is the same pipeline over a
// plan of Estimate specs.
func TestEstimatedSweepSimulatesNothing(t *testing.T) {
	points, w := testSweep(t)
	specs, _, err := plan(points, w, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if !sp.Estimate {
			t.Fatalf("estimated plan holds a simulation spec: workload %d apps %v", sp.Workload, sp.Apps)
		}
	}
	runner := exp.NewRunner(exp.Options{})
	out := table(t, points, w, true, 0, localExecutor(runner))
	if !strings.Contains(out, "2 VCs") || strings.Contains(out, "NaN") {
		t.Errorf("implausible estimated table:\n%s", out)
	}
	if st := runner.Stats(); st.Executed != 0 || st.Runs != 0 {
		t.Errorf("estimated sweep touched the runner: %+v", st)
	}
}
