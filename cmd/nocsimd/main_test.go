package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/simd"
	"nocmem/internal/simdclient"
)

// TestMain lets the test binary stand in for the daemon: re-executed with
// -join as its first argument it runs main() — a real nocsimd worker process
// — instead of the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-join" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestKilledWorkerProcessIsRecovered is the process-level fault-tolerance
// gate: a coordinator plus two real worker processes, a small sweep grid, and
// a SIGKILL of one worker while it holds unfinished leases. The sweep must
// still complete — the dead worker's leases expire and are re-executed by the
// survivor — and every merged result must be byte-identical to a direct
// single-process execution of the same grid.
func TestKilledWorkerProcessIsRecovered(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes and waits out a lease TTL")
	}
	// Short lease TTL: the killed worker's points must come back within the
	// test's patience, not a production-grade two minutes.
	srv, err := simd.New(simd.Options{
		StoreDir:    t.TempDir(),
		ShareWarmup: true,
		Logf:        t.Logf,
		Distributed: true,
		LeaseTTL:    2 * time.Second,
		LeaseBatch:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// -j 1 and a lease batch of 2 means each worker executes one point while
	// holding a second untouched lease, so a SIGKILL while Outstanding >= 2 is
	// guaranteed to strand at least one lease that only expiry can recover.
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	workers := map[string]*exec.Cmd{}
	for _, name := range []string{"smokeA", "smokeB"} {
		cmd := exec.Command(exe, "-join", hs.URL, "-worker-name", name, "-j", "1", "-lease-batch", "2")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning worker %s: %v", name, err)
		}
		workers[name] = cmd
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cl := simdclient.New(hs.URL)
	defer cl.Close()

	cfg := config.Baseline16()
	cfg.Run.WarmupCycles = 4_000
	cfg.Run.MeasureCycles = 8_000
	cfg.S1.UpdatePeriod = 2_000
	apps := []string{"mcf", "lbm", "milc", "mcf"}
	var points []simd.RunSpec
	for _, s := range [][2]bool{{false, false}, {true, false}, {false, true}} {
		points = append(points, simd.RunSpec{Config: cfg.WithSchemes(s[0], s[1]), Apps: apps})
	}
	for _, f := range []float64{0.8, 1.0, 1.2} {
		c := cfg.WithSchemes(true, true)
		c.S1.ThresholdFactor = f
		points = append(points, simd.RunSpec{Config: c, Apps: apps})
	}
	sub, err := cl.Submit(ctx, simd.RunRequest{Points: points})
	if err != nil {
		t.Fatal(err)
	}

	// Kill whichever worker first holds two unfinished leases.
	victim := ""
	for victim == "" {
		st, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range st.Dist.Workers {
			if w.Outstanding >= 2 {
				victim = w.ID
				break
			}
		}
		if victim == "" {
			if st.Runner.RemoteCompletions >= int64(len(points)) {
				t.Fatal("sweep finished before any worker held 2 leases — grid too small to exercise the kill")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	cmd := workers[victim[:strings.IndexByte(victim, '#')]]
	if cmd == nil {
		t.Fatalf("victim %s maps to no spawned worker", victim)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	t.Logf("killed worker %s (SIGKILL) while it held leases", victim)

	js, err := cl.Wait(ctx, sub.ID, func(e simd.Event) { t.Logf("job: %s", e.Msg) })
	if err != nil {
		t.Fatal(err)
	}
	if e := js.Err(); e != "" || js.Status != simd.StatusDone {
		t.Fatalf("sweep after worker kill: status %q, error %q", js.Status, e)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runner.LeasesExpired < 1 {
		t.Error("no lease expired despite killing a worker holding 2+ leases")
	}
	if st.Dist.Mismatches != 0 {
		t.Errorf("duplicate-completion byte mismatches: %+v", st.Dist)
	}

	// Byte-identity: every merged result must equal a direct single-process
	// execution (same fork mode as the workers).
	direct := exp.NewRunner(exp.Options{ShareWarmup: true})
	for i, sp := range points {
		rp, err := simd.ResolveSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := simd.ExecuteSpec(direct, rp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Result(ctx, rp.Key)
		if err != nil {
			t.Fatalf("fetching merged result %d (%s): %v", i, rp.Label, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("point %d (%s): merged bytes differ from direct execution (%d vs %d bytes)", i, rp.Label, len(got), len(want))
		}
	}
}
