// Multi-client tester harness for the simulation daemon, in the
// config-object idiom of the distributed-systems rigs this package's issue
// names as exemplar: one harness object owns the in-process daemon (on a
// temp or caller-pinned store), a fleet of clients, and begin()/end()
// bookkeeping (wall time, goroutine watermark, stats deltas); tests drive
// concurrent clients through overlapping run/sweep grids and assert the
// daemon's three contracts from the outside:
//
//  1. byte-identical results vs a direct exp.Runner execution,
//  2. exactly-once simulation per unique config key, however many clients
//     race on it (observed via /statsz),
//  3. clean shutdown: drain leaves no goroutines behind.
package simd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/simd"
	"nocmem/internal/simdclient"
	"nocmem/internal/trace"
)

// testCfg is the harness's base configuration: the 16-core baseline with
// windows short enough that a policy grid stays in test-suite territory.
func testCfg() config.Config {
	cfg := config.Baseline16()
	cfg.Run.WarmupCycles = 3_000
	cfg.Run.MeasureCycles = 6_000
	cfg.S1.UpdatePeriod = 1_500
	return cfg
}

// testApps is the placement every harness grid runs: explicit app lists,
// exercising the daemon's "apps" addressing mode.
var testApps = []string{"mcf", "lbm", "milc"}

// appsLabel mirrors the server's label for an explicit app list, so direct
// runs key identically.
func appsLabel(apps []string) string {
	label := "apps:"
	for i, a := range apps {
		if i > 0 {
			label += "+"
		}
		label += a
	}
	return label
}

// policyGrid is the canonical overlapping sweep: the policy cross product on
// one substrate, all sharing a single warmup snapshot group.
func policyGrid() []simd.RunSpec {
	var points []simd.RunSpec
	for _, s := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		points = append(points, simd.RunSpec{Config: testCfg().WithSchemes(s[0], s[1]), Apps: testApps})
	}
	return points
}

// harness owns one in-process daemon and n clients.
type harness struct {
	t   *testing.T
	dir string // store directory, stable across restart()

	srv     *simd.Server
	ts      *httptest.Server
	clients []*simdclient.Client

	// begin()/end() statistics
	t0     time.Time // time at which begin() was called
	g0     int       // goroutines at makeHarness, the leak baseline
	desc   string
	parall int

	// coordinator-mode knobs (zero values boot a plain daemon)
	distributed bool
	leaseTTL    time.Duration
	jobTTL      time.Duration

	// stopWorkers cancels every worker started with startWorker; workerWG
	// waits for their loops to return.
	stopWorkers context.CancelFunc
	workerCtx   context.Context
	workerWG    sync.WaitGroup
}

// makeHarness boots a daemon on dir (t.TempDir() if empty) and connects n
// clients. parallelism bounds the daemon's worker pool (0 = all CPUs).
func makeHarness(t *testing.T, n int, dir string, parallelism int) *harness {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	h := &harness{t: t, dir: dir, g0: runtime.NumGoroutine(), parall: parallelism}
	h.boot(n)
	return h
}

// makeDistHarness boots a coordinator daemon (Options.Distributed) with the
// given lease TTL and connects n clients. Join workers with startWorker.
func makeDistHarness(t *testing.T, n int, leaseTTL time.Duration) *harness {
	t.Helper()
	h := &harness{
		t: t, dir: t.TempDir(), g0: runtime.NumGoroutine(),
		distributed: true, leaseTTL: leaseTTL,
	}
	h.boot(n)
	return h
}

// startWorker joins one in-process worker loop to the coordinator. All
// workers stop (and are waited for) in end()/shutdown.
func (h *harness) startWorker(name string, parallelism int) {
	h.t.Helper()
	if h.workerCtx == nil {
		h.workerCtx, h.stopWorkers = context.WithCancel(context.Background())
	}
	c := simdclient.New(h.ts.URL)
	h.workerWG.Add(1)
	go func() {
		defer h.workerWG.Done()
		defer c.Close()
		simdclient.RunWorker(h.workerCtx, c, simdclient.WorkerOptions{
			Name:        name,
			Parallelism: parallelism,
			ShareWarmup: true,
			Logf: func(format string, args ...any) {
				h.t.Logf(name+": "+format, args...)
			},
		})
	}()
}

// boot starts (or restarts) the daemon and clients on h.dir.
func (h *harness) boot(n int) {
	h.t.Helper()
	srv, err := simd.New(simd.Options{
		StoreDir:    h.dir,
		Parallelism: h.parall,
		ShareWarmup: true,
		Logf:        h.t.Logf,
		Distributed: h.distributed,
		LeaseTTL:    h.leaseTTL,
		JobTTL:      h.jobTTL,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.srv = srv
	h.ts = httptest.NewServer(srv.Handler())
	h.clients = nil
	for i := 0; i < n; i++ {
		c := simdclient.New(h.ts.URL)
		c.Poll = 2 * time.Millisecond
		h.clients = append(h.clients, c)
	}
}

func (h *harness) begin(desc string) {
	h.desc = desc
	h.t0 = time.Now()
	h.t.Logf("%s ...", desc)
}

// end drains the daemon, closes everything, verifies no goroutines leaked,
// and prints the run's stats line.
func (h *harness) end() {
	h.t.Helper()
	st := h.stats()
	h.shutdown()
	h.checkLeaks()
	h.t.Logf("  ... %s passed — %.1fs, %d jobs, %d points, %d simulated, %d store hits, %d warmups",
		h.desc, time.Since(h.t0).Seconds(), st.Jobs, st.Points,
		st.Runner.Executed, st.Store.ResultHits, st.Runner.Warmups)
}

// shutdown gracefully drains and closes daemon + clients.
func (h *harness) shutdown() {
	h.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := h.srv.Drain(ctx); err != nil {
		h.t.Fatal(err)
	}
	h.close()
}

// kill simulates a crash: abort the daemon (queued points fail fast), wait
// out the already-executing simulation, and drop the process state. Only
// what reached the store survives.
func (h *harness) kill() {
	h.t.Helper()
	h.srv.Abort()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := h.srv.Drain(ctx); err != nil {
		h.t.Fatal(err)
	}
	h.close()
}

func (h *harness) close() {
	if h.stopWorkers != nil {
		h.stopWorkers()
		h.workerWG.Wait()
		h.workerCtx, h.stopWorkers = nil, nil
	}
	for _, c := range h.clients {
		c.Close()
	}
	h.ts.Close()
}

// restart gracefully drains the daemon, then boots a fresh one on the same
// store directory — the fresh process has empty in-memory caches, so
// whatever it serves without simulating came from disk.
func (h *harness) restart() {
	h.t.Helper()
	n := len(h.clients)
	h.shutdown()
	h.boot(n)
}

// restartAfterKill reboots on the same store after kill().
func (h *harness) restartAfterKill() {
	h.t.Helper()
	h.boot(1)
}

func (h *harness) stats() simd.StatsSnapshot {
	h.t.Helper()
	st, err := h.clients[0].Stats(context.Background())
	if err != nil {
		h.t.Fatal(err)
	}
	return st
}

// checkLeaks polls for the goroutine count to return to the baseline.
func (h *harness) checkLeaks() {
	h.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= h.g0+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			h.t.Fatalf("goroutine leak after shutdown: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), h.g0, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// run submits points through client ci and waits; fails the test on any
// point error.
func (h *harness) run(ci int, points []simd.RunSpec) *simd.JobStatus {
	h.t.Helper()
	js, err := h.clients[ci].Run(context.Background(), simd.RunRequest{Points: points})
	if err != nil {
		h.t.Fatal(err)
	}
	if e := js.Err(); e != "" {
		h.t.Fatalf("job %s failed: %s", js.ID, e)
	}
	return js
}

// directRunner executes the same grids outside the daemon — the ground
// truth for byte-identical comparison. Same ShareWarmup mode, so forked
// daemon runs compare against forked direct runs.
type directRunner struct {
	r *exp.Runner
}

func newDirect() *directRunner {
	return &directRunner{r: exp.NewRunner(exp.Options{ShareWarmup: true})}
}

// summary runs one spec directly and returns its canonical summary bytes.
func (d *directRunner) summary(t *testing.T, sp simd.RunSpec) []byte {
	t.Helper()
	var profiles []trace.Profile
	for _, name := range sp.Apps {
		profiles = append(profiles, trace.MustLookup(name))
	}
	res, err := d.r.RunConfig(sp.Config, profiles, appsLabel(sp.Apps))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHarnessConcurrentClients is the headline rig: N clients concurrently
// submit overlapping run and sweep grids; every unique config key must
// simulate exactly once, every client must read byte-identical results, and
// shutdown must be clean.
func TestHarnessConcurrentClients(t *testing.T) {
	const nclients = 4
	h := makeHarness(t, nclients, "", 0)
	h.begin(fmt.Sprintf("%d clients racing on one overlapping policy grid", nclients))

	grid := policyGrid()
	var (
		mu      sync.Mutex
		byKey   = map[string][]json.RawMessage{}
		wg      sync.WaitGroup
		errOnce sync.Once
		failure error
	)
	for ci := 0; ci < nclients; ci++ {
		// Client ci submits the full grid as one sweep AND each point as an
		// individual run, so identical keys arrive both batched and single,
		// from every client at once.
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := [][]simd.RunSpec{grid}
			for _, p := range grid {
				jobs = append(jobs, []simd.RunSpec{p})
			}
			for _, points := range jobs {
				js, err := h.clients[ci].Run(context.Background(), simd.RunRequest{Points: points})
				if err == nil && js.Err() != "" {
					err = fmt.Errorf("job %s: %s", js.ID, js.Err())
				}
				if err != nil {
					errOnce.Do(func() { failure = err })
					return
				}
				mu.Lock()
				for _, pr := range js.Results {
					byKey[pr.Key] = append(byKey[pr.Key], pr.Summary)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if failure != nil {
		t.Fatal(failure)
	}

	if len(byKey) != len(grid) {
		t.Fatalf("%d unique keys observed, want %d", len(byKey), len(grid))
	}
	// Every response for a key — whichever client, batched or single,
	// simulated or store-served — is byte-identical, and matches a direct
	// runner execution.
	direct := newDirect()
	for i, sp := range grid {
		key := exp.RunKey(sp.Config, appsLabel(sp.Apps))
		got := byKey[key]
		if len(got) != 2*nclients {
			t.Fatalf("key %d served %d times, want %d", i, len(got), 2*nclients)
		}
		want := direct.summary(t, sp)
		for _, g := range got {
			if !bytes.Equal(g, want) {
				t.Errorf("grid point %d: daemon summary differs from direct runner\ndaemon: %s\ndirect: %s", i, g, want)
				break
			}
		}
	}

	st := h.stats()
	if st.Runner.Executed != int64(len(grid)) {
		t.Errorf("executed %d simulations for %d unique keys — singleflight failed", st.Runner.Executed, len(grid))
	}
	if st.Runner.Warmups != 1 {
		t.Errorf("executed %d warmups, want 1 (policy grid shares one snapshot group)", st.Runner.Warmups)
	}
	if total := 2 * nclients * len(grid); int(st.Points) != total {
		t.Errorf("served %d points, want %d", st.Points, total)
	}
	if st.InflightJobs != 0 {
		t.Errorf("%d jobs still inflight after all clients returned", st.InflightJobs)
	}

	// The same daemon asked again answers every point from its store with
	// the same bytes, and an estimate answers from the closed-form model:
	// neither touches the simulator.
	estimate := grid[0]
	estimate.Estimate = true
	repeat := h.run(0, append(append([]simd.RunSpec{}, grid...), estimate))
	for i, pr := range repeat.Results[:len(grid)] {
		if pr.Source != simd.SourceStore || !bytes.Equal(pr.Summary, byKey[pr.Key][0]) {
			t.Errorf("repeat of grid point %d: source %q, same bytes %v; want a %q hit with the original bytes",
				i, pr.Source, bytes.Equal(pr.Summary, byKey[pr.Key][0]), simd.SourceStore)
		}
	}
	if got := repeat.Results[len(grid)].Source; got != simd.SourceEstimate {
		t.Errorf("estimate point source %q, want %q", got, simd.SourceEstimate)
	}
	if after := h.stats().Runner.Executed; after != st.Runner.Executed {
		t.Errorf("store hits and an estimate executed %d simulations", after-st.Runner.Executed)
	}
	h.end()
}

// TestHarnessRestartServesFromStore: a daemon restarted on the same store
// serves a previously-completed sweep entirely from disk — zero simulations,
// zero warmup cycles — with byte-identical results.
func TestHarnessRestartServesFromStore(t *testing.T) {
	h := makeHarness(t, 1, "", 0)
	h.begin("identical sweep across a daemon restart")

	grid := policyGrid()
	first := h.run(0, grid)
	if st := h.stats(); st.Runner.Executed != int64(len(grid)) {
		t.Fatalf("first sweep executed %d sims, want %d", st.Runner.Executed, len(grid))
	}

	h.restart()

	second := h.run(0, grid)
	for i := range grid {
		if second.Results[i].Source != simd.SourceStore {
			t.Errorf("point %d source %q after restart, want %q", i, second.Results[i].Source, simd.SourceStore)
		}
		if !bytes.Equal(first.Results[i].Summary, second.Results[i].Summary) {
			t.Errorf("point %d: result differs across restart", i)
		}
	}
	st := h.stats()
	if st.Runner.Executed != 0 {
		t.Errorf("restarted daemon executed %d sims for a completed sweep, want 0", st.Runner.Executed)
	}
	if st.Runner.Warmups != 0 {
		t.Errorf("restarted daemon executed %d warmups, want 0", st.Runner.Warmups)
	}
	if st.Store.ResultHits < int64(len(grid)) {
		t.Errorf("store served %d hits, want >= %d", st.Store.ResultHits, len(grid))
	}
	h.end()
}

// TestHarnessWarmCheckpointReuseAcrossRestart: fresh measurement configs
// submitted after a restart fork from the golden warm checkpoint persisted
// by the previous daemon life — simulations run, but zero warmup cycles
// execute, observed via /statsz.
func TestHarnessWarmCheckpointReuseAcrossRestart(t *testing.T) {
	h := makeHarness(t, 1, "", 0)
	h.begin("warm-checkpoint reuse across a daemon restart")

	h.run(0, policyGrid())
	if st := h.stats(); st.Runner.Warmups != 1 {
		t.Fatalf("first grid executed %d warmups, want 1", st.Runner.Warmups)
	}

	h.restart()

	// New keys (threshold factors never run before), same snapshot group.
	var fresh []simd.RunSpec
	for _, f := range []float64{0.9, 1.3} {
		cfg := testCfg().WithSchemes(true, false)
		cfg.S1.ThresholdFactor = f
		fresh = append(fresh, simd.RunSpec{Config: cfg, Apps: testApps})
	}
	js := h.run(0, fresh)
	for i := range fresh {
		if js.Results[i].Source != simd.SourceSim {
			t.Errorf("fresh point %d source %q, want %q (keys were never simulated)", i, js.Results[i].Source, simd.SourceSim)
		}
	}
	st := h.stats()
	if st.Runner.Executed != int64(len(fresh)) {
		t.Errorf("executed %d sims, want %d", st.Runner.Executed, len(fresh))
	}
	if st.Runner.Warmups != 0 {
		t.Errorf("executed %d warmup windows, want 0 — the golden checkpoint should have come from disk", st.Runner.Warmups)
	}
	if st.Runner.SnapshotDiskHits != 1 {
		t.Errorf("%d snapshot disk hits, want 1", st.Runner.SnapshotDiskHits)
	}
	if st.Runner.Forked != int64(len(fresh)) {
		t.Errorf("forked %d runs from the warm image, want %d", st.Runner.Forked, len(fresh))
	}

	// And the forked-from-disk results equal direct forked execution.
	direct := newDirect()
	for i, sp := range fresh {
		if want := direct.summary(t, sp); !bytes.Equal(js.Results[i].Summary, want) {
			t.Errorf("fresh point %d: daemon summary differs from direct runner", i)
		}
	}
	h.end()
}
