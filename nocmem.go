// Package nocmem is a cycle-level simulator of NoC-based multicores that
// reproduces "Addressing End-to-End Memory Access Latency in NoC-Based
// Multicores" (Sharifi, Kultursay, Kandemir, Das — MICRO 2012).
//
// The package is the public facade over the internal substrates: it builds
// fully-wired systems (out-of-order cores, private L1s, shared S-NUCA L2,
// mesh NoC, DRAM controllers), runs the paper's multiprogrammed workloads
// under the baseline or under the two prioritization schemes, and computes
// the paper's metrics (normalized weighted speedup, latency distributions,
// per-leg delay breakdowns, bank idleness).
//
// Quick start:
//
//	cfg := nocmem.Baseline32()
//	w, _ := nocmem.GetWorkload(7)
//	row, err := nocmem.SpeedupFor(cfg, w)   // base vs S1 vs S1+S2
//	fmt.Println(row.NormS1, row.NormS1S2)
package nocmem

import (
	"fmt"
	"sync"

	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/par"
	"nocmem/internal/sim"
	"nocmem/internal/stats"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// Re-exported configuration types. See the config package for field
// documentation.
type (
	// Config is the full system configuration.
	Config = config.Config
	// Result is the measurement bundle of one simulation run.
	Result = sim.Result
	// Workload is one multiprogrammed mix from Table 2.
	Workload = workload.Workload
	// Profile describes one synthetic application.
	Profile = trace.Profile
	// FileTrace is a recorded instruction trace opened for replay.
	FileTrace = trace.FileTrace
)

// Category re-exports the workload categories.
const (
	Mixed           = workload.Mixed
	MemIntensive    = workload.MemIntensive
	MemNonIntensive = workload.MemNonIntensive
)

// Baseline32 returns the paper's Table 1 configuration (32 cores, 4x8 mesh,
// 4 memory controllers).
func Baseline32() Config { return config.Baseline32() }

// Baseline16 returns the 16-core 4x4 configuration of Figure 15.
func Baseline16() Config { return config.Baseline16() }

// Workloads returns the 18 workloads of Table 2.
func Workloads() []Workload { return workload.All() }

// GetWorkload returns workload id (1..18).
func GetWorkload(id int) (Workload, error) { return workload.Get(id) }

// LookupApp returns the built-in synthetic profile for a SPEC CPU2006
// application name.
func LookupApp(name string) (Profile, error) { return trace.Lookup(name) }

// Apps returns every built-in application profile.
func Apps() []Profile { return trace.Profiles() }

// OpenTrace loads a recorded instruction trace (written by cmd/tracegen or
// trace.Record) for replay.
func OpenTrace(path string) (*trace.FileTrace, error) { return trace.OpenFile(path) }

// RunTraces runs recorded traces, one per tile in order (nil entries leave
// tiles idle); names label the tiles in the results.
func RunTraces(cfg Config, traces []*trace.FileTrace, names []string) (*Result, error) {
	nodes := cfg.Mesh.Nodes()
	if len(traces) > nodes {
		return nil, fmt.Errorf("nocmem: %d traces for %d tiles", len(traces), nodes)
	}
	srcs := make([]trace.AppSource, nodes)
	apps := make([]Profile, nodes)
	for i, t := range traces {
		if t == nil {
			continue
		}
		srcs[i] = t
		name := fmt.Sprintf("trace-%d", i)
		if i < len(names) && names[i] != "" {
			name = names[i]
		}
		apps[i] = Profile{Name: name}
	}
	s, err := sim.NewFromSources(cfg, srcs, apps)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// RunWorkload runs one workload on cfg and returns its measurements. The
// workload must have at most as many applications as the mesh has tiles;
// remaining tiles stay idle.
func RunWorkload(cfg Config, w Workload) (*Result, error) {
	apps, err := w.Profiles()
	if err != nil {
		return nil, err
	}
	return RunApps(cfg, apps)
}

// RunApps runs an explicit application placement (padded with idle tiles).
// Every call simulates: labels do not identify a placement here (halved
// workloads share a Name(), custom profiles may share names), so the
// runner's (config, label) run cache is bypassed.
func RunApps(cfg Config, apps []Profile) (*Result, error) {
	if nodes := cfg.Mesh.Nodes(); len(apps) > nodes {
		return nil, fmt.Errorf("nocmem: %d applications for %d tiles", len(apps), nodes)
	}
	return runner().Execute(cfg, apps, "apps")
}

// facade is the execution core behind every package-level run helper: one
// exp.Runner — its worker semaphore, its singleflight run cache (alone
// runs), its fork cache and its provenance counters.
var facade = struct {
	mu     sync.Mutex
	opts   exp.Options
	runner *exp.Runner
}{runner: exp.NewRunner(exp.Options{})}

func runner() *exp.Runner {
	facade.mu.Lock()
	defer facade.mu.Unlock()
	return facade.runner
}

// setOptions swaps in a fresh runner built from the changed options.
func setOptions(change func(*exp.Options)) {
	facade.mu.Lock()
	change(&facade.opts)
	facade.runner = exp.NewRunner(facade.opts)
	facade.mu.Unlock()
}

// SetShareWarmup toggles warmup sharing for the package-level run helpers
// (RunApps, RunWorkload, SpeedupFor, AloneIPC): each group of compatible
// configurations executes its warmup once under the unprioritized baseline,
// checkpoints, and forks every measurement run from the snapshot. Runs
// measuring a scheme then warm up under the baseline policy instead of their
// own, so results can differ slightly from cold runs — an explicit opt-in
// for sweeps that prefer wall-clock over exactness of the warm state.
//
// Set it once at start-up: the call replaces the package's runner, dropping
// the memoized alone runs, the warm checkpoints and the Stats counters
// (runs already in flight finish on the old runner).
func SetShareWarmup(on bool) {
	setOptions(func(o *exp.Options) { o.ShareWarmup = on })
}

// SetParallelism bounds how many simulations the package-level helpers run
// concurrently. n <= 0 restores the default (GOMAXPROCS); n == 1 forces
// fully sequential execution. Each simulation is an independent
// deterministic cycle loop, so results are identical at any setting. Like
// SetShareWarmup it replaces the package's runner: set it once at start-up.
func SetParallelism(n int) {
	setOptions(func(o *exp.Options) { o.Parallelism = n })
}

// RunStats reports the cache and warmup provenance of the package-level run
// helpers, in the same shape the simulation daemon's /statsz uses for its
// runner (exp.Stats): how many simulations executed, how many requests the
// alone-IPC cache absorbed, and — when warmup sharing is on — how many runs
// forked from a shared warm checkpoint instead of re-executing the warmup.
type RunStats = exp.Stats

// Stats returns the provenance counters of the package's runner, accumulated
// across every package-level run helper since the last SetParallelism or
// SetShareWarmup call.
func Stats() RunStats { return runner().Stats() }

// AloneIPC returns the application's IPC when it runs alone on the system
// (tile 0), used as the denominator of weighted speedup. Alone runs always
// use the unprioritized baseline (the paper's IPC_alone definition), so the
// result is independent of co-runners and schemes; it is memoized per
// (configuration, application name), and concurrent callers of the same
// point wait for (and share) the first caller's run.
func AloneIPC(cfg Config, app Profile) (float64, error) {
	return runner().AloneIPC(cfg, app)
}

// WeightedSpeedup computes WS = sum IPC_shared/IPC_alone for a finished run.
func WeightedSpeedup(cfg Config, r *Result) (float64, error) {
	shared, alone, err := runner().IPCPairs(cfg, r)
	if err != nil {
		return 0, err
	}
	return stats.WeightedSpeedup(shared, alone)
}

// Fairness returns the unfairness (max per-app slowdown vs running alone)
// and the harmonic speedup of a finished run — the fairness-oriented
// companions to weighted speedup.
func Fairness(cfg Config, r *Result) (maxSlowdown, harmonic float64, err error) {
	shared, alone, err := runner().IPCPairs(cfg, r)
	if err != nil {
		return 0, 0, err
	}
	if maxSlowdown, err = stats.MaxSlowdown(shared, alone); err != nil {
		return 0, 0, err
	}
	if harmonic, err = stats.HarmonicSpeedup(shared, alone); err != nil {
		return 0, 0, err
	}
	return maxSlowdown, harmonic, nil
}

// SpeedupRow holds the Figure 11 data point of one workload: the weighted
// speedups of the three systems and the normalized values the paper plots.
type SpeedupRow struct {
	Workload Workload

	BaseWS, S1WS, S1S2WS float64

	// NormS1 and NormS1S2 are normalized to the unprioritized base.
	NormS1, NormS1S2 float64

	// Results retains the three runs (base, S1, S1+S2) for deeper
	// inspection (latency CDFs, bank idleness, ...).
	Base, S1, S1S2 *Result
}

// SpeedupFor runs one workload under base, Scheme-1, and Scheme-1+2, and
// returns the normalized weighted speedups of Figure 11. The three shared
// runs and the workload's alone runs are independent simulations requested
// together; SetParallelism bounds how many execute at once.
func SpeedupFor(cfg Config, w Workload) (SpeedupRow, error) {
	row := SpeedupRow{Workload: w}
	apps, err := w.Profiles()
	if err != nil {
		return row, err
	}
	variants := []struct {
		s1, s2 bool
		ws     *float64
		res    **Result
	}{
		{false, false, &row.BaseWS, &row.Base},
		{true, false, &row.S1WS, &row.S1},
		{true, true, &row.S1S2WS, &row.S1S2},
	}
	// The group admits every task at once: the runner's semaphore bounds
	// how many simulations execute, and a task waiting on another's alone
	// run parks without holding a slot.
	g := par.NewGroup(len(variants) + len(apps))
	for _, v := range variants {
		g.Go(func() error {
			r, err := RunApps(cfg.WithSchemes(v.s1, v.s2), apps)
			*v.res = r
			return err
		})
	}
	for _, a := range apps {
		g.Go(func() error {
			_, err := AloneIPC(cfg, a)
			return err
		})
	}
	if err := g.Wait(); err != nil {
		return row, err
	}
	for _, v := range variants {
		if *v.ws, err = WeightedSpeedup(cfg, *v.res); err != nil { // alone IPCs now cached
			return row, err
		}
	}
	if row.NormS1, err = stats.NormalizedSpeedup(row.S1WS, row.BaseWS); err != nil {
		return row, err
	}
	if row.NormS1S2, err = stats.NormalizedSpeedup(row.S1S2WS, row.BaseWS); err != nil {
		return row, err
	}
	return row, nil
}
