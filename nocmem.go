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

	"nocmem/internal/config"
	"nocmem/internal/exp"
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
	return facade.Execute(cfg, apps, "apps")
}

// facade is the execution core behind every package-level run helper: one
// exp.Runner at the default Options (a worker per CPU, no shared warm-up),
// built once. Its singleflight cache holds the alone runs; shared runs bypass it.
var facade = exp.NewRunner(exp.Options{})

// AloneIPC returns the application's IPC when it runs alone on the system
// (tile 0), used as the denominator of weighted speedup. Alone runs always
// use the unprioritized baseline (the paper's IPC_alone definition), so the
// result is independent of co-runners and schemes; it is memoized per
// (configuration, application), and concurrent callers of the same point wait
// for (and share) the first caller's run.
func AloneIPC(cfg Config, app Profile) (float64, error) {
	return facade.AloneIPC(cfg, app)
}

// WeightedSpeedup computes WS = sum IPC_shared/IPC_alone for a finished run.
func WeightedSpeedup(cfg Config, r *Result) (float64, error) {
	shared, alone, err := facade.IPCPairs(cfg, r)
	if err != nil {
		return 0, err
	}
	return stats.WeightedSpeedup(shared, alone)
}

// Fairness returns the unfairness (max per-app slowdown vs running alone)
// and the harmonic speedup of a finished run — the fairness-oriented
// companions to weighted speedup.
func Fairness(cfg Config, r *Result) (maxSlowdown, harmonic float64, err error) {
	shared, alone, err := facade.IPCPairs(cfg, r)
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
// speedups of the three systems, the normalized values the paper plots, and
// the three runs (Base, S1, S1S2) for deeper inspection (latency CDFs, bank
// idleness, ...).
type SpeedupRow = exp.SchemeRuns

// SpeedupFor runs one workload under base, Scheme-1, and Scheme-1+2, and
// returns the normalized weighted speedups of Figure 11. The three shared
// runs and the workload's alone runs are independent simulations executed on
// the package's runner, at most one per CPU at a time.
func SpeedupFor(cfg Config, w Workload) (SpeedupRow, error) {
	return facade.SpeedupFor(cfg, w)
}
