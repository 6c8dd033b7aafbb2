package exp

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nocmem/internal/config"
	"nocmem/internal/forkrun"
	"nocmem/internal/par"
	"nocmem/internal/sim"
	"nocmem/internal/trace"
)

// Options scales the measurement protocol. The zero value selects the
// defaults (100k warmup, 300k measurement — roughly 100x shorter than the
// paper's windows, see DESIGN.md).
type Options struct {
	WarmupCycles  int64
	MeasureCycles int64
	Seed          int64
	// ThresholdPushPeriod overrides the Scheme-1 update period (scaled
	// from the paper's 1 ms to fit the shorter windows).
	ThresholdPushPeriod int64

	// Parallelism bounds how many simulations the runner executes
	// concurrently. 0 (the default) selects GOMAXPROCS; 1 forces the
	// sequential path. Every simulation is an independent deterministic
	// cycle loop, so results are bit-identical at any setting.
	Parallelism int

	// ShareWarmup amortizes warmup across configurations: the first run of
	// each compatible group (same substrate, placement, warmup length —
	// see internal/forkrun) warms up once under the unprioritized baseline
	// and checkpoints; every run then restores that snapshot and executes
	// only its measurement window. Runs measuring a scheme warm up under
	// the baseline policy instead of their own, so results can differ
	// slightly from cold runs — hence opt-in.
	ShareWarmup bool
}

func (o Options) apply(cfg config.Config) config.Config {
	cfg.Run.WarmupCycles = 100_000
	cfg.Run.MeasureCycles = 300_000
	cfg.S1.UpdatePeriod = 20_000
	if o.WarmupCycles > 0 {
		cfg.Run.WarmupCycles = o.WarmupCycles
	}
	if o.MeasureCycles > 0 {
		cfg.Run.MeasureCycles = o.MeasureCycles
	}
	if o.Seed != 0 {
		cfg.Run.Seed = o.Seed
	}
	if o.ThresholdPushPeriod > 0 {
		cfg.S1.UpdatePeriod = o.ThresholdPushPeriod
	}
	return cfg
}

// Runner executes and caches simulation runs for one Options setting.
//
// Concurrency model: a Runner is safe for concurrent use. Each simulation
// run is keyed by (config, label); the first requester of a key computes it
// and every concurrent or later requester waits for (or reuses) that single
// result — singleflight semantics, so a run shared by several figures is
// executed exactly once even when the figures are generated in parallel.
// Actual simulation execution is gated by a worker semaphore of
// Options.Parallelism slots; the figure helpers execute the runs they need
// through that pool and compute their output from the collected results, so
// output bytes are identical to a sequential execution.
type Runner struct {
	opts    Options
	workers int
	sem     chan struct{} // bounds concurrently executing simulations

	mu   sync.Mutex
	runs map[string]*runEntry

	// forks holds the warmup snapshots shared across runs when
	// Options.ShareWarmup is set. Its singleflight slots layer under the
	// run cache: the run cache dedups identical (config, label) runs, the
	// fork cache dedups the warmup prefix of distinct runs.
	forks forkrun.Cache

	// progress receives one line per fresh simulation run; logf holds progMu
	// across the call so concurrent runs cannot interleave torn log lines.
	progMu   sync.Mutex
	progress func(format string, args ...any)

	// Cache-provenance counters (see Stats).
	reqs, hits, executed atomic.Int64

	// Lease-provenance counters (see Stats and AddLeaseStats).
	leasesGranted, leasesExpired, leasesRelayed, remoteDone, dupDone atomic.Int64
}

// Stats reports where a Runner's results came from: how many run requests it
// saw, how many simulations it actually executed, how many requests the
// in-memory singleflight cache absorbed, and the warmup-sharing counters of
// the underlying fork cache. Surfaced by the simulation daemon's /statsz
// endpoint and by sweep -v.
type Stats struct {
	// Runs counts run requests, including ones served from the cache.
	Runs int64 `json:"runs"`
	// Executed counts fresh simulations this runner performed.
	Executed int64 `json:"executed"`
	// CacheHits counts requests coalesced onto (or recalled from) an
	// earlier identical run — Runs - Executed, tracked explicitly so a
	// torn read can never fabricate work that did not happen.
	CacheHits int64 `json:"cache_hits"`
	// Forked counts measurement runs forked from a shared warm snapshot
	// (only ever non-zero with Options.ShareWarmup).
	Forked int64 `json:"forked"`
	// Warmups counts warmup windows executed by the fork cache.
	Warmups int64 `json:"warmups"`
	// SnapshotMemHits / SnapshotDiskHits / SnapshotEvictions are the fork
	// cache's snapshot provenance (see forkrun.Stats).
	SnapshotMemHits   int64 `json:"snapshot_mem_hits"`
	SnapshotDiskHits  int64 `json:"snapshot_disk_hits"`
	SnapshotEvictions int64 `json:"snapshot_evictions"`
	// PrefixBuilds / PrefixForks are the fork cache's threshold-sweep prefix
	// provenance (see forkrun.Stats).
	PrefixBuilds int64 `json:"prefix_builds"`
	PrefixForks  int64 `json:"prefix_forks"`

	// Distributed-sweep lease provenance, populated through AddLeaseStats by
	// the simulation daemon's coordinator (internal/simd); all zero on a
	// purely local runner. LeasesGranted counts points handed to workers
	// (re-grants of the same point included); LeasesExpired counts leases
	// reclaimed after their TTL passed without a completion; LeasesRelayed
	// counts points put back on the queue for another worker (expiry or a
	// reported failure); RemoteCompletions counts results accepted from
	// workers; DuplicateCompletions counts redundant completions for points
	// that had already finished — absorbed idempotently, never re-merged.
	LeasesGranted        int64 `json:"leases_granted,omitempty"`
	LeasesExpired        int64 `json:"leases_expired,omitempty"`
	LeasesRelayed        int64 `json:"leases_relayed,omitempty"`
	RemoteCompletions    int64 `json:"remote_completions,omitempty"`
	DuplicateCompletions int64 `json:"duplicate_completions,omitempty"`
}

// Stats returns the runner's cache-provenance counters.
func (r *Runner) Stats() Stats {
	fs := r.forks.Stats()
	return Stats{
		Runs:                 r.reqs.Load(),
		Executed:             r.executed.Load(),
		CacheHits:            r.hits.Load(),
		Forked:               fs.Forked,
		Warmups:              fs.Warmups,
		SnapshotMemHits:      fs.MemHits,
		SnapshotDiskHits:     fs.DiskHits,
		SnapshotEvictions:    fs.Evictions,
		PrefixBuilds:         fs.PrefixBuilds,
		PrefixForks:          fs.PrefixForks,
		LeasesGranted:        r.leasesGranted.Load(),
		LeasesExpired:        r.leasesExpired.Load(),
		LeasesRelayed:        r.leasesRelayed.Load(),
		RemoteCompletions:    r.remoteDone.Load(),
		DuplicateCompletions: r.dupDone.Load(),
	}
}

// AddLeaseStats accumulates distributed-sweep lease provenance into the
// runner's Stats. Called by the coordinator's lease table (internal/simd) so
// lease traffic surfaces alongside the execution counters in /statsz and
// sweep -v; a purely local runner never sees a call.
func (r *Runner) AddLeaseStats(granted, expired, relayed, completed, duplicate int64) {
	r.leasesGranted.Add(granted)
	r.leasesExpired.Add(expired)
	r.leasesRelayed.Add(relayed)
	r.remoteDone.Add(completed)
	r.dupDone.Add(duplicate)
}

// SetSnapshotStore backs the runner's warmup-sharing fork cache with a
// persistent snapshot store (the daemon's on-disk store), so warm images
// survive restarts and leave memory: every fork from the warmup boundary
// after a key's warmup loads the image from the store. Call before the first
// run; only meaningful with Options.ShareWarmup.
func (r *Runner) SetSnapshotStore(st forkrun.SnapshotStore) {
	r.forks.SetStore(st)
}

// runEntry is one singleflight cache slot: done is closed when res, sum and
// err are final. A run that RunSummary started keeps only its summary bytes
// (res is nil); one that RunConfig started keeps its Result (sum is nil).
type runEntry struct {
	done chan struct{}
	res  *sim.Result
	sum  []byte
	err  error
}

// NewRunner returns a runner with an empty cache.
func NewRunner(opts Options) *Runner {
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		opts:    opts,
		workers: workers,
		sem:     make(chan struct{}, workers),
		runs:    make(map[string]*runEntry),
	}
}

// Parallelism returns the effective worker count.
func (r *Runner) Parallelism() int { return r.workers }

// SetProgress installs the progress sink (may be nil to silence).
func (r *Runner) SetProgress(fn func(format string, args ...any)) {
	r.progMu.Lock()
	r.progress = fn
	r.progMu.Unlock()
}

func (r *Runner) logf(format string, args ...any) {
	r.progMu.Lock()
	if r.progress != nil {
		r.progress(format, args...)
	}
	r.progMu.Unlock()
}

// RunKey returns the cache key under which a (config, label) run is
// deduplicated and stored: the config's field-by-field key plus the label
// naming the application placement. The simulation daemon addresses its
// on-disk result store with the same key, so in-memory singleflight and
// on-disk dedup agree about what "the same run" means.
func RunKey(cfg config.Config, label string) string {
	return cfg.Key() + "|" + label
}

// RunConfig executes (or recalls) one fully-specified configuration without
// applying the runner's Options defaults: the entry point of the simulation
// daemon, whose clients send complete configs (warmup/measurement windows
// included). The same singleflight cache and worker semaphore as the figure
// helpers apply, so concurrent identical requests — even from different
// clients — execute exactly one simulation.
//
// A run that RunSummary started holds no Result: RunConfig executes such a key
// afresh, uncached, as Execute does.
func (r *Runner) RunConfig(cfg config.Config, apps []trace.Profile, label string) (*sim.Result, error) {
	e, hit := r.entry(cfg, label)
	if !hit {
		e.res, e.err = r.Execute(cfg, apps, label)
		close(e.done)
		return e.res, e.err
	}
	if e.res == nil && e.err == nil {
		return r.Execute(cfg, apps, label)
	}
	r.reqs.Add(1)
	r.hits.Add(1)
	return e.res, e.err
}

// RunSummary is RunConfig for callers that need only the run's canonical
// summary JSON, the bytes the simulation daemon stores and serves: the run
// cache keeps those few kilobytes for the runner's life instead of the
// Result, whose collector and per-tile statistics are ten times larger.
func (r *Runner) RunSummary(cfg config.Config, apps []trace.Profile, label string) ([]byte, error) {
	e, hit := r.entry(cfg, label)
	if hit {
		r.reqs.Add(1)
		r.hits.Add(1)
		if e.err != nil || e.sum != nil {
			return e.sum, e.err
		}
		return json.Marshal(e.res.Summary())
	}
	res, err := r.Execute(cfg, apps, label)
	if err == nil {
		e.sum, err = json.Marshal(res.Summary())
	}
	e.err = err
	close(e.done)
	return e.sum, e.err
}

// entry returns the singleflight slot of (cfg, label): a finished one, once
// its run is done, with hit set; otherwise a new one that the caller must fill
// and close.
func (r *Runner) entry(cfg config.Config, label string) (e *runEntry, hit bool) {
	key := RunKey(cfg, label)
	r.mu.Lock()
	if e, ok := r.runs[key]; ok {
		r.mu.Unlock()
		<-e.done
		return e, true
	}
	e = &runEntry{done: make(chan struct{})}
	r.runs[key] = e
	r.mu.Unlock()
	return e, false
}

// Execute performs one fresh simulation of a fully-specified configuration
// under the worker semaphore, bypassing the run cache: it counts as one
// request and one execution in Stats. For callers whose labels do not
// identify the placement (the nocmem facade: halved workloads share a name,
// custom profiles may too), where caching by (config, label) would be wrong.
// Placements shorter than the mesh are padded with idle tiles.
func (r *Runner) Execute(cfg config.Config, apps []trace.Profile, label string) (*sim.Result, error) {
	r.reqs.Add(1)
	r.executed.Add(1)
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	padded := make([]trace.Profile, cfg.Mesh.Nodes())
	copy(padded, apps)
	r.logf("running %s (mesh %dx%d, S1=%v S2=%v)...",
		label, cfg.Mesh.Width, cfg.Mesh.Height, cfg.S1.Enabled, cfg.S2.Enabled)
	if r.opts.ShareWarmup {
		// A waiter on another run's warmup snapshot parks holding its
		// semaphore slot; the producer holds its own slot, so the wait
		// always resolves — some parallelism is traded for the shared
		// warmup.
		return r.forks.Run(cfg, padded)
	}
	s, err := sim.New(cfg, padded)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// AloneIPC measures (and caches) one application's IPC when it runs alone on
// tile 0 of the unprioritized system — the denominator of weighted speedup.
// cfg is used as given (no Options defaults); the run is keyed
// RunKey(cfg, aloneLabel(app)) and deduplicated by the singleflight cache, so
// concurrent callers share one simulation.
func (r *Runner) AloneIPC(cfg config.Config, app trace.Profile) (float64, error) {
	res, err := r.RunConfig(cfg.WithSchemes(false, false), []trace.Profile{app}, aloneLabel(app))
	if err != nil {
		return 0, err
	}
	ipc := res.IPC[0]
	if ipc <= 0 {
		return 0, fmt.Errorf("exp: alone IPC of %s is %v", app.Name, ipc)
	}
	return ipc, nil
}

// aloneLabel is the label of app's alone run. A built-in profile keeps
// "alone-"+name, the key of every Table 2 alone run and of the daemon's stored
// results; any other profile is labelled by all of its parameters, because a
// custom profile may share its name with a built-in one or with another custom
// profile, and the label is what the run cache tells them apart by.
func aloneLabel(app trace.Profile) string {
	if p, err := trace.Lookup(app.Name); err == nil && p == app {
		return "alone-" + app.Name
	}
	return fmt.Sprintf("alone-%+v", app)
}

// IPCPairs pairs each active tile's IPC in a finished run with the alone IPC
// of that tile's application on cfg (used as given, like AloneIPC): the two
// operands of weighted speedup and its fairness companions. It requests one
// alone run per active tile, in tile order.
func (r *Runner) IPCPairs(cfg config.Config, res *sim.Result) (shared, alone []float64, err error) {
	for _, tile := range res.ActiveTiles() {
		a, err := r.AloneIPC(cfg, res.Apps[tile])
		if err != nil {
			return nil, nil, err
		}
		shared = append(shared, res.IPC[tile])
		alone = append(alone, a)
	}
	return shared, alone, nil
}

// each calls fn(0) .. fn(n-1) on the worker pool and returns the first
// error; with one worker, in index order on the calling goroutine.
func (r *Runner) each(n int, fn func(i int) error) error {
	if r.workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	// The group admits every call at once: the run semaphore (not the group)
	// bounds how many simulations execute, and a waiter of a run another
	// figure started parks on a channel without holding a worker slot.
	g := par.NewGroup(n)
	for i := 0; i < n; i++ {
		g.Go(func() error { return fn(i) })
	}
	return g.Wait()
}
