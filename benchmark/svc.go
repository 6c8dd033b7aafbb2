package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/forkrun"
	"nocmem/internal/sim"
	"nocmem/internal/simd"
	"nocmem/internal/simdclient"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// daemon is an in-process nocsimd: a simd.Server behind a real HTTP server on
// a loopback port the kernel picks, over a store in its own temp directory.
type daemon struct {
	srv    *simd.Server
	hs     *http.Server
	base   string
	dir    string
	served chan error
}

func startDaemon(e *env, opts simd.Options) (*daemon, error) {
	dir, err := os.MkdirTemp(e.tmp, "store-*")
	if err != nil {
		return nil, err
	}
	opts.StoreDir = dir
	srv, err := simd.New(opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1), // one send, from the Serve goroutine
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the server, closes the listener and every connection, waits
// for Serve to return and removes the store.
func (d *daemon) stop(e *env) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	e.must(d.srv.Drain(ctx), "draining the daemon")
	e.must(d.hs.Close(), "closing the HTTP server")
	<-d.served
	e.must(os.RemoveAll(d.dir), "removing the store")
}

// rpcCounter is a counting http.RoundTripper: the begin()/end() accounting of
// the 3PC tester in SNIPPETS.md, charging a layer its round trips and body
// bytes. Install with Client.SetTransport.
type rpcCounter struct {
	next  http.RoundTripper
	calls atomic.Int64
	bytes atomic.Int64
	// done, when set, is marked as each /dist/complete round trip returns:
	// the moment a worker's point is merged.
	done *marks
}

func newRPCCounter() *rpcCounter {
	// One transport per client keeps each client on its own connection.
	return &rpcCounter{next: &http.Transport{MaxIdleConnsPerHost: 1}}
}

type countedBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (c *rpcCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	c.calls.Add(1)
	if req.ContentLength > 0 {
		c.bytes.Add(req.ContentLength)
	}
	resp, err := c.next.RoundTrip(req)
	if err == nil {
		resp.Body = countedBody{resp.Body, &c.bytes}
		if c.done != nil && req.URL.Path == "/dist/complete" {
			c.done.mark()
		}
	}
	return resp, err
}

// close releases the idle connection the transport still holds.
func (c *rpcCounter) close() { c.next.(*http.Transport).CloseIdleConnections() }

// newClient returns a daemon client on its own counted connection.
func newClient(base string) (*simdclient.Client, *rpcCounter) {
	cl, rc := simdclient.New(base), newRPCCounter()
	cl.SetTransport(rc)
	return cl, rc
}

// pollEvery caps the job polling of the clients that wait for simulated
// points. Wait's default backs off 10, 20, 40 ms ... up to a second, which
// reports a 220 ms point at 310 ms and a 320 ms one at 630 ms: throughput would
// be a step function of the daemon's speed. Capped at 20 ms the overshoot
// averages 10 ms a job; store hits, done by the first or second poll, never
// reach the cap, so their latencies are the default client's.
const pollEvery = 20 * time.Millisecond

func newSubmitter(base string) (*simdclient.Client, *rpcCounter) {
	cl, rc := newClient(base)
	cl.PollMax = pollEvery
	return cl, rc
}

// pilotWait waits for a set-up job polling every millisecond: any back-off
// step is a large share of a pilot's ~40 ms, and setup_s would flip between
// two values from run to run.
func pilotWait(ctx context.Context, cl *simdclient.Client, id string) (*simd.JobStatus, error) {
	poll, pollMax := cl.Poll, cl.PollMax
	cl.Poll, cl.PollMax = time.Millisecond, time.Millisecond
	defer func() { cl.Poll, cl.PollMax = poll, pollMax }()
	return cl.Wait(ctx, id, nil)
}

// pilotSpec is the point a service workload's set-up sends through the whole
// path — submit, simulate, persist — before anything is timed: a Baseline16
// point small enough to cost well under a second.
func pilotSpec(e *env, salt int) simd.RunSpec {
	cfg := config.Baseline16()
	cfg.Run.Seed = e.seed
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = e.cycles(4_000), e.cycles(4_000)+int64(salt)
	return simd.RunSpec{Config: cfg, Apps: []string{"mcf", "lbm", "milc", "namd"}}
}

// --- svc_mixed ---

// svcGrid is the cold phase's policy grid: ThresholdFactor x HistoryWindow x
// workload over Baseline32 with both schemes on, in seeded order.
func svcGrid(e *env) []simd.RunSpec {
	factors := []float64{0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6}
	windows := []int64{1000, 2000, 3000, 4000, 5000}
	if e.smoke() {
		factors, windows = factors[:2], windows[:1]
	}
	var grid []simd.RunSpec
	for _, wl := range []int{1, 7} {
		for _, f := range factors {
			for _, hw := range windows {
				cfg := config.Baseline32().WithSchemes(true, true)
				cfg.Run.Seed = e.seed
				cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = e.cycles(20_000), e.cycles(10_000)
				cfg.S1.UpdatePeriod = e.cycles(5_000)
				cfg.S1.ThresholdFactor = f
				cfg.S2.HistoryWindow = hw
				grid = append(grid, simd.RunSpec{Config: cfg, Workload: wl})
			}
		}
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	return grid
}

// The phases' chunks for the median pace: svcColdChunk consecutive cold
// completions from either lane, and the hit phase cut into svcHitChunks.
const (
	svcColdChunk = 4
	svcHitChunks = 24
)

// svcRequest is one request of the hit phase.
type svcRequest struct {
	kind  byte // 'h' store hit via Run, 'e' estimate via Run, 'g' GET /results/{key}
	point int  // index into the grid
}

// lanes runs body on e.procs closed-loop clients: each takes the next index
// when its previous request completed. In a traced pass the lanes hang under
// a Width span so their self time is charged at 1/procs.
func lanes(e *env, name string, parent, n int, body func(lane, laneSpan, i int)) (seconds float64) {
	tr := e.tr
	region := tr.beginLanes(name, parent, 0, e.procs)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < e.procs; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ls := tr.begin("bench.lane", region, 0)
			defer tr.end(ls)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(lane, ls, i)
			}
		}()
	}
	wg.Wait()
	seconds = time.Since(start).Seconds()
	tr.end(region)
	return seconds
}

func runSvcMixed(e *env) {
	grid := svcGrid(e)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Set-up: daemon, one connected client per lane, and a pilot point
	// through the whole path. The last instance serves the timed region.
	var d *daemon
	clients := make([]*simdclient.Client, e.procs)
	counters := make([]*rpcCounter, e.procs)
	closeClients := func() {
		for i, cl := range clients {
			if cl != nil {
				cl.Close()
				counters[i].close()
			}
		}
	}
	stop := func() {
		closeClients()
		d.stop(e)
	}
	setups := repeatSetup(func() bool {
		var err error
		d, err = startDaemon(e, simd.Options{Parallelism: e.procs, ShareWarmup: true})
		if !e.must(err, "starting the daemon") {
			return false
		}
		for i := range clients {
			clients[i], counters[i] = newSubmitter(d.base)
			job, err := clients[i].Submit(ctx, simd.RunRequest{Points: []simd.RunSpec{pilotSpec(e, i)}})
			var js *simd.JobStatus
			if err == nil {
				js, err = pilotWait(ctx, clients[i], job.ID)
			}
			if !e.must(err, "pilot point") || !e.check(js.Err() == "", "pilot point: %s", js.Err()) {
				stop()
				return false
			}
		}
		return true
	}, stop)
	if setups == nil {
		return
	}
	defer stop()

	tr := e.tr
	e.beginRoot()
	timed := tr.begin("bench.timed", e.root, 0)

	// Cold phase: every grid point as its own single-point job.
	cold := make([][]byte, len(grid))
	keys := make([]string, len(grid))
	var coldDone, hitDone marks
	e.beginTimed()
	coldStart := time.Now()
	coldS := lanes(e, "bench.cold", timed, len(grid), func(lane, ls, i int) {
		js, ok := svcRun(e, ctx, clients[lane], "cold", ls, i+1, grid[i])
		coldDone.mark()
		if !ok {
			return
		}
		r := js.Results[0]
		if e.check(r.Source == simd.SourceSim, "cold point %d came from %q, want a simulation", i, r.Source) {
			cold[i], keys[i] = r.Summary, r.Key
		}
	})
	afterCold, err := clients[0].Stats(ctx)
	if !e.must(err, "/statsz after the cold phase") {
		return
	}

	// Hit phase: the same keys again, plus estimates and result fetches, in
	// seeded order.
	var reqs []svcRequest
	rng := rand.New(rand.NewSource(e.seed + 1))
	for i, n := 0, e.count(4_000, 40); i < n; i++ {
		reqs = append(reqs, svcRequest{'h', rng.Intn(len(grid))})
	}
	for i, n := 0, e.count(1_000, 10); i < n; i++ {
		reqs = append(reqs, svcRequest{'e', rng.Intn(len(grid))}, svcRequest{'g', rng.Intn(len(grid))})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	hitStart := time.Now()
	hitS := lanes(e, "bench.hit", timed, len(reqs), func(lane, ls, i int) {
		defer hitDone.mark()
		rq, id := reqs[i], len(grid)+i+1
		spec := grid[rq.point]
		switch rq.kind {
		case 'h':
			js, ok := svcRun(e, ctx, clients[lane], "hit", ls, id, spec)
			if ok {
				r := js.Results[0]
				e.check(r.Source == simd.SourceStore && bytes.Equal(r.Summary, cold[rq.point]),
					"hit on point %d: source %q, bytes equal %v", rq.point, r.Source, bytes.Equal(r.Summary, cold[rq.point]))
			}
		case 'e':
			spec.Estimate = true
			h := tr.begin("simdclient.estimate", ls, id)
			js, err := clients[lane].Run(ctx, simd.RunRequest{Points: []simd.RunSpec{spec}})
			tr.end(h)
			if e.must(err, "estimate request") {
				e.check(js.Err() == "" && js.Results[0].Source == simd.SourceEstimate, "estimate of point %d: %q %s", rq.point, js.Results[0].Source, js.Err())
			}
		case 'g':
			h := tr.begin("simdclient.result", ls, id)
			got, err := clients[lane].Result(ctx, keys[rq.point])
			tr.end(h)
			if e.must(err, "GET /results") {
				e.check(bytes.Equal(got, cold[rq.point]), "GET /results of point %d differs from the cold result", rq.point)
			}
		}
	})
	tr.end(timed)
	e.endRoot()
	coldPace := medianPace(coldDone.chunks(coldStart, svcColdChunk))
	hitPace := medianPace(hitDone.chunks(hitStart, max(len(reqs)/svcHitChunks, 1)))
	e.endToEnd(setups, float64(len(grid))*coldPace+float64(len(reqs))*hitPace, 1/coldPace, coldS+hitS)

	final, err := clients[0].Stats(ctx)
	if e.must(err, "/statsz after the hit phase") {
		e.check(final.Runner.Executed == afterCold.Runner.Executed, "the hit phase executed %d simulations", final.Runner.Executed-afterCold.Runner.Executed)
	}
	for _, b := range cold { // grid order is seeded, so the digest is per seed
		e.hashSummary(b)
	}

	// Sampled points against direct execution on a fresh forking runner:
	// resolve -> execute, the store wrapped so its calls show as spans.
	svcSampleCheck(e, grid, cold)

	if !e.traced() {
		return
	}

	spans := tr.snapshot()
	hits := scaled(spanSeconds(spans, e.root, "simdclient.run_hit"), 1e3)
	e.setLayerSamples("simd.hit_p50_ms", hits)
	e.setLayer("simd.hit_p99_ms", percentile(hits, 99))
	e.setLayerSamples("simd.get_result_p50_us", scaled(spanSeconds(spans, e.root, "simdclient.result"), 1e6))
	e.setLayerSamples("simd.estimate_p50_ms", scaled(spanSeconds(spans, e.root, "simdclient.estimate"), 1e3))
	e.setLayerSamples("simdclient.submit_p50_ms", scaled(spanSeconds(spans, e.root, "simdclient.submit_hit"), 1e3))
	waits := scaled(spanSeconds(spans, e.root, "simdclient.wait_hit"), 1e3)
	e.setLayerSamples("simdclient.wait_p50_ms", waits)
	e.setLayer("simdclient.wait_p99_ms", percentile(waits, 99))
	e.setLayer("simd.cold_points_per_s", float64(len(grid))/coldS)
	e.setLayer("simd.hit_requests_per_s", float64(len(reqs))/hitS)
	e.setLayer("simd.store_result_hits", float64(final.Store.ResultHits))
	e.setLayer("simd.store_result_misses", float64(final.Store.ResultMisses))
	e.setLayer("simd.executed", float64(final.Runner.Executed))
	e.setLayer("forkrun.warmups", float64(final.Runner.Warmups))
	e.setLayer("forkrun.forked", float64(final.Runner.Forked))
	e.setLayer("forkrun.mem_hits", float64(final.Runner.SnapshotMemHits))
	forkAmortization(e)
}

// svcRun is one single-point job of the given phase. Traced, it is Submit and
// Wait as separate spans under one simdclient.run_<phase> span.
func svcRun(e *env, ctx context.Context, cl *simdclient.Client, phase string, parent, id int, spec simd.RunSpec) (*simd.JobStatus, bool) {
	req := simd.RunRequest{Points: []simd.RunSpec{spec}}
	if !e.traced() {
		js, err := cl.Run(ctx, req)
		if !e.must(err, "run request") {
			return nil, false
		}
		return js, e.check(js.Err() == "" && len(js.Results) == 1, "run request: %s", js.Err())
	}
	tr := e.tr
	run := tr.begin("simdclient.run_"+phase, parent, id)
	defer tr.end(run)
	sub := tr.begin("simdclient.submit_"+phase, run, id)
	resp, err := cl.Submit(ctx, req)
	tr.end(sub)
	if !e.must(err, "submit") {
		return nil, false
	}
	wait := tr.begin("simdclient.wait_"+phase, run, id)
	js, err := cl.Wait(ctx, resp.ID, nil)
	tr.end(wait)
	if !e.must(err, "wait") {
		return nil, false
	}
	return js, e.check(js.Err() == "" && len(js.Results) == 1, "run request: %s", js.Err())
}

// spanStore wraps the daemon store's snapshot side so a hand-driven
// ExecuteSpec shows its store traffic as child spans.
type spanStore struct {
	st     *simd.Store
	tr     *tracer
	parent *atomic.Int64 // the execute_spec span currently running
}

func (s spanStore) LoadSnapshot(key string) ([]byte, bool) {
	h := s.tr.begin("simd.store.load_snapshot", int(s.parent.Load()), 0)
	defer s.tr.end(h)
	return s.st.LoadSnapshot(key)
}

func (s spanStore) SaveSnapshot(key string, img []byte) {
	h := s.tr.begin("simd.store.save_snapshot", int(s.parent.Load()), 0)
	defer s.tr.end(h)
	s.st.SaveSnapshot(key, img)
}

func (s spanStore) DeleteSnapshot(key string) { s.st.DeleteSnapshot(key) }

var _ forkrun.SnapshotStore = spanStore{}

// svcSampleCheck re-executes four grid points directly — simd.resolve_spec ->
// simd.execute_spec -> simd.store.* — on a fresh runner forking from its own
// store, and requires the daemon's bytes.
func svcSampleCheck(e *env, grid []simd.RunSpec, cold [][]byte) {
	tr := e.tr
	dir, err := os.MkdirTemp(e.tmp, "direct-*")
	if !e.must(err, "direct store") {
		return
	}
	defer os.RemoveAll(dir)
	st, err := simd.OpenStore(dir, nil)
	if !e.must(err, "direct store") {
		return
	}
	root := tr.begin("bench.sample_check", noSpan, 0)
	defer tr.end(root)
	var current atomic.Int64
	current.Store(noSpan)
	runner := exp.NewRunner(exp.Options{Parallelism: 1, ShareWarmup: true})
	runner.SetSnapshotStore(spanStore{st, tr, &current})
	var warm []float64
	seen := make(map[int]bool)
	for k := 0; k < min(4, len(grid)); k++ {
		i := k * len(grid) / 4
		if cold[i] == nil {
			continue // the cold request already counted as failed
		}
		h := tr.begin("simd.resolve_spec", root, i+1)
		rp, err := simd.ResolveSpec(grid[i])
		tr.end(h)
		if !e.must(err, "ResolveSpec of a sampled point") {
			continue
		}
		h = tr.begin("simd.execute_spec", root, i+1)
		current.Store(int64(h))
		start := time.Now()
		got, err := simd.ExecuteSpec(runner, rp)
		took := time.Since(start).Seconds()
		tr.end(h)
		if !e.must(err, "ExecuteSpec of a sampled point") {
			continue
		}
		if seen[grid[i].Workload] { // the first point of a placement pays its warmup
			warm = append(warm, took*1e3)
		}
		seen[grid[i].Workload] = true
		h = tr.begin("simd.store.save_result", root, i+1)
		st.SaveResult(rp.Key, got)
		tr.end(h)
		h = tr.begin("simd.store.load_result", root, i+1)
		back, ok := st.LoadResult(rp.Key)
		tr.end(h)
		e.check(ok && bytes.Equal(back, got), "sampled point %d did not survive its store", i)
		e.check(bytes.Equal(got, cold[i]), "sampled point %d: direct ExecuteSpec differs from the daemon's result", i)
	}
	if e.traced() && len(warm) > 0 {
		e.setLayerSamples("simd.execute_spec_ms", warm)
	}
}

// forkAmortization times an 8-configuration Baseline16 policy sweep cold and
// then forked from one shared warm checkpoint, both sequentially, so the
// ratio is the warmup amortization alone (cmd/bench's fork point, resized).
func forkAmortization(e *env) {
	base := config.Baseline16()
	base.Run.Seed = e.seed
	base.Run.WarmupCycles, base.Run.MeasureCycles = e.cycles(30_000), e.cycles(5_000)
	base.S1.UpdatePeriod = max(base.Run.MeasureCycles/2, 1)
	w, err := workload.Get(7)
	if !e.must(err, "fork sweep workload") {
		return
	}
	if w, err = w.Halve(); !e.must(err, "fork sweep workload") {
		return
	}
	apps, err := w.Profiles()
	if !e.must(err, "fork sweep workload") {
		return
	}
	padded := make([]trace.Profile, base.Mesh.Nodes())
	copy(padded, apps)
	relaxed := base.WithSchemes(true, false)
	relaxed.S1.ThresholdFactor = 1.0
	appNet, fcfs, appMem := base, base, base
	appNet.AppAwareNet = true
	fcfs.DRAM.Sched = config.FCFS
	appMem.DRAM.Sched = config.AppAwareMem
	variants := []config.Config{
		base, base.WithSchemes(true, false), base.WithSchemes(false, true), base.WithSchemes(true, true),
		relaxed, appNet, fcfs, appMem,
	}

	start := time.Now()
	for _, cfg := range variants {
		s, err := sim.New(cfg, padded)
		if !e.must(err, "cold fork-sweep run") {
			return
		}
		s.Run()
	}
	coldS := time.Since(start).Seconds()

	var cache forkrun.Cache
	var forked []float64
	start = time.Now()
	for i, cfg := range variants {
		one := time.Now()
		_, err := cache.Run(cfg, padded)
		if !e.must(err, "forked fork-sweep run") {
			return
		}
		if i > 0 { // the first also executes the shared warmup
			forked = append(forked, time.Since(one).Seconds()*1e3)
		}
	}
	forkS := time.Since(start).Seconds()
	e.check(cache.Snapshots() == 1, "the fork sweep warmed %d snapshots, want 1 shared", cache.Snapshots())

	wc, mc, n := base.Run.WarmupCycles, base.Run.MeasureCycles, int64(len(variants))
	e.setLayerSamples("forkrun.run_ms", forked)
	e.setLayer("forkrun.amortization", coldS/forkS)
	e.setLayer("forkrun.amortization_ideal", float64(n*(wc+mc))/float64(wc+n*mc))
}
