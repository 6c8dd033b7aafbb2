package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/simd"
	"nocmem/internal/simdclient"
	"nocmem/internal/workload"
)

// distGrid is one job of tiny Baseline16 points differing only in Scheme-1's
// ThresholdFactor, stepped by 0.01: one shared warmup per worker, then a
// restore and a few thousand cycles per point.
func distGrid(e *env) ([]simd.RunSpec, error) {
	w, err := workload.Get(1)
	if err != nil {
		return nil, err
	}
	if w, err = w.Halve(); err != nil {
		return nil, err
	}
	profiles, err := w.Profiles()
	if err != nil {
		return nil, err
	}
	apps := make([]string, len(profiles))
	for i, p := range profiles {
		apps[i] = p.Name
	}
	window := int64(5_000)
	if e.smoke() {
		window = e.cycles(window)
	}
	grid := make([]simd.RunSpec, e.count(360, 8))
	for i := range grid {
		cfg := config.Baseline16().WithSchemes(true, false)
		cfg.Run.Seed = e.seed
		cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = window, window
		cfg.S1.UpdatePeriod = max(window/2, 1)
		cfg.S1.ThresholdFactor = 1 + 0.01*float64(i)
		grid[i] = simd.RunSpec{Config: cfg, Apps: apps}
	}
	return grid, nil
}

// distChunk is how many consecutive merged points, from either worker, make
// one chunk of the timed region's median pace: four lease batches.
const distChunk = 16

// distCheckEvery thins the tracing-off output check: the local daemon that
// supplies the reference bytes costs as much per point as the sweep itself.
const distCheckEvery = 4

// workerPool is the set of sweep workers of one coordinator, each with its
// own client and connection.
type workerPool struct {
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	clients  []*simdclient.Client
	counters []*rpcCounter
}

// startWorkers joins n workers to the coordinator at base; done, if not nil,
// is marked at each merged point. loop is the worker
// body: simdclient.RunWorker, or the traced pass's hand-driven copy.
func startWorkers(ctx context.Context, base string, n int, done *marks, loop func(ctx context.Context, lane int, cl *simdclient.Client)) *workerPool {
	ctx, cancel := context.WithCancel(ctx)
	p := &workerPool{cancel: cancel}
	for lane := 0; lane < n; lane++ {
		cl, rc := newClient(base)
		rc.done = done
		p.clients, p.counters = append(p.clients, cl), append(p.counters, rc)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			loop(ctx, lane, cl)
		}()
	}
	return p
}

// stop cancels the workers, waits for every loop to return and closes their
// connections.
func (p *workerPool) stop() {
	p.cancel()
	p.wg.Wait()
	for i, cl := range p.clients {
		cl.Close()
		p.counters[i].close()
	}
}

func (p *workerPool) rpcs() (calls, bytes int64) {
	for _, rc := range p.counters {
		calls += rc.calls.Load()
		bytes += rc.bytes.Load()
	}
	return calls, bytes
}

func runDistSmall(e *env) {
	grid, err := distGrid(e)
	if !e.must(err, "dist_small grid") {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	stock := func(ctx context.Context, lane int, cl *simdclient.Client) {
		err := simdclient.RunWorker(ctx, cl, simdclient.WorkerOptions{
			Name: fmt.Sprintf("bench%d", lane), Parallelism: 1, ShareWarmup: true,
		})
		e.must(err, "worker loop")
	}

	// Set-up: coordinator, submitter, and a pilot job through two workers.
	// The last coordinator serves the timed region with fresh workers.
	var d *daemon
	var sub *simdclient.Client
	var subRPC *rpcCounter
	closeSub := func() {
		sub.Close()
		subRPC.close()
	}
	stop := func() {
		closeSub()
		d.stop(e)
	}
	setups := repeatSetup(func() bool {
		d, err = startDaemon(e, simd.Options{Distributed: true, LeaseBatch: 4, ShareWarmup: true})
		if !e.must(err, "starting the coordinator") {
			return false
		}
		sub, subRPC = newSubmitter(d.base)
		job, err := sub.Submit(ctx, simd.RunRequest{Points: []simd.RunSpec{pilotSpec(e, 0), pilotSpec(e, 1)}})
		ok := e.must(err, "pilot job")
		if ok {
			pool := startWorkers(ctx, d.base, e.procs, nil, stock)
			js, err := pilotWait(ctx, sub, job.ID)
			pool.stop()
			ok = e.must(err, "pilot job") && e.check(js.Err() == "", "pilot job: %s", js.Err())
		}
		if !ok {
			stop()
		}
		return ok
	}, stop)
	if setups == nil {
		return
	}
	defer stop()

	// Timed region. The job goes in first and the workers join after it, so
	// their first lease call finds work: a worker that polls an empty
	// coordinator sleeps up to a second before it asks again, which would
	// add that much jitter to an 8-second region.
	tr := e.tr
	e.beginRoot()
	timed := tr.begin("bench.timed", e.root, 0)
	subCalls, subBytes := subRPC.calls.Load(), subRPC.bytes.Load()
	e.beginTimed()
	start := time.Now()
	h := tr.begin("simdclient.submit", timed, 0)
	job, err := sub.Submit(ctx, simd.RunRequest{Points: grid})
	tr.end(h)
	if !e.must(err, "submitting the sweep") {
		return
	}
	region := tr.beginLanes("bench.workers", timed, 0, e.procs)
	loop := stock
	var hand *handWorkers
	if e.traced() {
		hand = &handWorkers{e: e, region: region}
		loop = hand.loop
	}
	var merged marks
	pool := startWorkers(ctx, d.base, e.procs, &merged, loop)
	js, err := sub.Wait(ctx, job.ID, nil)
	wall := time.Since(start).Seconds()
	pool.stop()
	tr.end(region)
	tr.end(timed)
	e.endRoot()
	pace := medianPace(merged.chunks(start, distChunk))
	e.endToEnd(setups, float64(len(grid))*pace, 1/pace, wall)
	if !e.must(err, "waiting for the sweep") {
		return
	}
	e.check(js.Status == simd.StatusDone, "sweep ended %q: %s", js.Status, js.Err())

	st, err := sub.Stats(ctx)
	haveStats := e.must(err, "/statsz")
	if haveStats {
		e.check(st.Runner.Executed == 0, "the coordinator executed %d simulations itself", st.Runner.Executed)
		e.check(st.Runner.LeasesExpired == 0, "%d leases expired", st.Runner.LeasesExpired)
		e.check(st.Dist != nil && st.Dist.Mismatches == 0, "duplicate completions with different bytes: %+v", st.Dist)
	}

	// The same points on a non-distributed daemon: each merged summary must
	// equal its bytes. Traced, that is the whole grid and its host time the
	// base of dist_over_local; tracing off, every distCheckEvery-th point.
	every := distCheckEvery
	if e.traced() {
		every = 1
	}
	var sample []simd.RunSpec
	for i := 0; i < len(grid); i += every {
		sample = append(sample, grid[i])
	}
	local, localS := distLocal(e, ctx, sample)
	for i := range grid {
		if i >= len(js.Results) {
			e.check(false, "point %d has no merged result", i)
			continue
		}
		e.check(js.Results[i].Source == simd.SourceWorker, "point %d: merged summary has source %q", i, js.Results[i].Source)
		if k := i / every; i%every == 0 {
			e.check(k < len(local) && bytes.Equal(js.Results[i].Summary, local[k]), "point %d: merged summary differs from the local daemon's", i)
		}
		e.hashSummary(js.Results[i].Summary)
	}

	if !e.traced() {
		return
	}
	calls, nbytes := pool.rpcs()
	calls += subRPC.calls.Load() - subCalls
	nbytes += subRPC.bytes.Load() - subBytes
	points := float64(len(grid))
	e.setLayer("simd.rpcs_per_point", float64(calls)/points)
	e.setLayer("simd.rpc_bytes_per_point", float64(nbytes)/points)
	spans := tr.snapshot()
	e.setLayerSamples("simd.lease_rpc_p50_ms", scaled(spanSeconds(spans, e.root, "simdclient.lease"), 1e3))
	e.setLayerSamples("simd.complete_rpc_p50_ms", scaled(spanSeconds(spans, e.root, "simdclient.complete"), 1e3))
	busy := sum(spanSeconds(spans, e.root, "simd.execute_spec"))
	e.setLayer("simdclient.worker_idle_frac", 1-busy/(float64(e.procs)*wall))
	if localS > 0 {
		e.setLayer("simd.dist_over_local", wall/localS)
	}
	if haveStats {
		e.setLayer("simd.leases_granted", float64(st.Runner.LeasesGranted))
		e.setLayer("simd.leases_expired", float64(st.Runner.LeasesExpired))
		e.setLayer("simd.duplicate_completions", float64(st.Runner.DuplicateCompletions))
	}
}

// distLocal runs the grid as one job on a non-distributed daemon with a
// procs-wide pool and returns the summaries in grid order and the host
// seconds from submit to done.
func distLocal(e *env, ctx context.Context, grid []simd.RunSpec) ([][]byte, float64) {
	d, err := startDaemon(e, simd.Options{Parallelism: e.procs, ShareWarmup: true})
	if !e.must(err, "starting the local daemon") {
		return nil, 0
	}
	defer d.stop(e)
	cl, rc := newSubmitter(d.base)
	defer func() {
		cl.Close()
		rc.close()
	}()
	start := time.Now()
	js, err := cl.Run(ctx, simd.RunRequest{Points: grid})
	seconds := time.Since(start).Seconds()
	if !e.must(err, "local daemon sweep") || !e.check(js.Err() == "", "local daemon sweep: %s", js.Err()) {
		return nil, 0
	}
	out := make([][]byte, len(js.Results))
	for i, r := range js.Results {
		out[i] = r.Summary
	}
	return out, seconds
}

// handWorkers is the traced pass's worker loop: what simdclient.RunWorker
// does, restated over the client's public RPCs so every step is a span —
// simdclient.register -> simdclient.lease -> simd.resolve_spec ->
// simd.execute_spec -> simdclient.complete, the spans of one point sharing
// its lease id.
type handWorkers struct {
	e      *env
	region int
}

func (hw *handWorkers) loop(ctx context.Context, lane int, cl *simdclient.Client) {
	e, tr := hw.e, hw.e.tr
	ls := tr.begin("bench.lane", hw.region, 0)
	defer tr.end(ls)
	runner := exp.NewRunner(exp.Options{Parallelism: 1, ShareWarmup: true})

	h := tr.begin("simdclient.register", ls, 0)
	reg, err := cl.RegisterWorker(ctx, fmt.Sprintf("bench%d", lane))
	tr.end(h)
	if !e.must(err, "registering a worker") {
		return
	}
	for ctx.Err() == nil {
		h = tr.begin("simdclient.lease_empty", ls, 0)
		lr, err := cl.Lease(ctx, reg.WorkerID, runner.Parallelism())
		tr.end(h)
		if ctx.Err() != nil {
			return
		}
		if !e.must(err, "lease call") {
			return
		}
		if len(lr.Leases) == 0 {
			// Idle: the sweep has nothing for this worker right now.
			idle := tr.begin("simdclient.idle", ls, 0)
			select {
			case <-ctx.Done():
			case <-time.After(time.Duration(max(lr.RetryMS, 25)) * time.Millisecond):
			}
			tr.end(idle)
			continue
		}
		tr.rename(h, "simdclient.lease")
		for _, l := range lr.Leases {
			id := int(l.ID)
			req := simd.CompleteRequest{Worker: reg.WorkerID, LeaseID: l.ID, Key: l.Key}
			h = tr.begin("simd.resolve_spec", ls, id)
			rp, err := simd.ResolveSpec(l.Spec)
			tr.end(h)
			if e.must(err, "resolving a leased point") {
				h = tr.begin("simd.execute_spec", ls, id)
				req.Summary, err = simd.ExecuteSpec(runner, rp)
				tr.end(h)
				e.must(err, "executing a leased point")
			}
			if err != nil {
				req.Err = err.Error()
			}
			h = tr.begin("simdclient.complete", ls, id)
			status, err := cl.Complete(ctx, req)
			tr.end(h)
			if ctx.Err() != nil {
				return
			}
			if e.must(err, "complete call") {
				e.check(status == simd.CompleteAccepted, "completion of lease %d was %q", l.ID, status)
			}
		}
	}
}
