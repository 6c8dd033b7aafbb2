package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"nocmem/internal/analytic"
	"nocmem/internal/config"
	"nocmem/internal/sim"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// simCase is one single-simulation workload: a configuration, a placement
// and, for benchmark-owned instruction streams, the sources behind it.
type simCase struct {
	cfg  config.Config
	apps []trace.Profile
	srcs func() []trace.AppSource // nil: the built-in generators
}

func (c simCase) build(cfg config.Config) (*sim.Simulator, error) {
	if c.srcs != nil {
		return sim.NewFromSources(cfg, c.srcs(), c.apps)
	}
	return sim.New(cfg, c.apps)
}

// summaryBytes is the canonical byte form simulated outputs are compared in.
func summaryBytes(res *sim.Result) []byte {
	b, err := json.Marshal(res.Summary())
	if err != nil {
		panic(err) // a Summary is plain numbers and strings
	}
	return b
}

// shortRun executes a fresh simulation of c over a short window under cfg's
// stepping layout, dense or event stepped, and returns its summary bytes and
// the host seconds of the window (warmup excluded).
func (c simCase) shortRun(cfg config.Config, warm, measure int64, dense bool) ([]byte, float64, error) {
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = warm, measure
	s, err := c.build(cfg)
	if err != nil {
		return nil, 0, err
	}
	s.SetDenseStepping(dense)
	s.Step(warm)
	start := time.Now()
	res := s.Run()
	return summaryBytes(res), time.Since(start).Seconds(), nil
}

// --- the three cases ---

func sat32Case(e *env) (simCase, error) {
	cfg := config.Baseline32().WithSchemes(true, true)
	cfg.Run.Seed = e.seed
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = e.cycles(20_000), e.cycles(700_000)
	w, err := workload.Get(7)
	if err != nil {
		return simCase{}, err
	}
	apps, err := w.Profiles()
	return simCase{cfg: cfg, apps: apps}, err
}

// burstySource alternates a burst of cold misses that hard-stalls the core
// (mesh and DRAM go hot) with a stretch of non-memory instructions (the mesh
// drains): the load shape where the scheduler's skipping, not the component
// ticks, decides host time. Same shape as cmd/bench's scaling campaign; the
// seed only moves each tile's phase.
type burstySource struct {
	burst, gap int
	storeEvery int
	hotLeft    int
	gapLeft    int
	addr       uint64
	stride     uint64
}

func (b *burstySource) Next() trace.Instr {
	if b.hotLeft > 0 {
		b.hotLeft--
		if b.hotLeft == 0 {
			b.gapLeft = b.gap
		}
		a := b.addr
		b.addr += b.stride
		return trace.Instr{IsMem: true, IsStore: b.hotLeft%b.storeEvery == 0, Addr: a}
	}
	b.gapLeft--
	if b.gapLeft <= 0 {
		b.hotLeft = b.burst
	}
	return trace.Instr{}
}

func (b *burstySource) PrewarmLines() (hot, warm []uint64) { return nil, nil }

func bursty256Case(e *env) (simCase, error) {
	cfg := config.Baseline32()
	cfg.Mesh.Width, cfg.Mesh.Height = 16, 16
	cfg.NoC.ClockDivisors = map[int]int{70: 2, 133: 2, 199: 4}
	cfg.Run.Seed = e.seed
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = e.cycles(20_000), e.cycles(650_000)
	nodes := cfg.Mesh.Nodes()
	apps := make([]trace.Profile, nodes)
	var tiles []int
	for i := 3; i < nodes; i += 7 {
		apps[i] = trace.Profile{Name: "bursty"}
		tiles = append(tiles, i)
	}
	const burst, gap = 200, 8_000
	srcs := func() []trace.AppSource {
		rng := rand.New(rand.NewSource(e.seed))
		out := make([]trace.AppSource, nodes)
		for j, tile := range tiles {
			out[tile] = &burstySource{
				burst: burst, gap: gap, storeEvery: 5,
				gapLeft: 1 + rng.Intn(gap),
				addr:    uint64(j+1) << 28,
				stride:  64,
			}
		}
		return out
	}
	return simCase{cfg: cfg, apps: apps, srcs: srcs}, nil
}

func par256Case(e *env) (simCase, error) {
	cfg := config.Baseline32()
	cfg.Mesh.Width, cfg.Mesh.Height = 16, 16
	cfg.Run.Seed = e.seed
	cfg.Run.Shards = e.procs
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = e.cycles(10_000), e.cycles(250_000)
	apps := make([]trace.Profile, cfg.Mesh.Nodes())
	mcf := trace.MustLookup("mcf")
	for i := 0; i < len(apps); i += 2 {
		apps[i] = mcf
	}
	return simCase{cfg: cfg, apps: apps}, nil
}

// --- the shared driver ---

type simRun struct {
	s   *sim.Simulator
	res *sim.Result
	// sum and summary digest res right after Run() returns: on a
	// single-shard simulator res.Collector is the live collector, which the
	// traced pass's later Step batches keep feeding.
	sum     sim.Summary
	summary []byte
	setups  []float64 // seconds per set-up repeat
	timed   float64   // seconds of the timed region
	chunks  []chunk   // the timed region piece by piece (tracing off)
	batches []float64 // seconds per Step batch (traced)
	batch   int64     // cycles per Step batch (traced)
	allocs  float64   // heap allocations per cycle over the batches (traced)
	ckBytes int
}

// stepChunks is how many equal Step batches follow the opening Run() of a
// tracing-off timed region.
const stepChunks = 24

// headCycles is the part of a measurement window the opening Run() covers: an
// eighth, or the shortest window the retirement check accepts if that is
// more, never above half. It is one chunk however long, so the shorter it is
// the finer the median pace resolves.
func headCycles(window int64) int64 {
	return max(window/8, min(retireCheckCycles, window/2), 1)
}

// runSim is the tracing-off path: set up setupRepeats times (sim.New plus
// the warmup Step), then time the measurement window as chunks: one opaque
// Run() over its head, which resets the statistics at the warmup boundary and
// yields the Result the checks read, then stepChunks Step batches over the
// rest on the same simulator.
func (c simCase) runSim(e *env) (*simRun, error) {
	r := &simRun{}
	cfg := c.cfg
	window := cfg.Run.MeasureCycles
	head := headCycles(window)
	cfg.Run.MeasureCycles = head
	var err error
	r.setups = repeatSetup(func() bool {
		if r.s, err = c.build(cfg); err != nil {
			return false
		}
		r.s.Step(cfg.Run.WarmupCycles)
		return true
	}, func() { r.s = nil })
	if err != nil {
		return nil, err
	}
	e.beginTimed()
	start := time.Now()
	r.res = r.s.Run()
	r.chunks = append(r.chunks, chunk{float64(head), time.Since(start).Seconds()})
	// Between chunks: the Step batches below keep feeding the collector a
	// single-shard Result shares with its simulator.
	r.sum, r.summary = r.res.Summary(), summaryBytes(r.res)
	batch := max((window-head)/stepChunks, 1)
	for left := window - head; left > 0; left -= batch {
		n := min(batch, left)
		start = time.Now()
		r.s.Step(n)
		r.chunks = append(r.chunks, chunk{float64(n), time.Since(start).Seconds()})
	}
	for _, c := range r.chunks {
		r.timed += c.seconds
	}
	return r, nil
}

// runSimTraced drives the same pipeline through public functions, one span
// each: sim.new -> sim.warmup -> (sim.checkpoint -> sim.restore) -> sim.run
// over the first half of the window -> sim.summarize -> sim.step batches over
// the second half. Run() is the only public call that resets statistics at the
// warmup boundary, so the simulated metrics are those of its half window; the
// Step batches continue the same simulator and carry the per-batch timing.
func (c simCase) runSimTraced(e *env, checkpoint bool) (*simRun, error) {
	tr, r := e.tr, &simRun{}
	cfg := c.cfg
	half := max(cfg.Run.MeasureCycles/2, 1)
	rest := cfg.Run.MeasureCycles - half
	cfg.Run.MeasureCycles = half
	r.batch = min(10_000, max(rest/8, 100))

	e.beginRoot()
	defer e.endRoot()
	setup := tr.begin("bench.setup", e.root, 0)
	start := time.Now()
	h := tr.begin("sim.new", setup, 0)
	s, err := c.build(cfg)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	h = tr.begin("sim.warmup", setup, 0)
	s.Step(cfg.Run.WarmupCycles)
	tr.end(h)
	if checkpoint {
		var img bytes.Buffer
		h = tr.begin("sim.checkpoint", setup, 0)
		err = s.Checkpoint(&img)
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		r.ckBytes = img.Len()
		rcfg := cfg
		rcfg.Run.ResumeFrom = cfg.Run.WarmupCycles
		h = tr.begin("sim.restore", setup, 0)
		s, err = sim.Restore(rcfg, c.apps, &img)
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
	}
	tr.end(setup)
	r.setups = []float64{time.Since(start).Seconds()}

	timed := tr.begin("bench.timed", e.root, 0)
	h = tr.begin("sim.run", timed, 0)
	r.res = s.Run()
	tr.end(h)
	h = tr.begin("sim.summarize", timed, 0)
	r.sum, r.summary = r.res.Summary(), summaryBytes(r.res)
	tr.end(h)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var stepped int64
	for stepped < rest {
		n := min(r.batch, rest-stepped)
		h = tr.begin("sim.step", timed, 0)
		s.Step(n)
		d := tr.end(h)
		if n == r.batch {
			r.batches = append(r.batches, d.Seconds())
		}
		stepped += n
	}
	runtime.ReadMemStats(&after)
	if stepped > 0 {
		r.allocs = float64(after.Mallocs-before.Mallocs) / float64(stepped)
	}
	r.timed = tr.end(timed).Seconds()
	r.s = s
	return r, nil
}

// retireCheckCycles is the shortest window on which a tile that retired
// nothing counts as a failure. With dozens of streams queued at four
// controllers FR-FCFS can keep one tile from retiring anything for tens of
// thousands of cycles (seen: 27k on bursty256), which is no failure of the
// run. Every driver-sized window is longer; test-sized and 1/16-size ones
// are not.
const retireCheckCycles = 50_000

// run executes the workload's simulation — one opaque Run() with tracing off,
// hand-driven under spans when traced — and reports it; nil means it failed
// and was counted.
func (c simCase) run(e *env, name string, checkpoint bool) *simRun {
	var r *simRun
	var err error
	if e.traced() {
		r, err = c.runSimTraced(e, checkpoint)
	} else {
		r, err = c.runSim(e)
	}
	if !e.must(err, name) {
		return nil
	}
	c.report(e, r)
	return r
}

// report records the end-to-end metrics of a single-simulation workload and
// the checks every one of them shares: each active tile retired instructions,
// and the summary goes into the digest.
func (c simCase) report(e *env, r *simRun) {
	pace := medianPace(r.chunks)
	e.endToEnd(r.setups, float64(c.cfg.Run.MeasureCycles)*pace, 1/pace, r.timed)
	if r.res.Cycles >= retireCheckCycles {
		for _, tile := range r.res.ActiveTiles() {
			e.check(r.res.CoreStats[tile].Retired > 0, "tile %d retired no instructions", tile)
		}
	}
	e.hashSummary(r.summary)
}

// checkWindow is the length of the output-check runs: 20k cycles nominal.
func (e *env) checkWindow() int64 { return e.cycles(20_000) }

// checkDenseEqual runs a short window dense and event stepped and requires
// byte-equal summaries. It returns the two host times per simulated cycle.
func (c simCase) checkDenseEqual(e *env, warm, window int64) (denseS, eventS float64) {
	cfg := c.cfg
	cfg.Run.Shards = 0
	ev, eventS, err := c.shortRun(cfg, warm, window, false)
	if !e.must(err, "event-stepped check run") {
		return 0, 0
	}
	de, denseS, err := c.shortRun(cfg, warm, window, true)
	if !e.must(err, "dense-stepped check run") {
		return 0, 0
	}
	e.check(bytes.Equal(ev, de), "dense and event steppers disagree on a %d-cycle window", window)
	return denseS, eventS
}

// --- workloads ---

func runSat32(e *env) {
	c, err := sat32Case(e)
	if !e.must(err, "sat32 set-up") {
		return
	}
	r := c.run(e, "sat32", true)
	if r == nil {
		return
	}
	c.checkDenseEqual(e, e.cycles(2_000), e.checkWindow())
	if !e.traced() {
		return
	}

	spans := e.tr.snapshot()
	e.setLayerSamples("sim.new_ms", scaled(spanSeconds(spans, e.root, "sim.new"), 1e3))
	e.setLayer("sim.warmup_s", sum(spanSeconds(spans, e.root, "sim.warmup")))
	e.setLayer("sim.measure_s", r.timed)
	e.setLayer("sim.step_us_per_cycle", r.timed*1e6/float64(c.cfg.Run.MeasureCycles))
	// Batches are normalized to the 10k cycles the metric names, so a
	// smaller traced pass reports on the same scale.
	norm := scaled(r.batches, 1e3*10_000/float64(r.batch))
	e.setLayerSamples("sim.step_batch_p50_ms", norm)
	e.setLayer("sim.step_batch_p90_ms", percentile(norm, 90))
	e.setLayer("sim.allocs_per_cycle", r.allocs)
	e.setLayerSamples("sim.checkpoint_ms", scaled(spanSeconds(spans, e.root, "sim.checkpoint"), 1e3))
	e.setLayer("sim.checkpoint_bytes", float64(r.ckBytes))
	e.setLayerSamples("sim.restore_ms", scaled(spanSeconds(spans, e.root, "sim.restore"), 1e3))

	res := r.res
	var ipc, lat, offchip float64
	for _, a := range r.sum.Apps {
		ipc += a.IPC
		lat += a.MeanLatency * float64(a.OffChip)
		offchip += float64(a.OffChip)
	}
	e.setLayer("sim.ipc_sum", ipc)
	e.setLayer("sim.offchip_latency_avg_cycles", lat/max(offchip, 1))
	e.setLayer("noc.flit_hops_per_cycle", float64(res.Net.FlitHops)/float64(res.Cycles))
	e.setLayer("noc.avg_latency_cycles", res.Net.AvgLatency())
	var hits, accesses, wait, reqs float64
	for _, d := range res.DRAM {
		hits += float64(d.RowHits)
		accesses += float64(d.RowHits + d.RowMisses + d.RowConflicts)
		wait += float64(d.QueueWait)
		reqs += float64(d.Reads + d.Writes)
	}
	e.setLayer("dram.row_hit_rate", hits/max(accesses, 1))
	e.setLayer("dram.queue_wait_cycles_per_req", wait/max(reqs, 1))

	// The analytic model against this run. The simulator has no hardware
	// reference, so this is the model's error against the simulator only.
	padded := make([]trace.Profile, c.cfg.Mesh.Nodes())
	copy(padded, c.apps)
	rep, err := analytic.CrossCheck(c.cfg, padded, r.sum, analytic.OracleBand)
	if e.must(err, "analytic cross-check") {
		e.setLayer("analytic.max_leg_rel_err", rep.MaxLegErr)
	}
}

func runBursty256(e *env) {
	c, err := bursty256Case(e)
	if !e.must(err, "bursty256 set-up") {
		return
	}
	r := c.run(e, "bursty256", false)
	if r == nil {
		return
	}
	if !e.traced() {
		c.checkDenseEqual(e, e.cycles(2_000), e.checkWindow())
		return
	}
	total := float64(r.s.Now())
	e.setLayer("sim.ticked_frac", float64(r.s.DebugTickedCycles())/total)
	ticks, ff := r.s.DebugDRAMTicks()
	e.setLayer("dram.ticks_per_cycle", float64(ticks-ff)/total)
	e.setLayer("dram.ff_frac", float64(ff)/max(float64(ticks), 1))

	// The dense reference against the event stepper on a 50k-cycle window
	// doubles as the byte-equality check.
	dense, event := c.checkDenseEqual(e, e.cycles(2_000), e.cycles(50_000))
	if event > 0 {
		e.setLayer("sim.dense_over_event", dense/event)
	}
}

func runPar256(e *env) {
	c, err := par256Case(e)
	if !e.must(err, "par256 set-up") {
		return
	}
	seq := c.cfg
	seq.Run.Shards = 0
	warm := e.cycles(2_000)
	if c.run(e, "par256", false) == nil {
		return
	}
	if !e.traced() {
		c.checkParEqual(e, seq, warm, e.checkWindow())
		return
	}
	e.setLayer("sim.workers", float64(c.cfg.Run.Shards))

	// Sequential against the worker count of the timed run on a 50k-cycle
	// reference; with one CPU the ratio is reported but flagged.
	ref := e.cycles(50_000)
	seqS, parS := c.checkParEqual(e, seq, warm, ref)
	valid := runtime.NumCPU() >= 2
	note := ""
	if !valid {
		note = "nproc < 2: the workers are time-sliced, the ratio shows barrier overhead only"
	}
	if parS > 0 {
		e.setLayer("sim.par_speedup", seqS/parS)
		e.setValid("sim.par_speedup", valid, note)
	}
	e.setLayer("sim.par_speedup_valid", b2f(valid))
	ns := c.cfg
	ns.Run.NoSteal = true
	_, noSteal, err := c.shortRun(ns, warm, ref, false)
	if e.must(err, "no-steal reference run") && parS > 0 {
		e.setLayer("sim.nosteal_over_steal", noSteal/parS)
		e.setValid("sim.nosteal_over_steal", valid, note)
	}
}

// checkParEqual requires the workload's worker count to reproduce the
// sequential stepper byte for byte on a short window, and returns both host
// times.
func (c simCase) checkParEqual(e *env, seq config.Config, warm, window int64) (seqS, parS float64) {
	sb, seqS, err := c.shortRun(seq, warm, window, false)
	if !e.must(err, "sequential check run") {
		return 0, 0
	}
	pb, parS, err := c.shortRun(c.cfg, warm, window, false)
	if !e.must(err, "parallel check run") {
		return 0, 0
	}
	e.check(bytes.Equal(sb, pb), "%d workers and the sequential stepper disagree on a %d-cycle window", c.cfg.Run.Shards, window)
	return seqS, parS
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
