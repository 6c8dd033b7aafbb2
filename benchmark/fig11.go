package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/sim"
	"nocmem/internal/stats"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// fig11IDs are the Table-2 workloads of the sweep: one mixed, one
// memory-intensive, one memory-non-intensive.
var fig11IDs = []int{1, 7, 13}

// fig11Points is what Speedups must execute for them: 3 systems x 3
// workloads shared, plus one alone run per distinct application (27).
const fig11Points = 36

// The sweep's nominal windows and how often the timed region repeats it. The
// issue's single 30k + 90k sweep is cut into five of a fifth the size: one
// call is opaque, so only whole sweeps can be the chunks of a median pace.
const (
	fig11Warmup  = 6_000
	fig11Measure = 18_000
	fig11Push    = 1_000
	fig11Repeats = 5
)

func fig11Options(e *env, warm, measure int64, width int) exp.Options {
	return exp.Options{
		WarmupCycles:        warm,
		MeasureCycles:       measure,
		Seed:                e.seed,
		ThresholdPushPeriod: e.cycles(fig11Push),
		Parallelism:         width,
		ShareWarmup:         false,
	}
}

func fig11Workloads() ([]workload.Workload, error) {
	var ws []workload.Workload
	for _, id := range fig11IDs {
		w, err := workload.Get(id)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// pilot is the set-up of a workload that has no simulator to build ahead of
// its timed region: one short saturated simulation, so heap growth, page
// faults and lazy initialisation are paid before timing starts, not in it.
func pilot(e *env) error {
	c, err := sat32Case(e)
	if err != nil {
		return err
	}
	s, err := c.build(c.cfg)
	if err != nil {
		return err
	}
	s.Step(e.cycles(10_000))
	return nil
}

func runFig11(e *env) {
	ws, err := fig11Workloads()
	if !e.must(err, "fig11 workloads") {
		return
	}
	base := config.Baseline32()
	opts := fig11Options(e, e.cycles(fig11Warmup), e.cycles(fig11Measure), e.procs)

	setups := repeatSetup(func() bool {
		return e.must(pilot(e), "fig11 pilot simulation")
	}, func() {})
	if setups == nil {
		return
	}

	// The opaque call, on a fresh runner each time: tracing off its repeats
	// are the timed region; traced, one is the reference the hand-driven pass
	// below is checked and charged against.
	repeats := fig11Repeats
	if e.traced() {
		repeats = 1
	}
	var runner *exp.Runner
	var rows []exp.SpeedupRow
	var sweeps []chunk
	var wall, elapsed float64
	e.beginTimed()
	for i := 0; i < repeats; i++ {
		runner = exp.NewRunner(opts)
		start := time.Now()
		got, err := runner.Speedups(base, ws)
		wall = time.Since(start).Seconds()
		if !e.must(err, "Speedups") {
			return
		}
		if i > 0 {
			e.check(reflect.DeepEqual(got, rows), "sweep %d returned other rows than the first", i+1)
		}
		rows = got
		sweeps = append(sweeps, chunk{fig11Points, wall})
		elapsed += wall
	}
	pace := medianPace(sweeps)
	e.endToEnd(setups, fig11Points*pace, 1/pace, elapsed)
	st := runner.Stats()
	e.check(st.Executed == fig11Points, "Speedups executed %d simulations, want %d", st.Executed, fig11Points)
	for _, row := range rows {
		ok := !math.IsNaN(row.Base) && !math.IsInf(row.Base, 0) && row.Base > 0 &&
			!math.IsNaN(row.NormS1) && !math.IsNaN(row.NormS1S2)
		e.check(ok, "%s: non-finite row %+v", row.Workload.Name(), row)
		e.check(row.NormS1S2 > 0.8 && row.NormS1S2 < 1.3, "%s: normalized S1+S2 speedup %v outside (0.8, 1.3)", row.Workload.Name(), row.NormS1S2)
		e.hashSummary([]byte(fmt.Sprintf("%s %v %v %v\n", row.Workload.Name(), row.Base, row.NormS1, row.NormS1S2)))
	}
	if !e.traced() {
		return
	}

	e.setLayer("exp.runs", float64(st.Runs))
	e.setLayer("exp.executed", float64(st.Executed))
	e.setLayer("exp.cache_hits", float64(st.CacheHits))
	for i, name := range []string{"exp.norm_ws_s1s2_w1", "exp.norm_ws_s1s2_w7", "exp.norm_ws_s1s2_w13"} {
		if i < len(rows) {
			e.setLayer(name, rows[i].NormS1S2)
		}
	}

	// Recall of finished keys: the same sweep again is served from the
	// runner's cache.
	start := time.Now()
	_, err = runner.Speedups(base, ws)
	recall := time.Since(start).Seconds()
	if e.must(err, "Speedups recall") {
		again := runner.Stats()
		e.check(again.Executed == st.Executed, "recalling the sweep executed %d more simulations", again.Executed-st.Executed)
		e.setLayer("exp.hit_us", recall*1e6/float64(max(again.Runs-st.Runs, 1)))
	}

	busy := fig11ByHand(e, base, opts, ws, rows)
	if busy > 0 {
		e.setLayer("exp.overhead_frac", (wall-busy/float64(e.procs))/wall)
	}

	// Pool scaling on a copy of the sweep, fresh runners both.
	short := func(width int) float64 {
		r := exp.NewRunner(fig11Options(e, opts.WarmupCycles, opts.MeasureCycles, width))
		start := time.Now()
		_, err := r.Speedups(base, ws)
		e.must(err, fmt.Sprintf("%d-wide short sweep", width))
		return time.Since(start).Seconds()
	}
	one, wide := short(1), short(2)
	valid := runtime.NumCPU() >= 2
	e.setLayer("exp.pool_speedup", one/wide)
	note := ""
	if !valid {
		note = "nproc < 2: the pool's two workers share one CPU"
	}
	e.setValid("exp.pool_speedup", valid, note)
	e.setLayer("exp.pool_speedup_valid", b2f(valid))
}

// fig11ByHand is the traced timed region: the 36 simulations of the sweep
// driven through sim's public functions on procs lanes — sim.new ->
// sim.warmup -> sim.run -> sim.summarize per point — assembled into the same
// rows, which must equal what Speedups returned. It returns the summed span
// time of the points, the work the runner's wall is charged against.
func fig11ByHand(e *env, base config.Config, opts exp.Options, ws []workload.Workload, want []exp.SpeedupRow) float64 {
	// What Options.apply does to a configuration, restated: the runner
	// offers no way to ask for it.
	apply := func(cfg config.Config) config.Config {
		cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = opts.WarmupCycles, opts.MeasureCycles
		cfg.Run.Seed = opts.Seed
		cfg.S1.UpdatePeriod = opts.ThresholdPushPeriod
		return cfg
	}
	type point struct {
		cfg  config.Config
		apps []trace.Profile
		ipc  []float64
		ran  float64
	}
	var points []*point
	systems := [][2]bool{{false, false}, {true, false}, {true, true}}
	shared := make(map[[2]int]*point) // (workload index, system) -> point
	alone := make(map[string]*point)
	nodes := base.Mesh.Nodes()
	for wi, w := range ws {
		apps, err := w.Profiles()
		if !e.must(err, w.Name()) {
			return 0
		}
		for si, s := range systems {
			p := &point{cfg: apply(base.WithSchemes(s[0], s[1])), apps: apps}
			shared[[2]int{wi, si}] = p
			points = append(points, p)
		}
		for _, a := range apps {
			if alone[a.Name] == nil {
				padded := make([]trace.Profile, nodes)
				padded[0] = a
				p := &point{cfg: apply(base.WithSchemes(false, false)), apps: padded}
				alone[a.Name] = p
				points = append(points, p)
			}
		}
	}
	e.check(len(points) == fig11Points, "hand-driven sweep has %d points, want %d", len(points), fig11Points)

	tr := e.tr
	e.beginRoot()
	defer e.endRoot()
	lanes(e, "bench.timed", e.root, len(points), func(_, ls, i int) {
		p, id := points[i], i+1
		start := time.Now()
		h := tr.begin("sim.new", ls, id)
		s, err := sim.New(p.cfg, p.apps)
		tr.end(h)
		if !e.must(err, "hand-driven sim.New") {
			return
		}
		h = tr.begin("sim.warmup", ls, id)
		s.Step(p.cfg.Run.WarmupCycles)
		tr.end(h)
		h = tr.begin("sim.run", ls, id)
		res := s.Run()
		tr.end(h)
		h = tr.begin("sim.summarize", ls, id)
		summaryBytes(res)
		tr.end(h)
		p.ipc, p.ran = res.IPC, time.Since(start).Seconds()
	})

	var busy float64
	for _, p := range points {
		busy += p.ran
	}
	weighted := func(p *point) float64 {
		var sh, al []float64
		for tile, a := range p.apps {
			if a.Name == "" || p.ipc == nil || alone[a.Name].ipc == nil {
				continue
			}
			sh = append(sh, p.ipc[tile])
			al = append(al, alone[a.Name].ipc[0])
		}
		v, err := stats.WeightedSpeedup(sh, al)
		e.must(err, "hand-driven weighted speedup")
		return v
	}
	for wi := range ws {
		if wi >= len(want) {
			break
		}
		b := weighted(shared[[2]int{wi, 0}])
		s1 := weighted(shared[[2]int{wi, 1}]) / b
		s12 := weighted(shared[[2]int{wi, 2}]) / b
		e.check(b == want[wi].Base && s1 == want[wi].NormS1 && s12 == want[wi].NormS1S2,
			"%s: hand-driven row (%v %v %v) differs from Speedups (%v %v %v)",
			ws[wi].Name(), b, s1, s12, want[wi].Base, want[wi].NormS1, want[wi].NormS1S2)
	}
	return busy
}
