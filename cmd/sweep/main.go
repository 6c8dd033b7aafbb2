// Command sweep runs parameter sensitivity sweeps beyond the paper's own
// (Figure 16/17) studies: any of the Scheme-1 threshold factor, Scheme-2
// history window, mesh size, memory controllers, router pipeline, VC count,
// and buffer depth, on a chosen workload.
//
// Every mode is one pipeline: plan lists the runs the table needs as
// simd.RunSpecs (per point the scheme run, the schemes-off base run and the
// alone runs of the workload's applications, deduplicated by store key), an
// executor turns specs into sim.Summary values (in this process on one
// exp.Runner, or through a coordinator daemon — see dist.go), rowsFrom
// computes the table rows from the summaries and printRows renders them. An
// estimated sweep is the same plan with RunSpec.Estimate set.
//
// Usage:
//
//	sweep -what threshold -workload 7
//	sweep -what history -workload 1
//	sweep -what vcs -workload 8
//	sweep -what vcs -workload 8 -estimate            # closed-form, no simulation
//	sweep -what buffers -workload 7 -prune-estimate 0.005
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"text/tabwriter"

	"nocmem/internal/analytic"
	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/par"
	"nocmem/internal/sim"
	"nocmem/internal/simd"
	"nocmem/internal/stats"
	"nocmem/internal/workload"
)

// point is one sweep point: a label for the table and the full configuration
// to evaluate (simulated or estimated).
type point struct {
	label  string
	cfg    config.Config
	pruned bool // -prune-estimate decided not to simulate it
}

// grid returns the points of the named sweep around base.
func grid(what string, base config.Config) ([]point, error) {
	var points []point
	add := func(label string, c config.Config) { points = append(points, point{label: label, cfg: c}) }
	s12 := base.WithSchemes(true, true)
	switch what {
	case "threshold":
		for _, f := range []float64{0.8, 0.9, 1.0, 1.1, 1.2, 1.4} {
			c := s12
			c.S1.ThresholdFactor = f
			add(fmt.Sprintf("%.1fx", f), c)
		}
	case "history":
		for _, T := range []int64{500, 1000, 2000, 4000, 8000} {
			c := s12
			c.S2.HistoryWindow = T
			add(fmt.Sprintf("T=%d", T), c)
		}
	case "mcs":
		for _, n := range []int{2, 4} {
			c := s12
			c.DRAM.Controllers = n
			add(fmt.Sprintf("%d MCs", n), c)
		}
	case "pipeline":
		for _, p := range []config.RouterPipeline{config.Pipeline5, config.Pipeline2} {
			c := s12
			c.NoC.Pipeline = p
			add(fmt.Sprintf("%d-stage", p), c)
		}
	case "vcs":
		for _, v := range []int{2, 4, 8} {
			c := s12
			c.NoC.VCsPerPort = v
			add(fmt.Sprintf("%d VCs", v), c)
		}
	case "buffers":
		for _, b := range []int{3, 5, 8, 16} {
			c := s12
			c.NoC.BufferDepth = b
			add(fmt.Sprintf("%d flits", b), c)
		}
	case "starvation":
		for _, s := range []int64{100, 500, 1000, 5000} {
			c := s12
			c.NoC.StarvationWindow = s
			add(fmt.Sprintf("window=%d", s), c)
		}
	case "antistarvation":
		batch := s12
		batch.NoC.StarvationMode = config.Batching
		add("age-window", s12)
		add("batching", batch)
	case "bypass":
		off := s12
		off.NoC.EnableBypass = false
		add("bypass on", s12)
		add("bypass off", off)
	case "routing":
		wf := s12
		wf.NoC.Routing = config.RoutingWestFirst
		add("x-y", s12)
		add("west-first", wf)
	case "policy":
		appNet := base
		appNet.AppAwareNet = true
		appMem := base
		appMem.DRAM.Sched = config.AppAwareMem
		fcfs := base
		fcfs.DRAM.Sched = config.FCFS
		add("scheme-1+2", s12)
		add("app-aware net", appNet)
		add("app-aware mem", appMem)
		add("fcfs memory", fcfs)
	default:
		return nil, fmt.Errorf("unknown sweep %q", what)
	}
	return points, nil
}

// rowKeys names the summaries one table row is computed from.
type rowKeys struct {
	scheme, base string
	alone        map[string]string // application name -> key of its alone run
}

// plan lists every run the table needs — per point the scheme run, the
// schemes-off base run on the same substrate (it differs when the sweep
// changes MCs, pipeline, VCs, buffers) and one alone run per distinct
// application — deduplicated by store key, and tells each row which keys it
// reads. Pruned points plan nothing; with estimate set every spec asks for
// the closed-form model.
func plan(points []point, w workload.Workload, estimate bool) ([]simd.RunSpec, []rowKeys, error) {
	profs, err := w.Profiles()
	if err != nil {
		return nil, nil, err
	}
	var specs []simd.RunSpec
	seen := map[string]bool{}
	add := func(sp simd.RunSpec) string {
		sp.Estimate = estimate
		rp, rerr := simd.ResolveSpec(sp)
		if rerr != nil && err == nil {
			err = rerr
		}
		if !seen[rp.Key] {
			seen[rp.Key] = true
			specs = append(specs, sp)
		}
		return rp.Key
	}
	keys := make([]rowKeys, len(points))
	for i, pt := range points {
		if pt.pruned {
			continue
		}
		baseCfg := pt.cfg.WithSchemes(false, false)
		keys[i] = rowKeys{
			scheme: add(simd.RunSpec{Config: pt.cfg, Workload: w.ID}),
			base:   add(simd.RunSpec{Config: baseCfg, Workload: w.ID}),
			alone:  map[string]string{},
		}
		for _, p := range profs {
			if _, ok := keys[i].alone[p.Name]; !ok {
				keys[i].alone[p.Name] = add(simd.RunSpec{Config: baseCfg, Apps: []string{p.Name}})
			}
		}
	}
	return specs, keys, err
}

// executor turns run specs into their summaries, keyed by store key.
type executor func([]simd.RunSpec) (map[string]sim.Summary, error)

// localExecutor executes specs in this process on one runner: its semaphore
// bounds the simulations, its fork cache shares warmups, and its Stats are
// the sweep's provenance.
func localExecutor(runner *exp.Runner) executor {
	return func(specs []simd.RunSpec) (map[string]sim.Summary, error) {
		keys := make([]string, len(specs))
		sums := make([]sim.Summary, len(specs))
		g := par.NewGroup(runner.Parallelism())
		for i, sp := range specs {
			g.Go(func() error {
				rp, err := simd.ResolveSpec(sp)
				if err != nil {
					return err
				}
				data, err := simd.ExecuteSpec(runner, rp)
				if err != nil {
					return err
				}
				keys[i] = rp.Key
				return json.Unmarshal(data, &sums[i])
			})
		}
		if err := g.Wait(); err != nil {
			return nil, err
		}
		byKey := make(map[string]sim.Summary, len(specs))
		for i, k := range keys {
			byKey[k] = sums[i]
		}
		return byKey, nil
	}
}

// row is one sweep-table line, with the scheme run's summary it came from.
type row struct {
	norm, netAvg, s1Pct, s2Pct float64
	scheme                     sim.Summary
}

// rowsFrom computes the table rows from the executed summaries: normalized
// weighted speedup is stats.WeightedSpeedup over the summary's active-tile
// order with the alone IPCs from the alone runs, and the tag percentages come
// from the raw scheme counters (from the model's fractions when the summary
// is an estimate). JSON round-trips float64 exactly, so the rows do not
// depend on which executor produced the summaries.
func rowsFrom(keys []rowKeys, byKey map[string]sim.Summary) ([]row, error) {
	rows := make([]row, len(keys))
	for i, k := range keys {
		if k.scheme == "" { // pruned
			continue
		}
		ws := func(s sim.Summary) (float64, error) {
			var shared, alone []float64
			for _, a := range s.Apps {
				ipc := 0.0 // a missing alone run is WeightedSpeedup's error
				if al := byKey[k.alone[a.App]]; len(al.Apps) > 0 {
					ipc = al.Apps[0].IPC
				}
				shared, alone = append(shared, a.IPC), append(alone, ipc)
			}
			return stats.WeightedSpeedup(shared, alone)
		}
		s := byKey[k.scheme]
		schemeWS, err := ws(s)
		if err != nil {
			return nil, err
		}
		baseWS, err := ws(byKey[k.base])
		if err != nil {
			return nil, err
		}
		rows[i] = row{
			norm:   schemeWS / baseWS,
			netAvg: s.NetAvgLatency,
			s1Pct:  100 * float64(s.S1Tagged) / float64(s.S1Checked+1),
			s2Pct:  100 * float64(s.S2Tagged) / float64(s.S2Checked+1),
			scheme: s,
		}
		if s.Estimated {
			rows[i].s1Pct, rows[i].s2Pct = 100*s.S1TaggedFrac, 100*s.S2TaggedFrac
		}
	}
	return rows, nil
}

// printRows renders the sweep table; pruned points print as dashes.
func printRows(out io.Writer, points []point, rows []row) error {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "point\tnormalized WS\tnet avg\ts1 tag%%\ts2 tag%%\n")
	for i, pt := range points {
		if r := rows[i]; pt.pruned {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\n", pt.label)
		} else {
			fmt.Fprintf(tw, "%s\t%.4f\t%.1f\t%.1f\t%.1f\n", pt.label, r.norm, r.netAvg, r.s1Pct, r.s2Pct)
		}
	}
	return tw.Flush()
}

// tableRows is the pipeline up to the rows: plan, execute, rowsFrom.
func tableRows(points []point, w workload.Workload, estimate bool, run executor) ([]row, error) {
	specs, keys, err := plan(points, w, estimate)
	if err != nil {
		return nil, err
	}
	byKey, err := run(specs)
	if err != nil {
		return nil, err
	}
	return rowsFrom(keys, byKey)
}

// sweep runs the table's passes through run and prints it. With prune > 0 an
// estimate pass comes first: a point whose estimated normalized WS sits
// within prune of the first point's is not simulated — the model says the
// knob does not move the headline number there. Point 0 always runs (it
// anchors the deltas), every pruned point is logged so nothing disappears
// silently, and every point that did simulate is checked against the model
// (the divergence oracle), so a broken run or a drifting model announces
// itself instead of silently steering the sweep.
func sweep(out io.Writer, points []point, w workload.Workload, estimate bool, prune float64, run executor) error {
	points = append([]point(nil), points...) // pruning marks the copy
	if prune > 0 {
		est, err := tableRows(points, w, true, run)
		if err != nil {
			return err
		}
		for i := 1; i < len(points); i++ {
			if delta := est[i].norm - est[0].norm; math.Abs(delta) < prune {
				points[i].pruned = true
				log.Printf("pruned %s: estimated normalized WS %.4f, delta %+.4f vs %s below threshold %g",
					points[i].label, est[i].norm, delta, points[0].label, prune)
			}
		}
	}
	rows, err := tableRows(points, w, estimate, run)
	if err != nil {
		return err
	}
	if prune > 0 {
		if err := crossCheck(points, rows, w); err != nil {
			return err
		}
	}
	return printRows(out, points, rows)
}

// crossCheck compares every simulated row with the model's prediction for its
// point and logs divergence beyond the oracle band.
func crossCheck(points []point, rows []row, w workload.Workload) error {
	profs, err := w.Profiles()
	if err != nil {
		return err
	}
	for i, pt := range points {
		if pt.pruned {
			continue
		}
		rep, err := analytic.CrossCheck(pt.cfg, profs, rows[i].scheme, analytic.OracleBand)
		if err != nil {
			return err
		}
		if !rep.InBand() {
			log.Printf("divergence at %s: max leg error %.0f%% (band %.0f%%)",
				pt.label, 100*rep.MaxLegErr, 100*rep.Band)
			for _, f := range rep.Flags {
				log.Printf("divergence at %s: %s %s %s: %s", pt.label, f.Kind, f.Tile, f.App, f.Detail)
			}
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		what    = flag.String("what", "threshold", "sweep: threshold | history | mcs | pipeline | vcs | buffers | starvation | antistarvation | bypass | routing | policy")
		wid     = flag.Int("workload", 7, "Table 2 workload id (1-18)")
		warmup  = flag.Int64("warmup", 100_000, "warmup cycles")
		measure = flag.Int64("measure", 300_000, "measurement cycles")
		jobs    = flag.Int("j", 0, "max concurrent simulations (0 = all CPUs, 1 = sequential)")
		shards  = flag.Int("shards", 1, "worker goroutines per simulation (results are identical at any count)")
		steal   = flag.String("steal", "on", "intra-cycle work stealing in sharded runs: on|off (bisection escape hatch)")
		fork    = flag.Bool("fork", false, "share one baseline warmup checkpoint across compatible sweep points (faster; scheme points then warm up under the baseline policy)")
		est     = flag.Bool("estimate", false, "answer the whole sweep from the closed-form analytic model instead of simulating")
		prune   = flag.Float64("prune-estimate", 0, "skip sweep points whose estimated |normalized WS delta| vs the first point is below this threshold (0 = run everything)")
		verbose = flag.Bool("v", false, "print cache/warmup provenance counters after the sweep (simulated vs cached runs, shared warmups, forks)")
		coord   = flag.String("coordinator", "", "run the sweep distributed: submit all points to the coordinator daemon at this base URL (start one with nocsimd -coordinator; join workers with nocsimd -join)")
		workers = flag.Int("workers", 0, "with -coordinator: also contribute this many in-process workers; without it: boot a local coordinator plus this many in-process workers (distributed execution without external daemons)")
	)
	flag.Parse()
	if *steal != "on" && *steal != "off" {
		log.Fatalf("bad -steal value %q (want on or off)", *steal)
	}
	if *est && *prune != 0 {
		log.Fatal("-estimate and -prune-estimate are mutually exclusive: -estimate never simulates, so there is nothing to prune")
	}
	if *prune < 0 {
		log.Fatalf("bad -prune-estimate threshold %g (want >= 0)", *prune)
	}
	distributed := *coord != "" || *workers > 0
	if distributed && (*est || *prune != 0) {
		log.Fatal("-coordinator/-workers are mutually exclusive with -estimate and -prune-estimate: estimates answer locally in a fraction of a millisecond, there is nothing to distribute")
	}
	if *workers < 0 {
		log.Fatalf("bad -workers count %d (want >= 0)", *workers)
	}

	w, err := workload.Get(*wid)
	if err != nil {
		log.Fatal(err)
	}
	base := config.Baseline32()
	base.Run.WarmupCycles = *warmup
	base.Run.MeasureCycles = *measure
	base.Run.Shards = *shards
	base.Run.NoSteal = *steal == "off"
	base.S1.UpdatePeriod = *measure / 15
	points, err := grid(*what, base)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sweep %s on %s (%s)\n", *what, w.Name(), w.Category)
	if *est {
		fmt.Println("estimated (closed-form model, no simulated cycles)")
	}
	if distributed {
		err = distributedSweep(os.Stdout, distOptions{
			coordinator: *coord,
			workers:     *workers,
			jobs:        *jobs,
			fork:        *fork,
			verbose:     *verbose,
		}, points, w)
	} else {
		runner := exp.NewRunner(exp.Options{Parallelism: *jobs, ShareWarmup: *fork})
		err = sweep(os.Stdout, points, w, *est, *prune, localExecutor(runner))
		if st := runner.Stats(); err == nil && *verbose {
			log.Printf("provenance: %d run requests — %d simulated, %d served by the run cache", st.Runs, st.Executed, st.CacheHits)
			log.Printf("provenance: %d warmup windows executed, %d runs forked from shared warm checkpoints", st.Warmups, st.Forked)
			if st.SnapshotMemHits+st.SnapshotDiskHits+st.SnapshotEvictions > 0 {
				log.Printf("provenance: snapshots: %d memory hits, %d disk hits, %d evictions",
					st.SnapshotMemHits, st.SnapshotDiskHits, st.SnapshotEvictions)
			}
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}
