// Command sweep runs parameter sensitivity sweeps beyond the paper's own
// (Figure 16/17) studies: any of the Scheme-1 threshold factor, Scheme-2
// history window, mesh size, memory controllers, router pipeline, VC count,
// and buffer depth, on a chosen workload.
//
// Every mode is one pipeline: grid names the sweep's points and the machine
// each is a variant of, exp.NewPlan lists every run the table reads once, an
// executor turns the runs, as simd.RunSpecs, into sim.Summary values (in this
// process on one exp.Runner, or through a coordinator daemon — see dist.go),
// Plan.Rows computes the normalized weighted speedups from the summaries and
// printRows renders them. An estimated sweep is the same plan with
// RunSpec.Estimate set.
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
	"nocmem/internal/workload"
)

// point is one sweep point: a label for the table, the configuration to
// evaluate (simulated or estimated) and the machine it is a variant of, whose
// schemes-off run is its base and whose alone IPCs are its denominators.
type point struct {
	label   string
	machine config.Config
	cfg     config.Config
	pruned  bool // -prune-estimate decided not to simulate it
}

// grid returns the points of the named sweep around base: variants of the one
// machine base when the sweep turns a policy knob (threshold, history,
// policy), each its own machine otherwise.
func grid(what string, base config.Config) ([]point, error) {
	var points []point
	add := func(label string, machine, c config.Config) {
		points = append(points, point{label: label, machine: machine, cfg: c})
	}
	s12 := base.WithSchemes(true, true)
	switch what {
	case "threshold":
		for _, f := range []float64{0.8, 0.9, 1.0, 1.1, 1.2, 1.4} {
			c := s12
			c.S1.ThresholdFactor = f
			add(fmt.Sprintf("%.1fx", f), base, c)
		}
	case "history":
		for _, T := range []int64{500, 1000, 2000, 4000, 8000} {
			c := s12
			c.S2.HistoryWindow = T
			add(fmt.Sprintf("T=%d", T), base, c)
		}
	case "mcs":
		for _, n := range []int{2, 4} {
			c := s12
			c.DRAM.Controllers = n
			add(fmt.Sprintf("%d MCs", n), c, c)
		}
	case "pipeline":
		for _, p := range []config.RouterPipeline{config.Pipeline5, config.Pipeline2} {
			c := s12
			c.NoC.Pipeline = p
			add(fmt.Sprintf("%d-stage", p), c, c)
		}
	case "vcs":
		for _, v := range []int{2, 4, 8} {
			c := s12
			c.NoC.VCsPerPort = v
			add(fmt.Sprintf("%d VCs", v), c, c)
		}
	case "buffers":
		for _, b := range []int{3, 5, 8, 16} {
			c := s12
			c.NoC.BufferDepth = b
			add(fmt.Sprintf("%d flits", b), c, c)
		}
	case "starvation":
		for _, s := range []int64{100, 500, 1000, 5000} {
			c := s12
			c.NoC.StarvationWindow = s
			add(fmt.Sprintf("window=%d", s), c, c)
		}
	case "antistarvation":
		batch := s12
		batch.NoC.StarvationMode = config.Batching
		add("age-window", s12, s12)
		add("batching", batch, batch)
	case "bypass":
		off := s12
		off.NoC.EnableBypass = false
		add("bypass on", s12, s12)
		add("bypass off", off, off)
	case "routing":
		wf := s12
		wf.NoC.Routing = config.RoutingWestFirst
		add("x-y", s12, s12)
		add("west-first", wf, wf)
	case "policy":
		appNet := base
		appNet.AppAwareNet = true
		appMem := base
		appMem.DRAM.Sched = config.AppAwareMem
		fcfs := base
		fcfs.DRAM.Sched = config.FCFS
		add("scheme-1+2", base, s12)
		add("app-aware net", base, appNet)
		add("app-aware mem", base, appMem)
		add("fcfs memory", base, fcfs)
	default:
		return nil, fmt.Errorf("unknown sweep %q", what)
	}
	return points, nil
}

// executor turns run specs into their summaries, in spec order.
type executor func([]simd.RunSpec) ([]sim.Summary, error)

// localExecutor executes specs in this process on one runner: its semaphore
// bounds the simulations, its fork cache shares warmups, and its Stats are
// the sweep's provenance.
func localExecutor(runner *exp.Runner) executor {
	return func(specs []simd.RunSpec) ([]sim.Summary, error) {
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
				return json.Unmarshal(data, &sums[i])
			})
		}
		return sums, g.Wait()
	}
}

// row is one sweep-table line: normalized weighted speedup and run summary.
type row struct {
	norm   float64
	scheme sim.Summary
}

// tableRows is the pipeline up to the rows: plan the unpruned points on w
// (points of one machine share its base and alone runs), execute the plan's
// runs through run, compute the rows from the summaries. JSON round-trips
// float64 exactly, so they do not depend on which executor produced those.
func tableRows(points []point, w workload.Workload, estimate bool, run executor) ([]row, error) {
	var subs []exp.Substrate
	var kept []int
	for i, pt := range points {
		if !pt.pruned {
			subs = append(subs, exp.Substrate{Cfg: pt.machine, Variants: []config.Config{pt.cfg}})
			kept = append(kept, i)
		}
	}
	p, err := exp.NewPlan(subs, []workload.Workload{w})
	if err != nil {
		return nil, err
	}
	specs := make([]simd.RunSpec, len(p.Runs))
	for i, r := range p.Runs {
		specs[i] = simd.RunSpec{Config: r.Cfg, Workload: r.Workload, Estimate: estimate}
		if r.Workload == 0 {
			specs[i].Apps = []string{r.Apps[0].Name}
		}
	}
	sums, err := run(specs)
	if err != nil {
		return nil, err
	}
	table, err := p.Rows(sums)
	if err != nil {
		return nil, err
	}
	rows := make([]row, len(points))
	for j, i := range kept {
		rows[i] = row{norm: table[0].Norm[j], scheme: sums[table[0].Variant[j]]}
	}
	return rows, nil
}

// printRows renders the sweep table; pruned points print as dashes. The tag
// percentages come from the raw scheme counters (from the model's fractions
// when the summary is an estimate).
func printRows(out io.Writer, points []point, rows []row) error {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "point\tnormalized WS\tnet avg\ts1 tag%%\ts2 tag%%\n")
	for i, pt := range points {
		if pt.pruned {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\n", pt.label)
			continue
		}
		s := rows[i].scheme
		s1Pct := 100 * float64(s.S1Tagged) / float64(s.S1Checked+1)
		s2Pct := 100 * float64(s.S2Tagged) / float64(s.S2Checked+1)
		if s.Estimated {
			s1Pct, s2Pct = 100*s.S1TaggedFrac, 100*s.S2TaggedFrac
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.1f\t%.1f\t%.1f\n", pt.label, rows[i].norm, s.NetAvgLatency, s1Pct, s2Pct)
	}
	return tw.Flush()
}

// sweep runs the table's passes through run and prints it. With prune > 0 an
// estimate pass comes first: a point whose estimated normalized WS sits
// within prune of the first point's is not simulated — the model says the
// knob does not move the headline number there. Point 0 always runs (it
// anchors the deltas), every pruned point is logged so nothing disappears
// silently, and every point that did simulate is checked against the model
// (the divergence oracle), so a broken run or a drifting model announces
// itself instead of silently steering the sweep.
func sweep(out io.Writer, logger *log.Logger, points []point, w workload.Workload, estimate bool, prune float64, run executor) error {
	points = append([]point(nil), points...) // pruning marks the copy
	if prune > 0 {
		est, err := tableRows(points, w, true, run)
		if err != nil {
			return err
		}
		for i := 1; i < len(points); i++ {
			if delta := est[i].norm - est[0].norm; math.Abs(delta) < prune {
				points[i].pruned = true
				logger.Printf("pruned %s: estimated normalized WS %.4f, delta %+.4f vs %s below threshold %g",
					points[i].label, est[i].norm, delta, points[0].label, prune)
			}
		}
	}
	rows, err := tableRows(points, w, estimate, run)
	if err != nil {
		return err
	}
	if prune > 0 {
		if err := crossCheck(logger, points, rows, w); err != nil {
			return err
		}
	}
	return printRows(out, points, rows)
}

// crossCheck compares every simulated row with the model's prediction for its
// point and logs divergence beyond the oracle band.
func crossCheck(logger *log.Logger, points []point, rows []row, w workload.Workload) error {
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
			logger.Printf("divergence at %s: max leg error %.0f%% (band %.0f%%)",
				pt.label, 100*rep.MaxLegErr, 100*rep.Band)
			for _, f := range rep.Flags {
				logger.Printf("divergence at %s: %s %s %s: %s", pt.label, f.Kind, f.Tile, f.App, f.Detail)
			}
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run is the command: the table on stdout, diagnostics and -v provenance on
// stderr, nothing printed before the flags and the sweep are known valid.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		what    = fs.String("what", "threshold", "sweep: threshold | history | mcs | pipeline | vcs | buffers | starvation | antistarvation | bypass | routing | policy")
		wid     = fs.Int("workload", 7, "Table 2 workload id (1-18)")
		warmup  = fs.Int64("warmup", 100_000, "warmup cycles")
		measure = fs.Int64("measure", 300_000, "measurement cycles")
		jobs    = fs.Int("j", 0, "max concurrent simulations (0 = all CPUs, 1 = sequential)")
		shards  = fs.Int("shards", 1, "worker goroutines per simulation (results are identical at any count)")
		fork    = fs.Bool("fork", false, "share one baseline warmup checkpoint across compatible sweep points (faster; scheme points then warm up under the baseline policy)")
		est     = fs.Bool("estimate", false, "answer the whole sweep from the closed-form analytic model instead of simulating")
		prune   = fs.Float64("prune-estimate", 0, "skip sweep points whose estimated |normalized WS delta| vs the first point is below this threshold (0 = run everything)")
		verbose = fs.Bool("v", false, "print cache/warmup provenance counters after the sweep (simulated vs cached runs, shared warmups, forks)")
		coord   = fs.String("coordinator", "", "run the sweep distributed: submit all points to the coordinator daemon at this base URL (start one with nocsimd -coordinator; join workers with nocsimd -join)")
		workers = fs.Int("workers", 0, "with -coordinator: also contribute this many in-process workers; without it: boot a local coordinator plus this many in-process workers (distributed execution without external daemons)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *est && *prune != 0 {
		return fmt.Errorf("-estimate and -prune-estimate are mutually exclusive: -estimate never simulates, so there is nothing to prune")
	}
	if *prune < 0 {
		return fmt.Errorf("bad -prune-estimate threshold %g (want >= 0)", *prune)
	}
	if *workers < 0 {
		return fmt.Errorf("bad -workers count %d (want >= 0)", *workers)
	}
	distributed := *coord != "" || *workers > 0
	if distributed && (*est || *prune != 0) {
		return fmt.Errorf("-coordinator/-workers are mutually exclusive with -estimate and -prune-estimate: estimates answer locally in a fraction of a millisecond, there is nothing to distribute")
	}

	w, err := workload.Get(*wid)
	if err != nil {
		return err
	}
	base := config.Baseline32()
	base.Run.WarmupCycles = *warmup
	base.Run.MeasureCycles = *measure
	base.Run.Shards = *shards
	base.S1.UpdatePeriod = *measure / 15
	points, err := grid(*what, base)
	if err != nil {
		return err
	}
	logger := log.New(stderr, "sweep: ", 0)

	fmt.Fprintf(stdout, "sweep %s on %s (%s)\n", *what, w.Name(), w.Category)
	if *est {
		fmt.Fprintln(stdout, "estimated (closed-form model, no simulated cycles)")
	}
	if distributed {
		return distributedSweep(stdout, logger, distOptions{
			coordinator: *coord,
			workers:     *workers,
			jobs:        *jobs,
			fork:        *fork,
			verbose:     *verbose,
		}, points, w)
	}
	runner := exp.NewRunner(exp.Options{Parallelism: *jobs, ShareWarmup: *fork})
	if err := sweep(stdout, logger, points, w, *est, *prune, localExecutor(runner)); err != nil {
		return err
	}
	if st := runner.Stats(); *verbose {
		logger.Printf("provenance: %d run requests — %d simulated, %d served by the run cache", st.Runs, st.Executed, st.CacheHits)
		logger.Printf("provenance: %d warmup windows executed, %d runs forked from shared warm checkpoints", st.Warmups, st.Forked)
		if st.SnapshotMemHits+st.SnapshotDiskHits+st.SnapshotEvictions > 0 {
			logger.Printf("provenance: snapshots: %d memory hits, %d disk hits, %d evictions",
				st.SnapshotMemHits, st.SnapshotDiskHits, st.SnapshotEvictions)
		}
		if st.PrefixBuilds+st.PrefixForks > 0 {
			logger.Printf("provenance: threshold prefixes: %d built, %d runs forked from them",
				st.PrefixBuilds, st.PrefixForks)
		}
	}
	return nil
}
