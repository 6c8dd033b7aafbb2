// Command nocsim runs one multiprogrammed workload on the simulated 32-core
// NoC multicore and reports the paper's headline metrics under the baseline,
// Scheme-1, and Scheme-1+2.
//
// Simulated or estimated, the three systems reach the headline table and the
// -json writer as three summaries and three weighted speedups; only the
// lines that quote what a summary does not hold (the tagged return path, the
// per-tile table's columns, the stepper's provenance) ask which it was.
//
// Usage:
//
//	nocsim -workload 7                  # Table 2 workload id (1-18)
//	nocsim -workload 7 -cores 16        # 16-core 4x4 system
//	nocsim -workload 1 -measure 1000000 # longer window
//	nocsim -workload 7 -estimate        # closed-form estimate, no simulation
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"nocmem"
	"nocmem/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
}

// system is one line of the headline table: a digest of the run (simulated
// or estimated) and its weighted speedup.
type system struct {
	name string
	sum  nocmem.Summary
	ws   float64
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wid      = fs.Int("workload", 1, "Table 2 workload id (1-18)")
		cores    = fs.Int("cores", 32, "core count: 32 (4x8) or 16 (4x4)")
		warmup   = fs.Int64("warmup", 100_000, "warmup cycles")
		measure  = fs.Int64("measure", 300_000, "measurement cycles")
		seed     = fs.Int64("seed", 1, "workload seed")
		verbose  = fs.Bool("v", false, "per-application details (stdout) and what the stepper elided (stderr)")
		jsonOut  = fs.String("json", "", "write the scheme-1+2 run's summary as JSON to this file ('-' = stdout)")
		jobs     = fs.Int("j", 0, "max concurrent simulations (0 = all CPUs, 1 = sequential)")
		shards   = fs.Int("shards", 1, "worker goroutines per simulation (results are identical at any count)")
		fork     = fs.Bool("fork", false, "share one baseline warmup checkpoint across the base/S1/S1+S2 runs (faster; scheme runs then warm up under the baseline policy)")
		estimate = fs.Bool("estimate", false, "answer from the closed-form analytic model instead of simulating (a fraction of a millisecond, approximate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var cfg nocmem.Config
	switch *cores {
	case 32:
		cfg = nocmem.Baseline32()
	case 16:
		cfg = nocmem.Baseline16()
	default:
		return fmt.Errorf("unsupported core count %d (want 32 or 16)", *cores)
	}
	cfg.Run.WarmupCycles = *warmup
	cfg.Run.MeasureCycles = *measure
	cfg.Run.Seed = *seed
	cfg.Run.Shards = *shards
	cfg.S1.UpdatePeriod = *measure / 15

	w, err := nocmem.GetWorkload(*wid)
	if err != nil {
		return err
	}
	if *cores == 16 {
		if w, err = w.Halve(); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "%s (%s) on %d cores, %d + %d cycles\n", w.Name(), w.Category, *cores, *warmup, *measure)

	var systems [3]system
	var row nocmem.SpeedupRow // the simulated runs; zero when estimating
	if *estimate {
		fmt.Fprintln(stdout, "estimated (closed-form model, no simulated cycles)")
		if systems, err = estimated(cfg, w); err != nil {
			return err
		}
	} else {
		runner := exp.NewRunner(exp.Options{Parallelism: *jobs, ShareWarmup: *fork})
		if row, err = runner.SpeedupFor(cfg, w); err != nil {
			return err
		}
		systems = [3]system{
			{"base", row.Base.Summary(), row.BaseWS},
			{"scheme-1", row.S1.Summary(), row.S1WS},
			{"scheme-1+2", row.S1S2.Summary(), row.S1S2WS},
		}
	}
	base, s1, s12 := systems[0].sum, systems[1].sum, systems[2].sum

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\tweighted speedup\tnormalized\tavg off-chip latency\tnet avg latency\n")
	for _, s := range systems {
		var lat float64
		var n int
		for _, a := range s.sum.Apps {
			if a.MeanLatency > 0 { // the application completed an off-chip access
				lat += a.MeanLatency
				n++
			}
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.4f\t%.0f\t%.1f\n", s.name, s.ws, s.ws/systems[0].ws, lat/float64(n), s.sum.NetAvgLatency)
	}
	tw.Flush()

	if *estimate {
		fmt.Fprintf(stdout, "\nscheme-1 estimated to tag %.1f%% of responses; scheme-2 %.1f%% of requests\n",
			100*s1.S1TaggedFrac, 100*s12.S2TaggedFrac)
	} else {
		fmt.Fprintf(stdout, "\nscheme-1 tagged %d of %d responses (%.1f%%); tagged return path %.0f vs normal %.0f cycles\n",
			s1.S1Tagged, s1.S1Checked, 100*float64(s1.S1Tagged)/float64(s1.S1Checked+1),
			row.S1.Collector.RetHigh.Mean(), row.S1.Collector.RetNormal.Mean())
		fmt.Fprintf(stdout, "scheme-2 tagged %d of %d requests (%.1f%%)\n",
			s12.S2Tagged, s12.S2Checked, 100*float64(s12.S2Tagged)/float64(s12.S2Checked+1))
	}

	if *jsonOut != "" {
		b, err := json.MarshalIndent(s12, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if *jsonOut == "-" {
			_, err = stdout.Write(b)
		} else {
			err = os.WriteFile(*jsonOut, b, 0o644)
		}
		if err != nil {
			return err
		}
	}

	if *verbose {
		fmt.Fprintln(stdout)
		tw = tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		if *estimate {
			fmt.Fprintf(tw, "tile\tapp\tIPC(base)\tIPC(s1+2)\tMLP\tavg lat\n")
			for i, a := range base.Apps {
				fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.1f\t%.0f\n",
					a.Tile, a.App, a.IPC, s12.Apps[i].IPC, a.MLP, a.MeanLatency)
			}
		} else {
			fmt.Fprintf(tw, "tile\tapp\tIPC(base)\tIPC(s1+2)\tMPKI\tavg lat\tp99 lat\n")
			for i, tile := range row.Base.ActiveTiles() {
				a := base.Apps[i]
				fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.3f\t%.1f\t%.0f\t%d\n",
					tile, a.App, a.IPC, s12.Apps[i].IPC, a.MPKI, a.MeanLatency, a.P99Latency)
			}
		}
		tw.Flush()
		// Stepper provenance goes to stderr: it describes the host run, not
		// the simulated machine, and stdout stays identical across -j,
		// -shards and -fork.
		if !*estimate {
			for i, res := range []*nocmem.Result{row.Base, row.S1, row.S1S2} {
				b := res.Blocked
				fmt.Fprintf(stderr, "%s: stepper elided %d core-stall cycles, %d L2 retry polls, %d credit-only router ticks\n",
					systems[i].name, b.CoreStallCycles, b.L2RetryPolls, b.CreditWakes)
			}
		}
	}
	return nil
}

// estimated answers the three systems from the closed-form analytic model: no
// cycles are simulated, so it takes a fraction of a millisecond at the
// model's calibrated accuracy (see internal/analytic).
func estimated(cfg nocmem.Config, w nocmem.Workload) (systems [3]system, err error) {
	apps, err := w.Profiles()
	if err != nil {
		return systems, err
	}
	for i, v := range []struct {
		name   string
		s1, s2 bool
	}{{"base", false, false}, {"scheme-1", true, false}, {"scheme-1+2", true, true}} {
		c := cfg.WithSchemes(v.s1, v.s2)
		est, err := nocmem.EstimateApps(c, apps)
		if err != nil {
			return systems, err
		}
		ws, err := nocmem.EstimatedWeightedSpeedup(c, apps)
		if err != nil {
			return systems, err
		}
		systems[i] = system{v.name, est.Summary(), ws}
	}
	return systems, nil
}
