// Command nocsim runs one multiprogrammed workload on the simulated 32-core
// NoC multicore and reports the paper's headline metrics under the baseline,
// Scheme-1, and Scheme-1+2.
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
	"log"
	"os"
	"text/tabwriter"

	"nocmem"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocsim: ")
	var (
		wid      = flag.Int("workload", 1, "Table 2 workload id (1-18)")
		cores    = flag.Int("cores", 32, "core count: 32 (4x8) or 16 (4x4)")
		warmup   = flag.Int64("warmup", 100_000, "warmup cycles")
		measure  = flag.Int64("measure", 300_000, "measurement cycles")
		seed     = flag.Int64("seed", 1, "workload seed")
		verbose  = flag.Bool("v", false, "per-application details (stdout) and what the stepper elided (stderr)")
		jsonOut  = flag.String("json", "", "write the scheme-1+2 run's summary as JSON to this file ('-' = stdout)")
		jobs     = flag.Int("j", 0, "max concurrent simulations (0 = all CPUs, 1 = sequential)")
		shards   = flag.Int("shards", 1, "worker goroutines per simulation (results are identical at any count)")
		steal    = flag.String("steal", "on", "intra-cycle work stealing in sharded runs: on|off (bisection escape hatch)")
		fork     = flag.Bool("fork", false, "share one baseline warmup checkpoint across the base/S1/S1+S2 runs (faster; scheme runs then warm up under the baseline policy)")
		estimate = flag.Bool("estimate", false, "answer from the closed-form analytic model instead of simulating (a fraction of a millisecond, approximate)")
	)
	flag.Parse()
	if *steal != "on" && *steal != "off" {
		log.Fatalf("bad -steal value %q (want on or off)", *steal)
	}
	nocmem.SetParallelism(*jobs)
	nocmem.SetShareWarmup(*fork)

	var cfg nocmem.Config
	switch *cores {
	case 32:
		cfg = nocmem.Baseline32()
	case 16:
		cfg = nocmem.Baseline16()
	default:
		log.Fatalf("unsupported core count %d (want 32 or 16)", *cores)
	}
	cfg.Run.WarmupCycles = *warmup
	cfg.Run.MeasureCycles = *measure
	cfg.Run.Seed = *seed
	cfg.Run.Shards = *shards
	cfg.Run.NoSteal = *steal == "off"
	cfg.S1.UpdatePeriod = *measure / 15

	w, err := nocmem.GetWorkload(*wid)
	if err != nil {
		log.Fatal(err)
	}
	if *cores == 16 {
		if w, err = w.Halve(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%s (%s) on %d cores, %d + %d cycles\n", w.Name(), w.Category, *cores, *warmup, *measure)

	if *estimate {
		runEstimate(cfg, w, *jsonOut, *verbose)
		return
	}

	row, err := nocmem.SpeedupFor(cfg, w)
	if err != nil {
		log.Fatal(err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\tweighted speedup\tnormalized\tavg off-chip latency\tnet avg latency\n")
	for _, v := range []struct {
		name string
		ws   float64
		norm float64
		res  *nocmem.Result
	}{
		{"base", row.BaseWS, 1.0, row.Base},
		{"scheme-1", row.S1WS, row.NormS1, row.S1},
		{"scheme-1+2", row.S1S2WS, row.NormS1S2, row.S1S2},
	} {
		var lat float64
		var n int
		for _, tile := range v.res.ActiveTiles() {
			if h := v.res.Collector.RoundTrip[tile]; h.Count() > 0 {
				lat += h.Mean()
				n++
			}
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.4f\t%.0f\t%.1f\n", v.name, v.ws, v.norm, lat/float64(n), v.res.Net.AvgLatency())
	}
	tw.Flush()

	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := row.S1S2.WriteJSON(out); err != nil {
			log.Fatal(err)
		}
	}

	s1, s12 := row.S1, row.S1S2
	fmt.Printf("\nscheme-1 tagged %d of %d responses (%.1f%%); tagged return path %.0f vs normal %.0f cycles\n",
		s1.S1Tagged, s1.S1Checked, 100*float64(s1.S1Tagged)/float64(s1.S1Checked+1),
		s1.Collector.RetHigh.Mean(), s1.Collector.RetNormal.Mean())
	fmt.Printf("scheme-2 tagged %d of %d requests (%.1f%%)\n",
		s12.S2Tagged, s12.S2Checked, 100*float64(s12.S2Tagged)/float64(s12.S2Checked+1))

	if *verbose {
		fmt.Println()
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "tile\tapp\tIPC(base)\tIPC(s1+2)\tMPKI\tavg lat\tp99 lat\n")
		for _, tile := range row.Base.ActiveTiles() {
			h := row.Base.Collector.RoundTrip[tile]
			fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.3f\t%.1f\t%.0f\t%d\n",
				tile, row.Base.Apps[tile].Name, row.Base.IPC[tile], row.S1S2.IPC[tile],
				row.Base.MPKI(tile), h.Mean(), h.Percentile(99))
		}
		tw.Flush()
		// Stepper provenance goes to stderr: it describes the host run, not
		// the simulated machine, and stdout stays identical across -j,
		// -shards and -fork.
		for _, v := range []struct {
			name string
			res  *nocmem.Result
		}{{"base", row.Base}, {"scheme-1", row.S1}, {"scheme-1+2", row.S1S2}} {
			b := v.res.Blocked
			fmt.Fprintf(os.Stderr, "%s: stepper elided %d core-stall cycles, %d L2 retry polls, %d credit-only router ticks\n",
				v.name, b.CoreStallCycles, b.L2RetryPolls, b.CreditWakes)
		}
	}
}

// runEstimate prints the headline table from the closed-form analytic model:
// no cycles are simulated, so it answers in a fraction of a millisecond at
// the model's calibrated accuracy (see internal/analytic).
func runEstimate(cfg nocmem.Config, w nocmem.Workload, jsonOut string, verbose bool) {
	apps, err := w.Profiles()
	if err != nil {
		log.Fatal(err)
	}

	type variant struct {
		name   string
		cfg    nocmem.Config
		est    *nocmem.Estimate
		ws     float64
		baseWS float64
	}
	variants := []variant{
		{name: "base", cfg: cfg.WithSchemes(false, false)},
		{name: "scheme-1", cfg: cfg.WithSchemes(true, false)},
		{name: "scheme-1+2", cfg: cfg.WithSchemes(true, true)},
	}
	for i := range variants {
		v := &variants[i]
		if v.est, err = nocmem.EstimateApps(v.cfg, apps); err != nil {
			log.Fatal(err)
		}
		if v.ws, err = nocmem.EstimatedWeightedSpeedup(v.cfg, apps); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("estimated (closed-form model, no simulated cycles)")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\tweighted speedup\tnormalized\tavg off-chip latency\tnet avg latency\n")
	for _, v := range variants {
		var lat float64
		for _, a := range v.est.Apps {
			lat += a.Total
		}
		if n := len(v.est.Apps); n > 0 {
			lat /= float64(n)
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.4f\t%.0f\t%.1f\n",
			v.name, v.ws, v.ws/variants[0].ws, lat, v.est.NetLatency)
	}
	tw.Flush()

	s1, s12 := variants[1].est, variants[2].est
	fmt.Printf("\nscheme-1 estimated to tag %.1f%% of responses; scheme-2 %.1f%% of requests\n",
		100*s1.S1TaggedFrac, 100*s12.S2TaggedFrac)

	if jsonOut != "" {
		out := os.Stdout
		if jsonOut != "-" {
			f, err := os.Create(jsonOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s12.Summary()); err != nil {
			log.Fatal(err)
		}
	}

	if verbose {
		fmt.Println()
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "tile\tapp\tIPC(base)\tIPC(s1+2)\tMLP\tavg lat\n")
		for i, a := range variants[0].est.Apps {
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.1f\t%.0f\n",
				a.Tile, a.App, a.IPC, s12.Apps[i].IPC, a.MLP, a.Total)
		}
		tw.Flush()
	}
}
