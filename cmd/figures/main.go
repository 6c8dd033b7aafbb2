// Command figures regenerates the data behind every table and figure of the
// paper's evaluation section. The experiments and their parameters are the
// table exp.Figures(); `figures -h` lists the ids.
//
// Usage:
//
//	figures -exp fig11                 # one experiment to stdout
//	figures -exp all -out results/     # everything, one file per experiment
//	figures -exp fig4 -measure 1000000 # longer measurement window
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nocmem/internal/exp"
	"nocmem/internal/par"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "figures: ", 0)
	figs := exp.Figures()
	byID := map[string]exp.Figure{}
	var all []string
	for _, f := range figs {
		byID[f.ID] = f
		all = append(all, f.ID)
	}
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which   = fs.String("exp", "all", "comma-separated experiment ids: "+strings.Join(all, " ")+", or all")
		outDir  = fs.String("out", "", "directory for per-experiment .tsv files (default: stdout)")
		warmup  = fs.Int64("warmup", 100_000, "warmup cycles")
		measure = fs.Int64("measure", 300_000, "measurement cycles")
		seed    = fs.Int64("seed", 1, "workload seed")
		push    = fs.Int64("push", 20_000, "scheme-1 threshold push period (cycles)")
		jobs    = fs.Int("j", 0, "max concurrent simulations (0 = all CPUs, 1 = sequential)")
		quiet   = fs.Bool("q", false, "suppress progress output")
		fork    = fs.Bool("fork", false, "share one baseline warmup checkpoint across compatible runs (faster; scheme runs then warm up under the baseline policy)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Every id is resolved before the first simulation starts.
	if *which != "all" {
		figs = nil
		for _, id := range strings.Split(*which, ",") {
			f, ok := byID[id]
			if !ok {
				return fmt.Errorf("unknown experiment %q (want one of %s)", id, strings.Join(all, " "))
			}
			figs = append(figs, f)
		}
	}

	runner := exp.NewRunner(exp.Options{
		WarmupCycles:        *warmup,
		MeasureCycles:       *measure,
		Seed:                *seed,
		ThresholdPushPeriod: *push,
		Parallelism:         *jobs,
		ShareWarmup:         *fork,
	})
	if !*quiet {
		runner.SetProgress(logger.Printf)
	}

	// Render every experiment concurrently into its own buffer: the shared
	// runner's semaphore (not this group) bounds the actual simulations, and
	// its singleflight cache dedups runs shared across experiments. Outputs
	// are emitted afterwards in the requested order, so the bytes written do
	// not depend on -j.
	bufs := make([]bytes.Buffer, len(figs))
	tooks := make([]time.Duration, len(figs))
	g := par.NewGroup(len(figs))
	for i, f := range figs {
		g.Go(func() error {
			start := time.Now()
			if err := f.Run(runner, &bufs[i]); err != nil {
				return fmt.Errorf("%s: %v", f.ID, err)
			}
			tooks[i] = time.Since(start)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return err
	}
	for i, f := range figs {
		if err := emit(stdout, *outDir, f.ID, bufs[i].Bytes()); err != nil {
			return fmt.Errorf("%s: %v", f.ID, err)
		}
		if !*quiet {
			logger.Printf("%s done in %.1fs", f.ID, tooks[i].Seconds())
		}
	}
	return nil
}

// emit writes one experiment's bytes to stdout, or to dir/id.tsv.
func emit(stdout io.Writer, dir, id string, b []byte) error {
	if dir == "" {
		_, err := stdout.Write(b)
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+".tsv"), b, 0o644)
}
