// Command tracegen records synthetic application instruction streams into
// trace files that the simulator replays (nocmem.OpenTrace, nocmem.RunTraces),
// and inspects existing traces.
//
// Usage:
//
//	tracegen -app milc -n 2000000 -o milc.trace
//	tracegen -inspect milc.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nocmem/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app     = fs.String("app", "", "application profile to record (see Table 2 names)")
		n       = fs.Int64("n", 1_000_000, "instructions to record")
		out     = fs.String("o", "", "output trace file")
		core    = fs.Int("core", 0, "core id (selects the address region and RNG stream)")
		seed    = fs.Int64("seed", 1, "generator seed")
		inspect = fs.String("inspect", "", "print a summary of an existing trace file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *inspect != "" {
		ft, err := trace.OpenFile(*inspect)
		if err != nil {
			return err
		}
		hot, warm := ft.PrewarmLines()
		var mem, stores int64
		for i := int64(0); i < ft.Records(); i++ {
			in := ft.Next()
			if in.IsMem {
				mem++
				if in.IsStore {
					stores++
				}
			}
		}
		fmt.Fprintf(stdout, "%s: %d records, %d memory ops (%.1f%%), %d stores (%.1f%% of mem), prewarm %d hot + %d warm lines\n",
			*inspect, ft.Records(), mem, 100*float64(mem)/float64(ft.Records()),
			stores, 100*float64(stores)/float64(mem), len(hot), len(warm))
		return nil
	}

	if *app == "" || *out == "" {
		return errors.New("need -app and -o (or -inspect)")
	}
	p, err := trace.Lookup(*app)
	if err != nil {
		return err
	}
	g, err := trace.NewGenerator(p, *core, 64, *seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Record(f, g, *n); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, _ := os.Stat(*out)
	fmt.Fprintf(stdout, "recorded %d instructions of %s (core %d) to %s (%d bytes)\n", *n, *app, *core, *out, st.Size())
	return nil
}
