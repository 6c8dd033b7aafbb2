// Command benchmark is the repository's benchmark: six named workloads from
// component ticks to distributed sweeps, end-to-end metrics measured with
// tracing off, and a traced pass that wraps the benchmark's own calls into
// each layer's public functions in spans to produce the per-layer numbers.
// BENCHMARK.json at the repository root names what it reports; README.md in
// this directory explains every workload and metric.
//
// Usage:
//
//	cd benchmark                         # a module of its own, see go.mod
//	go run . -seed 1                     # all six workloads, tracing off
//	go run . -seed 1 -trace 1            # ... then the traced pass of each
//	go run . -seed 1 -workload sat32     # one workload, in this process
//	go run . -seed 1 -out a.json         # keep the results for -compare
//	go run . -compare a.json b.json      # apply the regression bounds
//
// Without -workload every workload runs in its own re-exec'd child process,
// so peak RSS and GC state are per workload. The benchmark's driver runs
// `... -workload W -seed N -seconds S -trace 0|1` (through run.sh, which
// keeps the build inside the checkout) and reads the last line of standard
// output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "workload seed: feeds cfg.Run.Seed, the policy-grid order and the hit-request order (1 is the working seed, 7 is held out for claims)")
		seconds  = flag.Float64("seconds", nominalSeconds, "target length of each timed region on the sizing box; every cycle and request count scales by seconds/16")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer pass (after the untraced one when no -workload is given)")
		name     = flag.String("workload", "", "run this one workload in this process; empty runs all six, each in a child process")
		out      = flag.String("out", "", "write the results as JSON to this file (the input of -compare)")
		repeat   = flag.Int("repeat", 1, "without -workload: run the whole set this many times, so -compare has a spread")
		tmp      = flag.String("tmp", os.TempDir(), "directory for stores and span files; never inside the repository")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: A.json B.json")
		listSpec = flag.Bool("spec", false, "print the workload and metric vocabulary as JSON and exit")
	)
	flag.Parse()

	switch {
	case *listSpec:
		printSpec()
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat < 1:
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -trace 0 or 1, -repeat at least 1")
		os.Exit(2)
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
			os.Exit(2)
		}
		os.Exit(runChild(w, *seed, *seconds, *trace == 1, *tmp, *out))
	default:
		os.Exit(runAll(*seed, *seconds, *trace == 1, *repeat, *tmp, *out))
	}
}

// runChild runs one workload in this process and prints its report; the last
// line of standard output is the one-object summary the driver reads.
func runChild(w *workloadSpec, seed int64, seconds float64, traced bool, tmpRoot, out string) int {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	dir, err := os.MkdirTemp(tmpRoot, "nocbench-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	res := result{
		Workload: w.Name, Seed: seed, Seconds: seconds, Trace: traced,
		Host: describeHost(dir),
	}
	goroutines := runtime.NumGoroutine()
	scale := seconds / nominalSeconds
	var e *env
	if traced {
		spanFile := filepath.Join(tmpRoot, fmt.Sprintf("nocbench-spans-%s-seed%d.json", w.Name, seed))
		e = runTraced(w, seed, scale, dir, spanFile, &res)
	} else {
		e = newEnv(seed, scale, dir, nil)
		w.run(e)
		if e.rss != nil { // the workload gave up inside its timed region
			e.rss.stop()
		}
		for _, m := range endToEnd {
			if _, ok := e.metrics[m.Name]; !ok {
				e.check(false, "end-to-end metric %s was not measured", m.Name)
			}
		}
	}
	// Everything the workload started is closed and awaited by now; idle
	// HTTP connection goroutines may take a moment to notice.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	e.check(runtime.NumGoroutine() <= goroutines, "goroutine leak: %d before the workload, %d after", goroutines, runtime.NumGoroutine())

	res.Ops, res.Failed, res.Failures = e.ops, e.failed, e.failures
	res.Metrics, res.SummarySHA256 = e.metrics, e.digest()
	printResult(&res)
	if out != "" {
		if err := writeRuns(out, []result{res}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}

	// The driver's line: exactly these keys, each metric a value and a unit.
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{res.Failed == 0, res.Ops, res.Failed, make(map[string]driverMetric)}
	for k, m := range res.Metrics {
		line.Metrics[k] = driverMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(b))
	if res.Failed != 0 {
		return 1
	}
	return 0
}

// runTraced is the traced pass of one workload. The workload itself runs at
// full size with its opaque calls replaced by hand-driven pipelines under
// spans. Every other workload's traced pipeline then runs at miniFactor of
// that size, only to supply the per-layer metrics it is home to, and the
// component kernels run at their fixed sizes — so one traced pass measures
// every per-layer metric afresh. A metric is read on its home workload; the
// mini runs keep the others alive, not precise.
func runTraced(w *workloadSpec, seed int64, scale float64, dir, spanFile string, res *result) *env {
	tr := newTracer()
	e := newEnv(seed, scale, dir, tr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.run(e)
	runtime.ReadMemStats(&after)

	spans := tr.snapshot()
	e.setLayer("host.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	e.setLayer("host.num_gc", float64(after.NumGC-before.NumGC))
	e.setLayer("host.heap_peak_mb", float64(after.HeapSys)/(1<<20))
	e.setLayer("host.peak_rss_mb", peakRSSMB())
	e.setLayer("bench.traced_wall_s", sum(spanSeconds(spans, e.root, "bench.timed")))
	e.setLayer("bench.spans", float64(len(spans)))
	if e.check(e.root != noSpan, "the traced workload opened no root span") {
		res.LayerSelfS = layerSelf(spans, e.root)
		wall := float64(spans[e.root].End-spans[e.root].Start) / 1e9
		var attributed float64
		for _, s := range res.LayerSelfS {
			attributed += s
		}
		e.check(math.Abs(attributed-wall) <= 0.05*wall, "per-layer self times sum to %.3f s, the traced workload took %.3f s", attributed, wall)
		e.setLayer("bench.unattributed_frac", res.LayerSelfS["bench"]/wall)
	}
	if err := tr.write(spanFile); e.must(err, "writing the span file") {
		res.SpanFile = spanFile
	}

	for i := range workloads {
		v := &workloads[i]
		if v == w {
			continue
		}
		mini := newEnv(seed, scale*miniFactor, dir, newTracer())
		v.run(mini)
		for name, m := range mini.metrics {
			if ls := layerByName(name); ls != nil && ls.Home == v.Name {
				m.Note = "from a 1/16-size pass of " + v.Name
				e.metrics[name] = m
			}
		}
		e.ops += mini.ops
		e.failed += mini.failed
		for _, f := range mini.failures {
			e.failures = append(e.failures, v.Name+" (mini): "+f)
		}
	}
	runKernels(e)
	for _, ls := range perLayer {
		if _, ok := e.metrics[ls.Name]; !ok {
			e.check(false, "per-layer metric %s was not measured", ls.Name)
		}
	}
	return e
}

// runAll runs every workload in its own child process, repeat times over.
func runAll(seed int64, seconds float64, traced bool, repeat int, tmpRoot, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(tmpRoot, "nocbench-run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	var runs []result
	status := 0
	child := func(w *workloadSpec, trace int) *result {
		file := filepath.Join(scratch, "child.json")
		cmd := exec.Command(exe,
			"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-tmp", tmpRoot, "-out", file)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			status = 1
		}
		rs, err := readRuns(file)
		if err != nil || len(rs) != 1 {
			fmt.Fprintf(os.Stderr, "benchmark: %s left no result: %v\n", w.Name, err)
			status = 1
			return nil
		}
		runs = append(runs, rs[0])
		return &rs[0]
	}
	for rep := 0; rep < repeat; rep++ {
		for i := range workloads {
			w := &workloads[i]
			plain := child(w, 0)
			if !traced {
				continue
			}
			// The two passes together give the tracing overhead.
			if tracedRes := child(w, 1); plain != nil && tracedRes != nil {
				over := tracedRes.Metrics["bench.traced_wall_s"].Value/plain.Metrics["wall_s"].Value - 1
				fmt.Printf("%-12s bench.trace_overhead_frac %.4f frac (traced timed region over untraced, minus 1)\n", w.Name, over)
			}
		}
	}
	if out != "" {
		if err := writeRuns(out, runs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}

// printResult prints the header and every metric by name and unit.
func printResult(r *result) {
	mode := "tracing off"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("# workload %s seed %d seconds %g (%s) nproc %d GOMAXPROCS %d %s store-fs %s\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.StoreFS)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		line := fmt.Sprintf("%-12s %-34s %14.6g %s", r.Workload, k, m.Value, m.Unit)
		if m.Q1 != nil {
			line += fmt.Sprintf("  [q1 %.6g q3 %.6g n %d]", *m.Q1, *m.Q3, m.N)
		}
		if m.Valid != nil {
			line += fmt.Sprintf("  valid:%v", *m.Valid)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
	if len(r.LayerSelfS) > 0 {
		layers := make([]string, 0, len(r.LayerSelfS))
		for k := range r.LayerSelfS {
			layers = append(layers, k)
		}
		sort.Strings(layers)
		var total float64
		for _, k := range layers {
			fmt.Printf("%-12s self-time %-24s %12.6f s\n", r.Workload, k, r.LayerSelfS[k])
			total += r.LayerSelfS[k]
		}
		fmt.Printf("%-12s self-time %-24s %12.6f s\n", r.Workload, "(sum)", total)
	}
	if r.SpanFile != "" {
		fmt.Printf("%-12s spans %s\n", r.Workload, r.SpanFile)
	}
	fmt.Printf("%-12s ops %d failed %d summary-sha256 %s\n", r.Workload, r.Ops, r.Failed, r.SummarySHA256)
	for _, f := range r.Failures {
		fmt.Printf("%-12s FAILED %s\n", r.Workload, f)
	}
}

// runsFile is the on-disk form of one or more results.
type runsFile struct {
	Runs []result `json:"runs"`
}

func writeRuns(path string, runs []result) error {
	b, err := json.MarshalIndent(runsFile{runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRuns(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// printSpec dumps the vocabulary of spec.go, for tools and for keeping
// BENCHMARK.json in step.
func printSpec() {
	type wl struct {
		Name, Why, Size, Loop, Ops string
		Clients                    int
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.Name, w.Why, w.Size, w.Loop, w.Ops, w.Clients})
	}
	b, err := json.MarshalIndent(map[string]any{"workloads": ws, "end_to_end": endToEnd, "per_layer": perLayer}, "", " ")
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}
