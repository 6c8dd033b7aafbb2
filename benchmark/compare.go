package main

import (
	"fmt"
	"io"
)

// compareFiles applies the regression bounds of spec.go to two result files
// (each the -out of one or more run-sets of one commit) and prints one row
// per (workload, metric):
//
//   - an end-to-end metric is better, same or worse by its bound on the
//     medians; where neither holds and either side's spread (interquartile
//     range over median) is wider than the bound it is unresolved, not same;
//   - an exact ("=") per-layer metric must read identically on both sides;
//   - any other per-layer metric is listed with its change, without a verdict
//     (it has no bound).
//
// Per-layer metrics are compared on their home workload only. The exit code
// is non-zero when any row is worse, any exact metric differs, a workload is
// missing on one side, or failed/ops rose.
func compareFiles(w io.Writer, pathA, pathB string) int {
	load := func(path string) map[string]*grouped {
		runs, err := readRuns(path)
		if err == nil && len(runs) == 0 {
			err = fmt.Errorf("%s holds no runs", path)
		}
		if err != nil {
			fmt.Fprintln(w, "compare:", err)
			return nil
		}
		return groupRuns(runs)
	}
	ga, gb := load(pathA), load(pathB)
	if ga == nil || gb == nil {
		return 2
	}
	bad := 0
	for _, wl := range workloads {
		ra, rb := ga[wl.Name], gb[wl.Name]
		if ra == nil && rb == nil {
			continue
		}
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-12s %-34s MISSING on one side\n", wl.Name, "(workload)")
			bad++
			continue
		}
		if ra.seed != rb.seed || ra.seconds != rb.seconds {
			fmt.Fprintf(w, "%-12s %-34s seed/seconds differ: %d/%g vs %d/%g\n", wl.Name, "(workload)", ra.seed, ra.seconds, rb.seed, rb.seconds)
			bad++
		}
		fa, fb := float64(ra.failed)/float64(max(ra.ops, 1)), float64(rb.failed)/float64(max(rb.ops, 1))
		verdict := "same"
		if fb > fa {
			verdict = "worse"
			bad++
		}
		fmt.Fprintf(w, "%-12s %-34s %-10s failed/ops %d/%d -> %d/%d\n", wl.Name, "(failures)", verdict, ra.failed, ra.ops, rb.failed, rb.ops)

		for _, m := range endToEnd {
			va, vb := ra.values[m.Name], rb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue // a file of traced runs only
			}
			verdict := judge(va, vb, m.Better == "lower", m.Bound)
			if verdict == "worse" {
				bad++
			}
			row(w, wl.Name, m.Name, verdict, m.Unit, va, vb, fmt.Sprintf("bound %.0f%%", 100*m.Bound))
		}
		for _, m := range perLayer {
			if m.Home != wl.Name && m.Home != homeKernels && m.Home != homeHost {
				continue
			}
			va, vb := ra.values[m.Name], rb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue // a file of untraced runs only
			}
			verdict, note := "info", "no bound"
			if m.Exact {
				verdict, note = "identical", "exact"
				if !allEqual(append(append([]float64(nil), va...), vb...)) {
					verdict = "DIFFERS"
					bad++
				}
			}
			row(w, wl.Name, m.Name, verdict, m.Unit, va, vb, note)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "compare: %d row(s) worse, differing or missing\n", bad)
		return 1
	}
	return 0
}

// judge classifies B against A for one bounded metric.
func judge(a, b []float64, lowerBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	case spread(a) > bound || spread(b) > bound:
		return "unresolved"
	}
	return "same"
}

// spread is the interquartile range over the median, the noise band the
// bounds are read against; a single sample has none.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func allEqual(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}

func row(w io.Writer, workload, name, verdict, unit string, a, b []float64, note string) {
	ma, mb := median(a), median(b)
	change := 0.0
	if ma != 0 {
		change = 100 * (mb - ma) / ma
	}
	fmt.Fprintf(w, "%-12s %-34s %-10s %14.6g -> %-14.6g %-10s %+7.2f%%  spread %.1f%%/%.1f%% n %d/%d  (%s)\n",
		workload, name, verdict, ma, mb, unit, change, 100*spread(a), 100*spread(b), len(a), len(b), note)
}

// grouped is every sample of one workload in one file.
type grouped struct {
	seed        int64
	seconds     float64
	ops, failed int64
	values      map[string][]float64
}

func groupRuns(runs []result) map[string]*grouped {
	out := make(map[string]*grouped)
	for _, r := range runs {
		g := out[r.Workload]
		if g == nil {
			g = &grouped{seed: r.Seed, seconds: r.Seconds, values: make(map[string][]float64)}
			out[r.Workload] = g
		}
		g.ops += r.Ops
		g.failed += r.Failed
		for k, m := range r.Metrics {
			g.values[k] = append(g.values[k], m.Value)
		}
	}
	return out
}
