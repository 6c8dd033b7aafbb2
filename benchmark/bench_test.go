package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpec holds the vocabulary to the driver's limits and to itself: legal
// names and units, the 8 / 16 / 128 counts, a setup_s metric, and every
// per-layer prediction naming an end-to-end metric and a workload that exist.
func TestSpec(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	isWorkload := make(map[string]bool)
	for _, w := range workloads {
		name(w.Name)
		isWorkload[w.Name] = true
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.run == nil || w.Size == "" || w.Loop == "" || w.Ops == "" {
			t.Errorf("workload %s: incomplete spec", w.Name)
		}
	}
	isE2E := make(map[string]bool)
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		isE2E[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if layerOf(m.Name) != m.Layer {
			t.Errorf("per-layer %s: layer %q is not its prefix", m.Name, m.Layer)
		}
		if !isWorkload[m.Home] && m.Home != homeKernels && m.Home != homeHost {
			t.Errorf("per-layer %s: home %q is no workload", m.Name, m.Home)
		}
		for _, mv := range m.Moves {
			if !isE2E[mv.Metric] || !isWorkload[mv.Workload] || (mv.Not != "" && !isWorkload[mv.Not]) {
				t.Errorf("per-layer %s: prediction %+v names no end-to-end metric or workload", m.Name, mv)
			}
		}
	}
}

// TestReadme keeps README.md naming every workload and metric of spec.go.
func TestReadme(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	for _, m := range endToEnd {
		names = append(names, m.Name)
	}
	for _, m := range perLayer {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !bytes.Contains(readme, []byte("`"+n+"`")) {
			t.Errorf("README.md does not mention `%s`", n)
		}
	}
}

// TestBenchmarkJSON keeps the driver's file in step with spec.go.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	// 4 + 22 runs per workload, two builds: all within 3420 s. A tracing-off
	// run costs about run_seconds plus set-up and checks.
	if budget := (4 + 22*len(f.Workloads)) * (f.RunSeconds + 10); budget > 3420-300 {
		t.Errorf("run_seconds %d leaves no room in the driver's 3420 s (estimate %d s)", f.RunSeconds, budget)
	}
	for _, arg := range f.Command[1:] {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
		if strings.Contains(arg, "/") && !strings.HasPrefix(arg, "benchmark/") {
			t.Errorf("command argument %q names a path outside benchmark/", arg)
		}
	}
	if len(f.Workloads) != len(workloads) || len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d/%d entries, spec.go %d/%d/%d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, f.Workloads[i].Name, w.Name)
		}
	}
	for i, m := range endToEnd {
		if g := f.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go %+v", i, g, m)
		}
	}
	for i, m := range perLayer {
		if g := f.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go %s/%s/%s", i, g, m.Name, m.Unit, m.Better)
		}
	}
}

// TestSelfTime checks the span arithmetic: a layer's self time is its span
// minus the union of its children, and lanes under a Width span are charged
// at 1/Width so a fully busy parallel region sums to its wall-clock length.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "bench.workload", Start: 0, End: 100, Parent: -1},              // 0
		{Name: "sim.new", Start: 0, End: 10, Parent: 0},                       // 1
		{Name: "bench.timed", Start: 10, End: 100, Parent: 0, Width: 2},       // 2
		{Name: "bench.lane", Start: 10, End: 100, Parent: 2},                  // 3
		{Name: "bench.lane", Start: 10, End: 90, Parent: 2},                   // 4
		{Name: "simdclient.run", Start: 10, End: 60, Parent: 3},               // 5
		{Name: "simd.execute", Start: 20, End: 50, Parent: 5},                 // 6
		{Name: "simd.store", Start: 40, End: 70, Parent: 5},                   // 7: overlaps 6, runs past its parent
		{Name: "sim.step", Start: 10, End: 90, Parent: 4},                     // 8
		{Name: "noise.other_root", Start: 0, End: 1000, Parent: -1, Width: 0}, // 9: not under the root
	}
	self := selfTimes(spans)
	want := []int64{0, 10, 0, 40, 0, 10, 30, 30, 80, 1000}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	got := layerSelf(spans, 0)
	// sim: 10 (new) + 80/2 (step); bench: 40/2 (lane 3's gap); simdclient:
	// 10/2; simd: (30+30)/2.
	for layer, ns := range map[string]float64{"sim": 50, "bench": 20, "simdclient": 5, "simd": 30} {
		if math.Abs(got[layer]*1e9-ns) > 1e-6 {
			t.Errorf("layer %s self time %v ns, want %v", layer, got[layer]*1e9, ns)
		}
	}
	if _, ok := got["noise"]; ok {
		t.Error("a span outside the root's subtree was charged")
	}
	if d := spanSeconds(spans, 0, "bench.lane"); len(d) != 2 || math.Abs(d[0]*1e9-90) > 1e-6 || math.Abs(d[1]*1e9-80) > 1e-6 {
		t.Errorf("spanSeconds(bench.lane) = %v", d)
	}
}

// TestMedianPace checks the arithmetic of the timed metrics: the weighted
// median of the chunks' seconds per op, and the cutting of completion marks
// into chunks.
func TestMedianPace(t *testing.T) {
	// A quarter of the work at 2 s/op, the rest in equal chunks of which a
	// third ran at 4 s/op: more than half of the work ran at 1 s/op.
	chunks := []chunk{{25, 50}}
	for i := 0; i < 15; i++ {
		pace := 1.0
		if i%3 == 0 {
			pace = 4
		}
		chunks = append(chunks, chunk{5, 5 * pace})
	}
	if got := medianPace(chunks); got != 1 {
		t.Errorf("medianPace = %v, want 1", got)
	}
	if got := medianPace([]chunk{{10, 30}}); got != 3 {
		t.Errorf("medianPace of one chunk = %v, want 3", got)
	}

	var m marks
	start := time.Unix(0, 0)
	for _, ms := range []int{900, 100, 200, 400, 1000, 700, 1300} { // any order, as lanes report
		m.times = append(m.times, start.Add(time.Duration(ms)*time.Millisecond))
	}
	got := m.chunks(start, 2)
	want := []chunk{{2, 0.2}, {2, 0.5}, {2, 0.3}} // the seventh completion is left over
	if len(got) != len(want) {
		t.Fatalf("chunks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].ops != want[i].ops || math.Abs(got[i].seconds-want[i].seconds) > 1e-9 {
			t.Errorf("chunk %d = %v, want %v", i, got[i], want[i])
		}
	}
	if one := m.chunks(start, 100); len(one) != 1 || one[0].ops != 7 {
		t.Errorf("a phase shorter than one chunk gave %v, want the whole phase", one)
	}
}

// TestCompare drives -compare over synthetic result files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, walls []float64, ipc float64, failed int64) string {
		var runs []result
		for _, w := range walls {
			runs = append(runs, result{Workload: "sat32", Seed: 1, Seconds: 8, Ops: 10, Failed: failed, Metrics: map[string]metric{
				"wall_s":      {Value: w, Unit: "s"},
				"ops_per_s":   {Value: 1000 / w, Unit: "1/s"},
				"sim.ipc_sum": {Value: ipc, Unit: "count"},
			}})
		}
		path := filepath.Join(dir, name)
		if err := writeRuns(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("a.json", []float64{10, 10.1, 9.9, 10}, 8.25, 0)
	for _, c := range []struct {
		name  string
		walls []float64
		ipc   float64
		fail  int64
		code  int
		want  string
	}{
		{"same", []float64{10.2, 10.1, 10.3}, 8.25, 0, 0, "same"},
		{"better", []float64{7, 7.1, 7.2}, 8.25, 0, 0, "better"},
		{"worse", []float64{13, 13.1, 13.2}, 8.25, 0, 1, "worse"},
		{"unresolved", []float64{5, 10, 15, 10.2}, 8.25, 0, 0, "unresolved"},
		{"exact", []float64{10, 10.1}, 8.26, 0, 1, "DIFFERS"},
		{"failures", []float64{10, 10.1}, 8.25, 1, 1, "worse"},
	} {
		var out bytes.Buffer
		code := compareFiles(&out, base, file(c.name+".json", c.walls, c.ipc, c.fail))
		if code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}

// smoke runs one workload in-process at 1/200 of the nominal sizes.
func smoke(t *testing.T, name string, seed int64, traced bool) *env {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	e := newEnv(seed, 1.0/200, t.TempDir(), tr)
	workloadByName(name).run(e)
	if e.failed != 0 || e.ops == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", name, e.failed, e.ops, e.failures)
	}
	return e
}

// TestWorkloadsSmoke proves every workload's output checks pass and every
// end-to-end metric is measured, tracing off.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads at 1/200 size")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			e := smoke(t, w.Name, 1, false)
			for _, m := range endToEnd {
				if v, ok := e.metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("%s: end-to-end metric %s = %+v", w.Name, m.Name, v)
				}
			}
		})
	}
}

// TestSeedDiscipline: the seed changes generated inputs only, so the exact
// simulated-domain metrics repeat for a seed and move with it.
func TestSeedDiscipline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three traced test-sized passes")
	}
	exact := func(e *env, home string) map[string]float64 {
		out := make(map[string]float64)
		for _, m := range perLayer {
			if m.Exact && m.Home == home {
				v, ok := e.metrics[m.Name]
				if !ok {
					t.Errorf("%s: exact metric %s was not measured", home, m.Name)
				}
				out[m.Name] = v.Value
			}
		}
		return out
	}
	const home = "sat32"
	first, again, other := exact(smoke(t, home, 1, true), home), exact(smoke(t, home, 1, true), home), exact(smoke(t, home, 2, true), home)
	moved := false
	for k, v := range first {
		if again[k] != v {
			t.Errorf("%s differs between two runs at seed 1: %v vs %v", k, v, again[k])
		}
		moved = moved || other[k] != v
	}
	if !moved {
		t.Errorf("no exact metric of %s moved between seeds 1 and 2: %v", home, first)
	}
}
