package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/sim"
	"nocmem/internal/simd"
	"nocmem/internal/simdclient"
	"nocmem/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/ from this build's output")

// golden compares got with testdata/name. The files were written by the
// sweep binary at ebfae63, before run existed (policy_w8.txt alone was
// rewritten by the PR that normalized it to the unprioritized machine):
// regenerate them (go test ./cmd/sweep -update) only in a PR that means to
// change simulated or estimated bytes, never to make a restructuring of this
// command pass.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestGolden drives run through the sweeps of one machine (threshold,
// history, policy), sweeps that change the machine (vcs, mcs), the estimated
// table and the pruned one with its diagnostics, at 2k+8k cycles.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		stdout, stderr string // golden files; no stderr file means stderr stays empty
		args           string
	}{
		{"threshold_w7.txt", "", "-what threshold -workload 7"},
		{"history_w1.txt", "", "-what history -workload 1"},
		{"vcs_w8.txt", "", "-what vcs -workload 8"},
		{"mcs_w1.txt", "", "-what mcs -workload 1"},
		{"vcs_w8_estimate.txt", "", "-what vcs -workload 8 -estimate"},
		{"buffers_w7_prune.txt", "buffers_w7_prune.stderr.txt", "-what buffers -workload 7 -prune-estimate 0.005"},
		{"policy_w8.txt", "", "-what policy -workload 8"},
	} {
		args := append(strings.Fields("-warmup 2000 -measure 8000"), strings.Fields(c.args)...)
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("sweep %s: %v", c.args, err)
		}
		golden(t, c.stdout, stdout.Bytes())
		if c.stderr != "" {
			golden(t, c.stderr, stderr.Bytes())
		} else if stderr.Len() > 0 {
			t.Errorf("sweep %s wrote to stderr: %s", c.args, stderr.Bytes())
		}
	}
}

func TestRunRejects(t *testing.T) {
	for _, args := range []string{
		"-estimate -prune-estimate 0.01", "-prune-estimate -1", "-workers -1",
		"-workers 2 -estimate", "-what nope", "-workload 19",
	} {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(args), &stdout, &stderr); err == nil {
			t.Errorf("sweep %s: accepted", args)
		}
		if stdout.Len() > 0 {
			t.Errorf("sweep %s printed before failing: %s", args, stdout.Bytes())
		}
	}
}

// testBase is the paper's machine at 4k+8k cycles.
func testBase() config.Config {
	base := config.Baseline32()
	base.Run.WarmupCycles = 4_000
	base.Run.MeasureCycles = 8_000
	base.S1.UpdatePeriod = 8_000 / 15
	return base
}

// testSweep is a small grid on the paper's machine: the three vcs points of
// workload 8.
func testSweep(t *testing.T) ([]point, workload.Workload) {
	t.Helper()
	points, err := grid("vcs", testBase())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Get(8)
	if err != nil {
		t.Fatal(err)
	}
	return points, w
}

// counting wraps an executor and counts the specs it is handed.
func counting(run executor, specs *int64) executor {
	return func(s []simd.RunSpec) ([]sim.Summary, error) {
		*specs += int64(len(s))
		return run(s)
	}
}

func table(t *testing.T, points []point, w workload.Workload, estimate bool, prune float64, run executor) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep(&buf, log.New(io.Discard, "", 0), points, w, estimate, prune, run); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTableIdenticalAcrossExecutors: the one table path prints the same
// bytes whether the specs execute in this process, on a coordinator with two
// workers, or come back entirely from that coordinator's store.
func TestTableIdenticalAcrossExecutors(t *testing.T) {
	points, w := testSweep(t)
	local := exp.NewRunner(exp.Options{})
	var runs int64
	want := table(t, points, w, false, 0, counting(localExecutor(local), &runs))
	if !strings.Contains(want, "8 VCs") {
		t.Fatalf("implausible table:\n%s", want)
	}
	if st := local.Stats(); st.Executed != runs || st.CacheHits != 0 {
		t.Errorf("local sweep of %d planned runs: %+v", runs, st)
	}

	logf := func(string, ...any) {}
	base, shutdown, err := bootLocalCoordinator(distOptions{workers: 2}, logf)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	cl := simdclient.New(base)
	defer cl.Close()
	if got := table(t, points, w, false, 0, coordinatorExecutor(cl, logf)); got != want {
		t.Errorf("coordinator table differs from local:\n--- local ---\n%s--- coordinator ---\n%s", want, got)
	}
	first, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Runner.RemoteCompletions != runs {
		t.Errorf("%d worker completions for %d runs", first.Runner.RemoteCompletions, runs)
	}

	if got := table(t, points, w, false, 0, coordinatorExecutor(cl, logf)); got != want {
		t.Errorf("repeated coordinator table differs from local:\n--- local ---\n%s--- repeat ---\n%s", want, got)
	}
	again, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Runner.LeasesGranted != first.Runner.LeasesGranted ||
		again.Store.ResultHits-first.Store.ResultHits != runs {
		t.Errorf("repeat was not served from the store: leases %d -> %d, store hits %d -> %d",
			first.Runner.LeasesGranted, again.Runner.LeasesGranted, first.Store.ResultHits, again.Store.ResultHits)
	}
}

// TestOneMachineSweepsShareBaseAndAlone: the points of a policy-knob sweep
// are variants of one machine, so workload 7 (nine distinct applications)
// costs one run per point plus one base and nine alone runs — not a base and
// an alone set per point.
func TestOneMachineSweepsShareBaseAndAlone(t *testing.T) {
	w, err := workload.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	for what, want := range map[string]int64{"threshold": 16, "history": 15, "policy": 14, "vcs": 33} {
		points, err := grid(what, testBase())
		if err != nil {
			t.Fatal(err)
		}
		var planned int64
		runner := exp.NewRunner(exp.Options{})
		run := localExecutor(runner)
		if what != "threshold" { // plan the others, simulate one
			run = func(specs []simd.RunSpec) ([]sim.Summary, error) { return nil, nil }
		}
		err = sweep(io.Discard, log.New(io.Discard, "", 0), points, w, false, 0, counting(run, &planned))
		if planned != want {
			t.Errorf("%s on workload 7 plans %d runs, want %d", what, planned, want)
		}
		if st := runner.Stats(); what == "threshold" && (err != nil || st.Executed != 16 || st.Runs != 16) {
			t.Errorf("threshold sweep on workload 7: %v, %+v, want 16 runs, each executed", err, st)
		}
	}
}

// TestPolicyNormalizedToUnprioritizedMachine: the alternatives of -what
// policy are variants of the schemes-off FR-FCFS machine, not machines
// normalized to themselves: 4 + 1 + 8 runs on workload 8, the scheme-1+2 row
// the binary of ebfae63 printed, and application-aware rows that are neither
// 1.0000 nor each other. The fcfs row is not asserted: on this workload the
// FCFS controller makes the picks FR-FCFS makes (row-hit rate 0.2 %), so the
// two runs are the same bytes and 1.0000 is what was measured.
func TestPolicyNormalizedToUnprioritizedMachine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(strings.Fields("-what policy -workload 8 -warmup 2000 -measure 8000 -v"), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "13 run requests — 13 simulated") {
		t.Errorf("policy sweep on workload 8 did not simulate 4+1+8 runs once each:\n%s", stderr.String())
	}
	rows := map[string][]string{}
	for _, l := range strings.Split(stdout.String(), "\n")[2:] {
		if f := strings.Fields(l); len(f) > 4 {
			rows[strings.Join(f[:len(f)-4], " ")] = f[len(f)-4:]
		}
	}
	if got := strings.Join(rows["scheme-1+2"], " "); got != "1.0081 102.4 4.9 47.0" {
		t.Errorf("scheme-1+2 row %q is not the row the binary of ebfae63 printed", got)
	}
	net, mem := rows["app-aware net"], rows["app-aware mem"]
	if net == nil || mem == nil || net[0] == "1.0000" || mem[0] == "1.0000" || net[0] == mem[0] {
		t.Errorf("application-aware rows %v and %v: want two different values, neither 1.0000", net, mem)
	}
}

// TestPrunedRowsEqualUnprunedRows: pruning only removes rows. The model
// cannot tell VC counts apart, so behind point 0 the vcs points go; the
// app-aware-network point differs from Scheme-1+2 and stays.
func TestPrunedRowsEqualUnprunedRows(t *testing.T) {
	points, w := testSweep(t)
	policy, err := grid("policy", points[0].cfg.WithSchemes(false, false))
	if err != nil {
		t.Fatal(err)
	}
	points = append(points, policy[1])
	run := localExecutor(exp.NewRunner(exp.Options{}))

	// Column widths follow the dashes, so compare fields, not padding.
	lines := func(s string) [][]string {
		var out [][]string
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			out = append(out, strings.Fields(l))
		}
		return out
	}
	full := lines(table(t, points, w, false, 0, run))
	pruned := lines(table(t, points, w, false, 0.005, run))
	var dashes int
	for i := range full {
		if strings.Join(pruned[i], " ") == strings.Join(full[i], " ") {
			continue
		}
		dashes++
		if got := strings.Join(pruned[i][len(pruned[i])-4:], ""); got != "----" || i < 2 {
			t.Errorf("line %d: pruned sweep printed %q, unpruned %q", i, pruned[i], full[i])
		}
	}
	if dashes != 2 {
		t.Errorf("%d rows pruned, want the 4- and 8-VC points:\n%v", dashes, pruned)
	}
}

// TestEstimatedSweepSimulatesNothing: -estimate is the same pipeline over a
// plan of Estimate specs.
func TestEstimatedSweepSimulatesNothing(t *testing.T) {
	points, w := testSweep(t)
	runner := exp.NewRunner(exp.Options{})
	local := localExecutor(runner)
	out := table(t, points, w, true, 0, func(specs []simd.RunSpec) ([]sim.Summary, error) {
		for _, sp := range specs {
			if !sp.Estimate {
				t.Errorf("estimated plan holds a simulation spec: workload %d apps %v", sp.Workload, sp.Apps)
			}
		}
		return local(specs)
	})
	if !strings.Contains(out, "2 VCs") || strings.Contains(out, "NaN") {
		t.Errorf("implausible estimated table:\n%s", out)
	}
	if st := runner.Stats(); st.Executed != 0 || st.Runs != 0 {
		t.Errorf("estimated sweep touched the runner: %+v", st)
	}
}

// TestCoordinatorAnswerIsChecked: a done job one result short, or with a
// result under another run's key, is an error — not a zero summary whose row
// prints NaN.
func TestCoordinatorAnswerIsChecked(t *testing.T) {
	points, w := testSweep(t)
	var answer func(keys []string) []simd.PointResult
	var keys []string
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", func(rw http.ResponseWriter, req *http.Request) {
		var rr simd.RunRequest
		if err := json.NewDecoder(req.Body).Decode(&rr); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		keys = keys[:0]
		for _, sp := range rr.Points {
			rp, err := simd.ResolveSpec(sp)
			if err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			keys = append(keys, rp.Key)
		}
		json.NewEncoder(rw).Encode(simd.SubmitResponse{ID: "job-1", Keys: keys})
	})
	mux.HandleFunc("GET /jobs/job-1", func(rw http.ResponseWriter, req *http.Request) {
		json.NewEncoder(rw).Encode(simd.JobStatus{ID: "job-1", Status: simd.StatusDone, Results: answer(keys)})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := simdclient.New(srv.URL)
	defer cl.Close()

	results := func(keys []string) []simd.PointResult {
		out := make([]simd.PointResult, len(keys))
		for i, k := range keys {
			out[i] = simd.PointResult{Key: k, Summary: json.RawMessage(`{}`)}
		}
		return out
	}
	for name, a := range map[string]func([]string) []simd.PointResult{
		"one result short": func(keys []string) []simd.PointResult { return results(keys[:len(keys)-1]) },
		"misplaced result": func(keys []string) []simd.PointResult {
			out := results(keys)
			out[0], out[1] = out[1], out[0]
			return out
		},
	} {
		answer = a
		var buf bytes.Buffer
		err := sweep(&buf, log.New(io.Discard, "", 0), points, w, false, 0, coordinatorExecutor(cl, func(string, ...any) {}))
		if err == nil || buf.Len() > 0 {
			t.Errorf("%s: err %v, printed %q", name, err, buf.String())
		}
	}
}

// TestForkedThresholdSweepProvenance: -fork -v reports the threshold prefix
// next to the warm checkpoints. The local executor starts its runs in
// goroutine order, but a group builds its prefix on its second request
// whichever points come between, so the six points always give one build
// and four forks from it.
func TestForkedThresholdSweepProvenance(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(strings.Fields("-what threshold -workload 7 -warmup 2000 -measure 4000 -fork -v -j 1"), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`threshold prefixes: (\d+) built, (\d+) runs forked from them`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no prefix provenance line:\n%s", stderr.String())
	}
	if m[1] != "1" || m[2] != "4" {
		t.Errorf("%s built, %s forked, want 1 and 4", m[1], m[2])
	}
}
