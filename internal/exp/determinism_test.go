package exp

import (
	"bytes"
	"sync"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/sim"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

func summaryBytes(t *testing.T, r *sim.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterminismAcrossExecutionModes checks that the same (seed, config,
// workload) yields a byte-identical result summary whether the simulation
// is built and run directly, run through a sequential runner, or run
// through a parallel runner: each simulation is one goroutine over private
// state, so the worker pool must not be observable in the results.
func TestDeterminismAcrossExecutionModes(t *testing.T) {
	opts := tinyOpts()
	w, err := workload.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	apps, err := w.Profiles()
	if err != nil {
		t.Fatal(err)
	}

	cfg := opts.apply(config.Baseline32())
	padded := make([]trace.Profile, cfg.Mesh.Nodes())
	copy(padded, apps)
	s, err := sim.New(cfg, padded)
	if err != nil {
		t.Fatal(err)
	}
	direct := summaryBytes(t, s.Run())

	seqOpts := opts
	seqOpts.Parallelism = 1
	seqRes, err := NewRunner(seqOpts).results(w.ID, config.Baseline32())
	if err != nil {
		t.Fatal(err)
	}
	seq := summaryBytes(t, seqRes[0])

	parOpts := opts
	parOpts.Parallelism = 4
	parRes, err := NewRunner(parOpts).results(w.ID, config.Baseline32())
	if err != nil {
		t.Fatal(err)
	}
	par := summaryBytes(t, parRes[0])

	if !bytes.Equal(direct, seq) {
		t.Errorf("sequential runner summary differs from direct simulation\ndirect: %d bytes\nrunner: %d bytes", len(direct), len(seq))
	}
	if !bytes.Equal(direct, par) {
		t.Errorf("parallel runner summary differs from direct simulation\ndirect: %d bytes\nrunner: %d bytes", len(direct), len(par))
	}
}

// TestRunnerConcurrentFigures generates two figures concurrently on one
// parallel runner — with a progress sink installed — and checks the output
// bytes match a sequential runner's. Under -race this doubles as the data
// race canary for the singleflight cache, the worker pool, and the shared
// progress sink (Fig12 and Fig13 share base runs, so dedup is exercised).
func TestRunnerConcurrentFigures(t *testing.T) {
	cfg := config.Baseline32()

	seq := NewRunner(func() Options { o := tinyOpts(); o.Parallelism = 1; return o }())
	var wantA, wantB bytes.Buffer
	if err := seq.Fig12(&wantA, cfg); err != nil {
		t.Fatal(err)
	}
	if err := seq.Fig13(&wantB, cfg); err != nil {
		t.Fatal(err)
	}

	par := NewRunner(func() Options { o := tinyOpts(); o.Parallelism = 4; return o }())
	par.SetProgress(func(format string, args ...any) {}) // exercise the sink under race
	var gotA, gotB bytes.Buffer
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); errA = par.Fig12(&gotA, cfg) }()
	go func() { defer wg.Done(); errB = par.Fig13(&gotB, cfg) }()
	wg.Wait()
	if errA != nil {
		t.Fatal(errA)
	}
	if errB != nil {
		t.Fatal(errB)
	}

	if gotA.String() != wantA.String() {
		t.Errorf("concurrent Fig12 output differs from sequential:\n--- sequential\n%s--- concurrent\n%s", wantA.String(), gotA.String())
	}
	if gotB.String() != wantB.String() {
		t.Errorf("concurrent Fig13 output differs from sequential:\n--- sequential\n%s--- concurrent\n%s", wantB.String(), gotB.String())
	}
}
