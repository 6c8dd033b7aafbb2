package exp

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"nocmem/internal/config"
)

var update = flag.Bool("update", false, "rewrite testdata/quick/*.tsv from this build's output")

// quickOpts are the windows testdata/quick was generated at: the shortest at
// which every figure still has a data row (Fig. 14 samples every 10k cycles
// and keeps its cycle-0 bucket) and every sensitivity column differs.
func quickOpts(parallelism int) Options {
	return Options{WarmupCycles: 500, MeasureCycles: 3_500, Seed: 1, ThresholdPushPeriod: 1_000, Parallelism: parallelism}
}

// goldenFigures lists every experiment id with the paper's parameters, as
// cmd/figures dispatches them.
func goldenFigures() []struct {
	id  string
	run func(*Runner, io.Writer) error
} {
	cfg := config.Baseline32()
	all := make([]int, 18)
	for i := range all {
		all[i] = i + 1
	}
	return []struct {
		id  string
		run func(*Runner, io.Writer) error
	}{
		{"table1", func(_ *Runner, w io.Writer) error { Table1(w, cfg); return nil }},
		{"table2", func(_ *Runner, w io.Writer) error { Table2(w); return nil }},
		{"fig4", func(r *Runner, w io.Writer) error { return r.Fig4(w, cfg) }},
		{"fig5", func(r *Runner, w io.Writer) error { return r.Fig5(w, cfg) }},
		{"fig6", func(r *Runner, w io.Writer) error { return r.Fig6(w, cfg) }},
		{"fig9", func(r *Runner, w io.Writer) error { return r.Fig9(w, cfg) }},
		{"fig11", func(r *Runner, w io.Writer) error { return r.Fig11(w, cfg, all) }},
		{"fig12", func(r *Runner, w io.Writer) error { return r.Fig12(w, cfg) }},
		{"fig13", func(r *Runner, w io.Writer) error { return r.Fig13(w, cfg) }},
		{"fig14", func(r *Runner, w io.Writer) error { return r.Fig14(w, cfg) }},
		{"fig15", func(r *Runner, w io.Writer) error { return r.Fig15(w, all) }},
		{"fig16a", func(r *Runner, w io.Writer) error { return r.Fig16a(w, cfg, []float64{1.0, 1.2, 1.4}) }},
		{"fig16b", func(r *Runner, w io.Writer) error { return r.Fig16b(w, cfg, []int64{1000, 2000, 4000}) }},
		{"fig16c", func(r *Runner, w io.Writer) error { return r.Fig16c(w, cfg) }},
		{"fig17", func(r *Runner, w io.Writer) error { return r.Fig17(w, cfg) }},
	}
}

// TestFiguresGolden byte-compares every figure at quick windows with the
// files under testdata/quick, once sequentially and once through the worker
// pool. The files are a record of the simulator's bytes, like results/ at
// full windows: regenerate them (go test ./internal/exp -run
// TestFiguresGolden -update) only in a PR that means to change simulated
// behaviour, never to make a refactoring of this package pass.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("every figure twice in -short mode")
	}
	for _, workers := range []int{1, 2} {
		r := NewRunner(quickOpts(workers))
		for _, f := range goldenFigures() {
			var buf bytes.Buffer
			if err := f.run(r, &buf); err != nil {
				t.Fatalf("%s at Parallelism %d: %v", f.id, workers, err)
			}
			path := filepath.Join("testdata", "quick", f.id+".tsv")
			if *update && workers == 1 {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s at Parallelism %d differs from %s\n--- got\n%s--- want\n%s", f.id, workers, path, buf.Bytes(), want)
			}
		}
	}
}
