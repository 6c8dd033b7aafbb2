package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick/*.tsv from this build's output")

// quickOpts are the windows testdata/quick was generated at: the shortest at
// which every figure still has a data row (Fig. 14 samples every 10k cycles
// and keeps its cycle-0 bucket) and every sensitivity column differs.
func quickOpts(parallelism int) Options {
	return Options{WarmupCycles: 500, MeasureCycles: 3_500, Seed: 1, ThresholdPushPeriod: 1_000, Parallelism: parallelism}
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
		for _, f := range Figures() {
			var buf bytes.Buffer
			if err := f.Run(r, &buf); err != nil {
				t.Fatalf("%s at Parallelism %d: %v", f.ID, workers, err)
			}
			path := filepath.Join("testdata", "quick", f.ID+".tsv")
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
				t.Errorf("%s at Parallelism %d differs from %s\n--- got\n%s--- want\n%s", f.ID, workers, path, buf.Bytes(), want)
			}
		}
	}
}
