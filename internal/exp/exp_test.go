package exp

import (
	"bytes"
	"strings"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/workload"
)

// tinyOpts keeps exp tests fast: the 32-core runs below take ~0.1s each.
func tinyOpts() Options {
	return Options{WarmupCycles: 2_000, MeasureCycles: 15_000, Seed: 1, ThresholdPushPeriod: 2_000}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, config.Baseline32())
	out := buf.String()
	for _, want := range []string{"32 out-of-order cores", "8x4 mesh", "4 controllers x 16 banks", "S-NUCA"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Output(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf)
	out := buf.String()
	if got := strings.Count(out, "workload-"); got != 18 {
		t.Errorf("%d workload rows, want 18", got)
	}
	for _, want := range []string{"workload-7\tmem-intensive", "mcf(3), lbm(2)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 missing %q", want)
		}
	}
}

func TestFig4RowsParse(t *testing.T) {
	r := NewRunner(tinyOpts())
	var buf bytes.Buffer
	if err := r.Fig4(&buf, config.Baseline32()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 4 {
		t.Fatalf("fig4 produced only %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "range_lo\trange_hi") {
		t.Errorf("missing header: %s", lines[1])
	}
	for _, l := range lines[2:] {
		if got := len(strings.Split(l, "\t")); got != 8 {
			t.Errorf("row has %d columns, want 8: %s", got, l)
		}
	}
}

func TestFig6AllBanksReported(t *testing.T) {
	r := NewRunner(tinyOpts())
	var buf bytes.Buffer
	if err := r.Fig6(&buf, config.Baseline32()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if got := len(lines) - 2; got != 16 { // header lines + 16 banks
		t.Errorf("%d bank rows, want 16", got)
	}
}

func TestSpeedupsRunsCacheAndNormalize(t *testing.T) {
	r := NewRunner(tinyOpts())
	w, err := workload.Get(13)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := r.Speedups(config.Baseline32(), []workload.Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	row := rows[0]
	if row.Base <= 0 || row.NormS1 <= 0 || row.NormS1S2 <= 0 {
		t.Errorf("row %+v", row)
	}
	// A second identical request must be served entirely from the cache
	// (same pointer results -> identical values, quickly).
	rows2, err := r.Speedups(config.Baseline32(), []workload.Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	if rows2[0].Base != row.Base || rows2[0].NormS1 != row.NormS1 || rows2[0].NormS1S2 != row.NormS1S2 {
		t.Errorf("cached rerun differs: %+v vs %+v", rows2[0], row)
	}
}

func TestFig16aShape(t *testing.T) {
	// Only exercise the plumbing on a single factor to keep this fast.
	r := NewRunner(tinyOpts())
	var buf bytes.Buffer
	if err := r.Fig16a(&buf, config.Baseline32(), []float64{1.2}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if got := len(lines) - 2; got != 6 { // header + 6 mixed workloads
		t.Errorf("%d workload rows, want 6\n%s", got, buf.String())
	}
}

// TestAllFiguresSmoke drives every experiment of the Figures table once at
// miniature scale on the default worker pool, verifying that each produces
// parseable, non-empty output.
func TestAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	r := NewRunner(Options{WarmupCycles: 500, MeasureCycles: 2_000, Seed: 1, ThresholdPushPeriod: 1_000})
	for _, f := range Figures() {
		var buf bytes.Buffer
		if err := f.Run(r, &buf); err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 3 {
			t.Errorf("%s produced only %d lines", f.ID, len(lines))
		}
		for _, l := range lines {
			if strings.Contains(l, "NaN") || strings.Contains(l, "Inf") {
				t.Errorf("%s contains invalid numbers: %s", f.ID, l)
			}
		}
	}
}
