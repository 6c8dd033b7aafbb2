package analytic_test

import (
	"testing"

	"nocmem/internal/analytic"
	"nocmem/internal/sim"
)

// TestOracleFlagsTruncatedTiles is the divergence oracle's mutation test. The
// bug it guards against is the old allMask(64) active-set truncation, under
// which tiles >= 64 never ticked: their cores retired nothing and issued no
// off-chip access. The test reproduces that symptom where CrossCheck reads it
// — it zeroes IPC and OffChip of the tiles >= 64 in a clean run's Summary —
// and asserts the model-vs-sim cross-check flags the silently dead tiles,
// while the untouched summary raises no such flag. The oracle must separate
// "the simulator silently lost tiles" from ordinary model error, so both are
// checked at the loose OracleBand.
func TestOracleFlagsTruncatedTiles(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle mutation test simulates a 16x16 mesh")
	}
	cfg, apps := mesh256()
	cfg = shortRun(cfg, 20_000, 60_000)
	s, err := sim.New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()

	check := func(sum sim.Summary) *analytic.Report {
		t.Helper()
		rep, err := analytic.CrossCheck(cfg, apps, sum, analytic.OracleBand)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	clean := check(res.Summary())
	for _, f := range clean.Flags {
		if f.Kind == "dead-tile" {
			t.Errorf("oracle flagged a healthy run: %s %s: %s", f.Tile, f.App, f.Detail)
		}
	}

	// Summary.Apps lists the active tiles in ascending order.
	truncated := res.Summary()
	for i, tile := range res.ActiveTiles() {
		if tile >= 64 {
			truncated.Apps[i].IPC, truncated.Apps[i].OffChip = 0, 0
		}
	}
	bad := check(truncated)
	var dead int
	for _, f := range bad.Flags {
		if f.Kind == "dead-tile" {
			t.Logf("flagged: %s %s: %s", f.Tile, f.App, f.Detail)
			dead++
		}
	}
	// mesh256 scatters one app per row; rows 4..15 live on tiles >= 64.
	if dead < 10 {
		t.Fatalf("oracle found %d dead tiles, want >= 10 (flags: %+v)", dead, bad.Flags)
	}
	if bad.InBand() {
		t.Error("truncated summary still reports InBand")
	}
}
