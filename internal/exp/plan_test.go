package exp

import (
	"strings"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/sim"
	"nocmem/internal/workload"
)

// distinctApps counts the applications of a Table 2 workload by name.
func distinctApps(t *testing.T, id int) (workload.Workload, int) {
	t.Helper()
	w, err := workload.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return w, len(w.Apps)
}

func plan(t *testing.T, subs []Substrate, ws ...workload.Workload) *Plan {
	t.Helper()
	p, err := NewPlan(subs, ws)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fakeSums answers every run of p: shared IPC 0.5 per tile (0.25 under
// Scheme-1), alone IPC 1.
func fakeSums(t *testing.T, p *Plan) []sim.Summary {
	t.Helper()
	sums := make([]sim.Summary, len(p.Runs))
	for i, r := range p.Runs {
		ipc := 0.5
		if r.Workload == 0 {
			ipc = 1
		} else if r.Cfg.S1.Enabled {
			ipc = 0.25
		}
		for _, a := range r.Apps {
			sums[i].Apps = append(sums[i].Apps, sim.AppSummary{App: a.Name, IPC: ipc})
		}
	}
	return sums
}

// TestPlanSharesOneSubstrate: Fig. 16a's three thresholds are variants of one
// machine — one base, one alone run per distinct application, and workload
// 7's repeated applications (mcf x3, lbm x2, ...) listed once.
func TestPlanSharesOneSubstrate(t *testing.T) {
	cfg := config.Baseline32()
	sub := Substrate{Cfg: cfg}
	for _, f := range []float64{1.0, 1.2, 1.4} {
		c := cfg.WithSchemes(true, false)
		c.S1.ThresholdFactor = f
		sub.Variants = append(sub.Variants, c)
	}
	w, apps := distinctApps(t, 7)
	if w.Size() == apps {
		t.Fatalf("%s repeats no application", w.Name())
	}
	p := plan(t, []Substrate{sub}, w)
	if got, want := len(p.Runs), 3+1+apps; got != want {
		t.Fatalf("%d runs, want %d (3 variants, 1 base, %d alone)", got, want, apps)
	}
	keys := map[string]bool{}
	for _, r := range p.Runs {
		keys[RunKey(r.Cfg, r.Label)] = true
	}
	if len(keys) != len(p.Runs) {
		t.Errorf("%d distinct keys among %d runs", len(keys), len(p.Runs))
	}
	rows, err := p.Rows(fakeSums(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.5 * float64(w.Size()); len(rows) != 1 || len(rows[0].Base) != 1 || rows[0].Base[0] != want {
		t.Errorf("rows %+v, want one base WS of %v", rows, want)
	}
	for i, n := range rows[0].Norm {
		if n != 0.5 || p.Runs[rows[0].Variant[i]].Cfg.S1.ThresholdFactor != sub.Variants[i].S1.ThresholdFactor {
			t.Errorf("variant %d: norm %v read from run %d", i, n, rows[0].Variant[i])
		}
	}
}

// TestPlanSeparatesSubstrates: Fig. 16c's 2-MC and 4-MC machines share no
// run — each has its own base and its own alone set.
func TestPlanSeparatesSubstrates(t *testing.T) {
	mc2, mc4 := config.Baseline32(), config.Baseline32()
	mc2.DRAM.Controllers, mc4.DRAM.Controllers = 2, 4
	w, apps := distinctApps(t, 1)
	p := plan(t, []Substrate{bothSchemes(mc2), bothSchemes(mc4)}, w)
	if got, want := len(p.Runs), 2*(1+1+apps); got != want {
		t.Errorf("%d runs, want %d", got, want)
	}
	rows, err := p.Rows(fakeSums(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0].Base) != 2 || len(rows[0].Norm) != 2 || rows[0].Variant[0] == rows[0].Variant[1] {
		t.Errorf("row %+v", rows[0])
	}
}

// TestPlanCollapsesEqualVariants: two cells of equal configuration read one
// run, and a second workload adds only the alone runs it does not share.
func TestPlanCollapsesEqualVariants(t *testing.T) {
	cfg := config.Baseline32()
	s12 := cfg.WithSchemes(true, true)
	w, apps := distinctApps(t, 13)
	p := plan(t, []Substrate{{cfg, []config.Config{s12, s12}}}, w)
	if got, want := len(p.Runs), 1+1+apps; got != want {
		t.Errorf("%d runs, want %d", got, want)
	}
	rows, err := p.Rows(fakeSums(t, p))
	if err != nil {
		t.Fatal(err)
	}
	if v := rows[0].Variant; len(v) != 2 || v[0] != v[1] || rows[0].Norm[0] != rows[0].Norm[1] {
		t.Errorf("row %+v: want two cells reading one run", rows[0])
	}
	if again := plan(t, []Substrate{{cfg, []config.Config{s12}}}, w, w); len(again.Runs) != len(p.Runs) {
		t.Errorf("the same workload twice plans %d runs, once %d", len(again.Runs), len(p.Runs))
	}
}

// TestRowsRejectIncompleteSummaries: what an executor hands back is checked
// before it is divided by.
func TestRowsRejectIncompleteSummaries(t *testing.T) {
	w, _ := distinctApps(t, 1)
	p := plan(t, []Substrate{bothSchemes(config.Baseline32())}, w)
	alone := -1
	for i, r := range p.Runs {
		if r.Workload == 0 {
			alone = i
			break
		}
	}
	for name, c := range map[string]struct {
		damage func([]sim.Summary) []sim.Summary
		want   string
	}{
		"short slice": {func(s []sim.Summary) []sim.Summary { return s[:len(s)-1] }, p.Runs[len(p.Runs)-1].Label},
		"empty alone": {func(s []sim.Summary) []sim.Summary { s[alone].Apps = nil; return s }, p.Runs[alone].Label},
		"zero alone":  {func(s []sim.Summary) []sim.Summary { s[alone].Apps[0].IPC = 0; return s }, p.Runs[alone].Label},
		"empty base":  {func(s []sim.Summary) []sim.Summary { s[0] = sim.Summary{}; return s }, w.Name()},
		"stranger": {func(s []sim.Summary) []sim.Summary {
			s[0].Apps = append(s[0].Apps, sim.AppSummary{App: "nope", IPC: 1})
			return s
		}, "nope"},
	} {
		rows, err := p.Rows(c.damage(fakeSums(t, p)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: rows %+v, error %v, want one naming %q", name, rows, err, c.want)
		}
	}
}
