// Package exp regenerates every table and figure of the paper's evaluation
// (Section 4). Each Fig*/Table* function runs the simulations it needs
// (sharing runs and alone-IPC measurements through an in-process cache) and
// writes the same rows/series the paper plots as tab-separated text; Figures
// is the ordered table of all of them with the paper's own parameters.
package exp

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"nocmem/internal/config"
	"nocmem/internal/sim"
	"nocmem/internal/stats"
	"nocmem/internal/workload"
)

// Figure is one experiment of the paper's evaluation, bound to the paper's
// parameters: Run renders it on r (tables ignore the runner).
type Figure struct {
	ID  string
	Run func(r *Runner, w io.Writer) error
}

// Figures returns every experiment in the paper's order. cmd/figures, the
// golden and smoke tests and the root benchmarks all iterate this table, so
// an experiment added here is dispatched, byte-checked and timed with no
// other edit.
func Figures() []Figure {
	cfg := config.Baseline32()
	var all []int
	for _, wl := range workload.All() {
		all = append(all, wl.ID)
	}
	on := func(fig func(*Runner, io.Writer, config.Config) error) func(*Runner, io.Writer) error {
		return func(r *Runner, w io.Writer) error { return fig(r, w, cfg) }
	}
	return []Figure{
		{"table1", func(_ *Runner, w io.Writer) error { Table1(w, cfg); return nil }},
		{"table2", func(_ *Runner, w io.Writer) error { Table2(w); return nil }},
		{"fig4", on((*Runner).Fig4)},
		{"fig5", on((*Runner).Fig5)},
		{"fig6", on((*Runner).Fig6)},
		{"fig9", on((*Runner).Fig9)},
		{"fig11", func(r *Runner, w io.Writer) error { return r.Fig11(w, cfg, all) }},
		{"fig12", on((*Runner).Fig12)},
		{"fig13", on((*Runner).Fig13)},
		{"fig14", on((*Runner).Fig14)},
		{"fig15", func(r *Runner, w io.Writer) error { return r.Fig15(w, all) }},
		{"fig16a", func(r *Runner, w io.Writer) error { return r.Fig16a(w, cfg, []float64{1.0, 1.2, 1.4}) }},
		{"fig16b", func(r *Runner, w io.Writer) error { return r.Fig16b(w, cfg, []int64{1000, 2000, 4000}) }},
		{"fig16c", on((*Runner).Fig16c)},
		{"fig17", on((*Runner).Fig17)},
	}
}

// normalized measures every variant of every substrate on every workload
// (the core of Figures 11, 15, 16 and 17) under the runner's Options: it
// plans the table, executes each listed run once on the worker pool and
// computes the rows from the runs' summaries. Which goroutine ran what
// cannot reach the rows: they are a function of the summaries alone.
func (r *Runner) normalized(subs []Substrate, ws []workload.Workload) ([]NormRow, error) {
	p, err := NewPlan(subs, ws)
	if err != nil {
		return nil, err
	}
	sums := make([]sim.Summary, len(p.Runs))
	err = r.each(len(p.Runs), func(i int) error {
		run := p.Runs[i]
		res, err := r.RunConfig(r.opts.apply(run.Cfg), run.Apps, run.Label)
		if err != nil {
			return err
		}
		sums[i] = res.Summary()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p.Rows(sums)
}

// SpeedupRow is one workload's Figure 11 data point.
type SpeedupRow struct {
	Workload workload.Workload
	Base     float64
	NormS1   float64
	NormS1S2 float64
}

// Speedups measures the normalized weighted speedups of the given workloads
// under a configuration: Scheme-1 alone and Scheme-1+2 over cfg's
// schemes-off run (Figures 11 and 15).
func (r *Runner) Speedups(cfg config.Config, ws []workload.Workload) ([]SpeedupRow, error) {
	norm, err := r.normalized([]Substrate{{cfg, []config.Config{
		cfg.WithSchemes(true, false), cfg.WithSchemes(true, true)}}}, ws)
	if err != nil {
		return nil, err
	}
	rows := make([]SpeedupRow, len(ws))
	for i, n := range norm {
		rows[i] = SpeedupRow{Workload: ws[i], Base: n.Base[0], NormS1: n.Norm[0], NormS1S2: n.Norm[1]}
	}
	return rows, nil
}

// SchemeRuns is one workload's Figure 11 data point on a caller's machine,
// with the three shared runs kept for deeper inspection (latency CDFs, bank
// idleness, the tagged return path, what the stepper elided).
type SchemeRuns struct {
	Workload workload.Workload

	BaseWS, S1WS, S1S2WS float64

	// NormS1 and NormS1S2 are normalized to the unprioritized base.
	NormS1, NormS1S2 float64

	Base, S1, S1S2 *sim.Result
}

// SpeedupFor runs w on cfg as given (no Options defaults) under the base,
// Scheme-1 and Scheme-1+2, and computes the three weighted speedups and the
// two normalized ones from the plan of that one-cell table. The shared runs
// bypass the run cache (see Execute: a halved workload keeps its parent's
// name); the alone runs are cached like AloneIPC's.
func (r *Runner) SpeedupFor(cfg config.Config, w workload.Workload) (SchemeRuns, error) {
	row := SchemeRuns{Workload: w}
	p, err := NewPlan([]Substrate{{cfg, []config.Config{
		cfg.WithSchemes(true, false), cfg.WithSchemes(true, true)}}}, []workload.Workload{w})
	if err != nil {
		return row, err
	}
	c := p.cells[0][0]
	res := make([]*sim.Result, len(p.Runs))
	sums := make([]sim.Summary, len(p.Runs))
	err = r.each(len(p.Runs), func(i int) (err error) {
		run := p.Runs[i]
		if i == c.base || slices.Contains(c.variants, i) {
			res[i], err = r.Execute(run.Cfg, run.Apps, run.Label)
		} else {
			res[i], err = r.RunConfig(run.Cfg, run.Apps, run.Label)
		}
		if err == nil {
			sums[i] = res[i].Summary()
		}
		return err
	})
	if err != nil {
		return row, err
	}
	rows, err := p.Rows(sums)
	if err != nil {
		return row, err
	}
	n := rows[0]
	row.BaseWS, row.S1WS, row.S1S2WS = n.Base[0], n.WS[0], n.WS[1]
	row.NormS1, row.NormS1S2 = n.Norm[0], n.Norm[1]
	row.Base, row.S1, row.S1S2 = res[c.base], res[n.Variant[0]], res[n.Variant[1]]
	return row, nil
}

// results runs (or recalls, or waits for) Table 2 workload id under each
// configuration, with the runner's Options, on the worker pool.
func (r *Runner) results(id int, cfgs ...config.Config) ([]*sim.Result, error) {
	wl, err := workload.Get(id)
	if err != nil {
		return nil, err
	}
	apps, err := wl.Profiles()
	if err != nil {
		return nil, err
	}
	out := make([]*sim.Result, len(cfgs))
	err = r.each(len(cfgs), func(i int) (err error) {
		out[i], err = r.RunConfig(r.opts.apply(cfgs[i]), apps, wl.Name())
		return err
	})
	return out, err
}

// milc returns the base-system run of workload-2 and the tile of its first
// milc instance, the subject of Figures 4, 5 and 9.
func (r *Runner) milc(cfg config.Config) (*sim.Result, int, error) {
	res, err := r.results(2, cfg.WithSchemes(false, false))
	if err != nil {
		return nil, 0, err
	}
	tile, err := findApp(res[0], "milc")
	return res[0], tile, err
}

// findApp returns the first tile of the run executing the named application.
func findApp(res *sim.Result, name string) (int, error) {
	for _, tile := range res.ActiveTiles() {
		if res.Apps[tile].Name == name {
			return tile, nil
		}
	}
	return 0, fmt.Errorf("exp: no tile runs %s", name)
}

// Table1 prints the baseline configuration.
func Table1(w io.Writer, cfg config.Config) {
	fmt.Fprintf(w, "# Table 1: baseline configuration\n")
	fmt.Fprintf(w, "Processors\t%d out-of-order cores, window %d, LSQ %d, width %d\n",
		cfg.Mesh.Nodes(), cfg.CPU.WindowSize, cfg.CPU.LSQSize, cfg.CPU.Width)
	fmt.Fprintf(w, "NoC\t%dx%d mesh, %d-stage routers, %d-bit flits, %d VCs/port, %d-flit buffers, X-Y routing\n",
		cfg.Mesh.Width, cfg.Mesh.Height, cfg.NoC.Pipeline, cfg.NoC.FlitBits, cfg.NoC.VCsPerPort, cfg.NoC.BufferDepth)
	fmt.Fprintf(w, "L1\t%d KB direct-mapped, %d B lines, %d-cycle\n",
		cfg.L1.SizeBytes>>10, cfg.L1.LineBytes, cfg.L1.Latency)
	fmt.Fprintf(w, "L2\t%d banks x %d KB, %d-way, %d-cycle, S-NUCA line interleaving\n",
		cfg.Mesh.Nodes(), cfg.L2.SizeBytes>>10, cfg.L2.Ways, cfg.L2.Latency)
	fmt.Fprintf(w, "Memory\t%d controllers x %d banks, bus multiplier %d, tRCD/tRP/tCL %d/%d/%d, burst %d, ctl latency %d, %d B rows\n",
		cfg.DRAM.Controllers, cfg.DRAM.BanksPerCtl, cfg.DRAM.BusMultiplier,
		cfg.DRAM.TActivate, cfg.DRAM.TPrecharge, cfg.DRAM.TCAS, cfg.DRAM.TBurst, cfg.DRAM.CtlLatency, cfg.DRAM.RowBytes)
	fmt.Fprintf(w, "Schemes\tS1 threshold %.1fx avg (push every %d cycles), S2 T=%d th=%d, starvation window %d\n",
		cfg.S1.ThresholdFactor, cfg.S1.UpdatePeriod, cfg.S2.HistoryWindow, cfg.S2.IdleThreshold, cfg.NoC.StarvationWindow)
}

// Table2 prints the 18 workloads.
func Table2(w io.Writer) {
	fmt.Fprintf(w, "# Table 2: multiprogrammed workloads\n")
	for _, wl := range workload.All() {
		fmt.Fprintf(w, "%s\t%s\t", wl.Name(), wl.Category)
		for i, a := range wl.Apps {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s(%d)", a.Name, a.Count)
		}
		fmt.Fprintln(w)
	}
}

// Fig4 prints the per-leg delay breakdown by total-delay range for the first
// milc instance in workload-2 (base system).
func (r *Runner) Fig4(w io.Writer, cfg config.Config) error {
	res, tile, err := r.milc(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Fig 4: avg per-leg delays of off-chip accesses by total-delay range (milc, workload-2)\n")
	fmt.Fprintf(w, "range_lo\trange_hi\tcount\tL1toL2\tL2toMem\tMem\tMemtoL2\tL2toL1\n")
	for _, row := range res.Collector.Breakdown[tile].Rows() {
		fmt.Fprintf(w, "%d\t%d\t%d", row.Lo, row.Hi, row.Count)
		for l := stats.Leg(0); l < stats.NumLegs; l++ {
			fmt.Fprintf(w, "\t%.1f", row.Avg[l])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig5 prints the latency distribution of the same milc instance.
func (r *Runner) Fig5(w io.Writer, cfg config.Config) error {
	res, tile, err := r.milc(cfg)
	if err != nil {
		return err
	}
	h := res.Collector.RoundTrip[tile]
	fmt.Fprintf(w, "# Fig 5: off-chip latency distribution (milc, workload-2); mean=%.0f p90=%d p99=%d\n",
		h.Mean(), h.Percentile(90), h.Percentile(99))
	fmt.Fprintf(w, "delay\tfraction\n")
	for _, p := range h.PDF() {
		if p.Y > 0 {
			fmt.Fprintf(w, "%d\t%.5f\n", p.X, p.Y)
		}
	}
	return nil
}

// Fig6 prints the average idleness of the banks of the first memory
// controller under workload-1 (base system).
func (r *Runner) Fig6(w io.Writer, cfg config.Config) error {
	res, err := r.results(1, cfg.WithSchemes(false, false))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Fig 6: average idleness of MC0 banks (workload-1, base)\n")
	fmt.Fprintf(w, "bank\tidleness\n")
	for b, v := range res[0].BankIdleness[0] {
		fmt.Fprintf(w, "%d\t%.3f\n", b, v)
	}
	return nil
}

// Fig9 prints the round-trip and so-far delay distributions with the
// averages and the Scheme-1 threshold marked (milc, workload-2).
func (r *Runner) Fig9(w io.Writer, cfg config.Config) error {
	res, tile, err := r.milc(cfg)
	if err != nil {
		return err
	}
	rt, sf := res.Collector.RoundTrip[tile], res.Collector.SoFar[tile]
	fmt.Fprintf(w, "# Fig 9: round-trip vs so-far delay distributions (milc, workload-2)\n")
	fmt.Fprintf(w, "# Delay_avg=%.0f Delay_so_far_avg=%.0f threshold(1.2x)=%.0f\n",
		rt.Mean(), sf.Mean(), 1.2*rt.Mean())
	fmt.Fprintf(w, "delay\tround_trip\tso_far\n")
	pdfRT, pdfSF := rt.PDF(), sf.PDF()
	for i := range pdfRT {
		if pdfRT[i].Y == 0 && pdfSF[i].Y == 0 {
			continue
		}
		fmt.Fprintf(w, "%d\t%.5f\t%.5f\n", pdfRT[i].X, pdfRT[i].Y, pdfSF[i].Y)
	}
	return nil
}

// workloads resolves Table 2 ids.
func workloads(ids []int) ([]workload.Workload, error) {
	wls := make([]workload.Workload, len(ids))
	for i, id := range ids {
		var err error
		if wls[i], err = workload.Get(id); err != nil {
			return nil, err
		}
	}
	return wls, nil
}

// printSpeedups measures wls under cfg and prints Figure 11/15's header and
// one row per workload.
func (r *Runner) printSpeedups(w io.Writer, title string, cfg config.Config, wls []workload.Workload) ([]SpeedupRow, error) {
	rows, err := r.Speedups(cfg, wls)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "workload\tcategory\tbase_ws\tscheme1\tscheme1+2\n")
	for _, row := range rows {
		fmt.Fprintf(w, "w-%d\t%s\t%.3f\t%.4f\t%.4f\n",
			row.Workload.ID, row.Workload.Category, row.Base, row.NormS1, row.NormS1S2)
	}
	return rows, nil
}

// Fig11 prints the normalized weighted speedups of all 18 workloads on the
// 32-core system (Scheme-1 alone and Scheme-1+2), then the category averages.
func (r *Runner) Fig11(w io.Writer, cfg config.Config, ids []int) error {
	wls, err := workloads(ids)
	if err != nil {
		return err
	}
	rows, err := r.printSpeedups(w, fmt.Sprintf("Fig 11: normalized weighted speedup, %d-core system", cfg.Mesh.Nodes()), cfg, wls)
	if err != nil {
		return err
	}
	sums := map[workload.Category][3]float64{}
	counts := map[workload.Category]int{}
	for _, row := range rows {
		s := sums[row.Workload.Category]
		s[0] += row.Base
		s[1] += row.NormS1
		s[2] += row.NormS1S2
		sums[row.Workload.Category] = s
		counts[row.Workload.Category]++
	}
	cats := make([]workload.Category, 0, len(sums))
	for c := range sums {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, c := range cats {
		n := float64(counts[c])
		s := sums[c]
		fmt.Fprintf(w, "avg:%s\t\t%.3f\t%.4f\t%.4f\n", c, s[0]/n, s[1]/n, s[2]/n)
	}
	return nil
}

// Fig12 prints the CDFs of the first 8 applications of workload-1 under the
// base system and under Scheme-1, plus the lbm PDF shift (regions 1/2).
func (r *Runner) Fig12(w io.Writer, cfg config.Config) error {
	res, err := r.results(1, cfg.WithSchemes(false, false), cfg.WithSchemes(true, false))
	if err != nil {
		return err
	}
	base, s1 := res[0], res[1]
	tiles := base.ActiveTiles()[:8]
	fmt.Fprintf(w, "# Fig 12a/b: off-chip latency CDFs of the first 8 applications of workload-1\n")
	fmt.Fprintf(w, "delay")
	for _, tile := range tiles {
		fmt.Fprintf(w, "\t%s.base\t%s.s1", base.Apps[tile].Name, base.Apps[tile].Name)
	}
	fmt.Fprintln(w)
	cdfs := make([][]stats.Point, 0, 2*len(tiles))
	for _, tile := range tiles {
		cdfs = append(cdfs, base.Collector.RoundTrip[tile].CDF(), s1.Collector.RoundTrip[tile].CDF())
	}
	for i := range cdfs[0] {
		done := true
		for _, c := range cdfs {
			if c[i].Y < 1 {
				done = false
			}
		}
		fmt.Fprintf(w, "%d", cdfs[0][i].X)
		for _, c := range cdfs {
			fmt.Fprintf(w, "\t%.4f", c[i].Y)
		}
		fmt.Fprintln(w)
		if done {
			break
		}
	}

	// The p90 shift the paper highlights, averaged over the 8 apps.
	var p90b, p90s float64
	for _, tile := range tiles {
		p90b += float64(base.Collector.RoundTrip[tile].Percentile(90)) / float64(len(tiles))
		p90s += float64(s1.Collector.RoundTrip[tile].Percentile(90)) / float64(len(tiles))
	}
	fmt.Fprintf(w, "# avg p90: base=%.0f scheme1=%.0f\n", p90b, p90s)

	lbm, err := findApp(base, "lbm")
	if err != nil {
		return err
	}
	hb, hs := base.Collector.RoundTrip[lbm], s1.Collector.RoundTrip[lbm]
	fmt.Fprintf(w, "# Fig 12c: lbm latency PDF before/after Scheme-1; region boundary = 1.2x base mean = %.0f\n", 1.2*hb.Mean())
	fmt.Fprintf(w, "# fraction in region-1 (late): base=%.4f scheme1=%.4f\n",
		hb.FractionAbove(int64(1.2*hb.Mean())), hs.FractionAbove(int64(1.2*hb.Mean())))
	fmt.Fprintf(w, "delay\tbase\tscheme1\n")
	pb, ps := hb.PDF(), hs.PDF()
	for i := range pb {
		if pb[i].Y == 0 && ps[i].Y == 0 {
			continue
		}
		fmt.Fprintf(w, "%d\t%.5f\t%.5f\n", pb[i].X, pb[i].Y, ps[i].Y)
	}
	return nil
}

// Fig13 prints per-bank idleness with and without Scheme-2 (workload-1).
func (r *Runner) Fig13(w io.Writer, cfg config.Config) error {
	res, err := r.results(1, cfg.WithSchemes(false, false), cfg.WithSchemes(false, true))
	if err != nil {
		return err
	}
	base, s2 := res[0], res[1]
	fmt.Fprintf(w, "# Fig 13: MC0 bank idleness, default vs Scheme-2 (workload-1)\n")
	fmt.Fprintf(w, "bank\tdefault\tscheme2\n")
	for b := range base.BankIdleness[0] {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\n", b, base.BankIdleness[0][b], s2.BankIdleness[0][b])
	}
	return nil
}

// Fig14 prints average bank idleness over time, default vs Scheme-2.
func (r *Runner) Fig14(w io.Writer, cfg config.Config) error {
	res, err := r.results(1, cfg.WithSchemes(false, false), cfg.WithSchemes(false, true))
	if err != nil {
		return err
	}
	avgAt := func(res *sim.Result) map[int64]float64 {
		sum := map[int64]float64{}
		n := map[int64]int{}
		for _, series := range res.IdleSeries {
			for _, p := range series.Points() {
				sum[p.Cycle] += p.Avg
				n[p.Cycle]++
			}
		}
		for k := range sum {
			sum[k] /= float64(n[k])
		}
		return sum
	}
	b, s := avgAt(res[0]), avgAt(res[1])
	var cycles []int64
	for c := range b {
		cycles = append(cycles, c)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	fmt.Fprintf(w, "# Fig 14: average bank idleness over time (workload-1)\n")
	fmt.Fprintf(w, "cycle\tdefault\tscheme2\n")
	for _, c := range cycles {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\n", c, b[c], s[c])
	}
	return nil
}

// Fig15 prints the 16-core speedups (halved workloads, 4x4 mesh, 2 MCs).
func (r *Runner) Fig15(w io.Writer, ids []int) error {
	wls, err := workloads(ids)
	if err != nil {
		return err
	}
	for i := range wls {
		if wls[i], err = wls[i].Halve(); err != nil {
			return err
		}
	}
	_, err = r.printSpeedups(w, "Fig 15: normalized weighted speedup, 16-core 4x4 system, halved workloads", config.Baseline16(), wls)
	return err
}

// sensitivity prints one row per mixed workload (1-6) holding every variant's
// normalized weighted speedup, one column per variant across subs.
func (r *Runner) sensitivity(w io.Writer, title string, cols []string, subs ...Substrate) error {
	wls, err := workloads([]int{1, 2, 3, 4, 5, 6})
	if err != nil {
		return err
	}
	rows, err := r.normalized(subs, wls)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s\n", title)
	fmt.Fprintf(w, "workload\t%s\n", strings.Join(cols, "\t"))
	for i, row := range rows {
		fmt.Fprintf(w, "w-%d", wls[i].ID)
		for _, v := range row.Norm {
			fmt.Fprintf(w, "\t%.4f", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig16a prints the Scheme-1 threshold sensitivity (workloads 1-6).
func (r *Runner) Fig16a(w io.Writer, cfg config.Config, factors []float64) error {
	sub := Substrate{Cfg: cfg}
	var cols []string
	for _, f := range factors {
		c := cfg.WithSchemes(true, false)
		c.S1.ThresholdFactor = f
		sub.Variants = append(sub.Variants, c)
		cols = append(cols, fmt.Sprintf("%.1fx", f))
	}
	return r.sensitivity(w, "Fig 16a: Scheme-1 threshold sensitivity (mixed workloads)", cols, sub)
}

// Fig16b prints the Scheme-2 history-length sensitivity (workloads 1-6).
func (r *Runner) Fig16b(w io.Writer, cfg config.Config, windows []int64) error {
	sub := Substrate{Cfg: cfg}
	var cols []string
	for _, T := range windows {
		c := cfg.WithSchemes(true, true)
		c.S2.HistoryWindow = T
		sub.Variants = append(sub.Variants, c)
		cols = append(cols, fmt.Sprintf("T=%d", T))
	}
	return r.sensitivity(w, "Fig 16b: Scheme-2 history length T sensitivity (mixed workloads)", cols, sub)
}

// bothSchemes is the single-variant substrate of Figures 16c and 17:
// Scheme-1+2 on machine c over c's own base and alone IPCs.
func bothSchemes(c config.Config) Substrate {
	return Substrate{c, []config.Config{c.WithSchemes(true, true)}}
}

// Fig16c prints the sensitivity to the number of memory controllers.
func (r *Runner) Fig16c(w io.Writer, cfg config.Config) error {
	mc2, mc4 := cfg, cfg
	mc2.DRAM.Controllers, mc4.DRAM.Controllers = 2, 4
	return r.sensitivity(w, "Fig 16c: 2 vs 4 memory controllers, Scheme-1+2 (mixed workloads)",
		[]string{"2mc", "4mc"}, bothSchemes(mc2), bothSchemes(mc4))
}

// Fig17 prints the router-pipeline sensitivity (5-stage vs 2-stage).
func (r *Runner) Fig17(w io.Writer, cfg config.Config) error {
	p5, p2 := cfg, cfg
	p5.NoC.Pipeline, p2.NoC.Pipeline = config.Pipeline5, config.Pipeline2
	return r.sensitivity(w, "Fig 17: 5-stage vs 2-stage router pipelines, Scheme-1+2 (mixed workloads)",
		[]string{"5stage", "2stage"}, bothSchemes(p5), bothSchemes(p2))
}
