package exp

import (
	"fmt"

	"nocmem/internal/config"
	"nocmem/internal/sim"
	"nocmem/internal/stats"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// Substrate is one machine of a normalized-speedup table: its schemes-off
// run is the base, its alone IPCs are the denominators of every weighted
// speedup taken on it, and Variants are the configurations whose weighted
// speedups are normalized to the base.
type Substrate struct {
	Cfg      config.Config
	Variants []config.Config
}

// Run is one simulation of a Plan, as Runner.RunConfig takes it: a Table 2
// workload (Workload is its id) or, with Workload 0, one application alone.
type Run struct {
	Cfg      config.Config
	Apps     []trace.Profile
	Label    string
	Workload int
}

// cell is what one (workload, substrate) pair reads, as indices into Runs.
type cell struct {
	base     int
	variants []int
	alone    map[string]int // application name -> its alone run
}

// Plan lists every run a normalized-speedup table reads exactly once and
// which of them each cell reads. Every such table of the repository (Figures
// 11, 15, 16, 17, each cmd/sweep mode) is NewPlan, Runs executed once each
// by any executor, Rows over their summaries.
type Plan struct {
	Runs  []Run
	cells [][]cell // per workload, per substrate
}

// NewPlan lists the runs of subs x ws with configs as given: per pair the
// substrate's schemes-off base, each variant and one alone run per distinct
// application, deduplicated by RunKey — variants of one machine share its
// base and alone runs, equal configurations collapse to one run.
func NewPlan(subs []Substrate, ws []workload.Workload) (*Plan, error) {
	p := &Plan{cells: make([][]cell, len(ws))}
	seen := map[string]int{}
	add := func(r Run) int {
		key := RunKey(r.Cfg, r.Label)
		if _, ok := seen[key]; !ok {
			seen[key] = len(p.Runs)
			p.Runs = append(p.Runs, r)
		}
		return seen[key]
	}
	for wi, w := range ws {
		apps, err := w.Profiles()
		if err != nil {
			return nil, err
		}
		for _, s := range subs {
			off := s.Cfg.WithSchemes(false, false)
			c := cell{base: add(Run{off, apps, w.Name(), w.ID}), alone: map[string]int{}}
			for _, v := range s.Variants {
				c.variants = append(c.variants, add(Run{v, apps, w.Name(), w.ID}))
			}
			for _, a := range apps {
				if _, ok := c.alone[a.Name]; !ok && a.Name != "" {
					c.alone[a.Name] = add(Run{Cfg: off, Apps: []trace.Profile{a}, Label: aloneLabel(a)})
				}
			}
			p.cells[wi] = append(p.cells[wi], c)
		}
	}
	return p, nil
}

// NormRow is one workload's row of a plan's table.
type NormRow struct {
	Base    []float64 // weighted speedup of each substrate's base run
	WS      []float64 // weighted speedup of each variant, parallel to Norm
	Norm    []float64 // every variant over its substrate's base, substrates in order
	Variant []int     // the Runs index behind each Norm entry
}

// Rows computes the table from the summaries of Runs, in Runs order. They
// may come from another process, so a missing or empty one is an error naming
// its run, never a NaN row.
func (p *Plan) Rows(sums []sim.Summary) ([]NormRow, error) {
	if len(sums) < len(p.Runs) {
		return nil, fmt.Errorf("exp: %d summaries for %d runs: none for %s", len(sums), len(p.Runs), p.Runs[len(sums)].Label)
	}
	rows := make([]NormRow, len(p.cells))
	for wi, cells := range p.cells {
		row := &rows[wi]
		for _, c := range cells {
			base, err := p.weighted(sums, c, c.base)
			if err != nil {
				return nil, err
			}
			row.Base = append(row.Base, base)
			for _, v := range c.variants {
				scheme, err := p.weighted(sums, c, v)
				if err != nil {
					return nil, err
				}
				norm, err := stats.NormalizedSpeedup(scheme, base)
				if err != nil {
					return nil, fmt.Errorf("exp: %s under the base configuration: %w", p.Runs[c.base].Label, err)
				}
				row.WS, row.Norm, row.Variant = append(row.WS, scheme), append(row.Norm, norm), append(row.Variant, v)
			}
		}
	}
	return rows, nil
}

// weighted is the weighted speedup (Section 4.1) of one shared run of cell c:
// each application's IPC, in the summary's active-tile order, over the IPC of
// its alone run on the cell's substrate.
func (p *Plan) weighted(sums []sim.Summary, c cell, run int) (float64, error) {
	var shared, alone []float64
	for _, a := range sums[run].Apps {
		i, ok := c.alone[a.App]
		if !ok {
			return 0, fmt.Errorf("exp: %s ran %s, which its plan lists no alone run for", p.Runs[run].Label, a.App)
		}
		if len(sums[i].Apps) == 0 || sums[i].Apps[0].IPC <= 0 {
			return 0, fmt.Errorf("exp: the summary of %s holds no positive IPC", p.Runs[i].Label)
		}
		shared, alone = append(shared, a.IPC), append(alone, sums[i].Apps[0].IPC)
	}
	return stats.WeightedSpeedup(shared, alone)
}
