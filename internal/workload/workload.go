// Package workload encodes Table 2 of the paper: the 18 multiprogrammed
// SPEC CPU2006 workloads used in the 32-core experiments, grouped into
// mixed (w1-w6), memory-intensive (w7-w12) and memory-non-intensive
// (w13-w18) categories, plus the halving rule used for the 16-core system.
package workload

import (
	"fmt"

	"nocmem/internal/trace"
)

// Category is a workload's memory-intensity class.
type Category int

const (
	Mixed Category = iota
	MemIntensive
	MemNonIntensive
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case Mixed:
		return "mixed"
	case MemIntensive:
		return "mem-intensive"
	case MemNonIntensive:
		return "mem-non-intensive"
	}
	return "unknown"
}

// AppCount is one application and its number of copies in a workload.
type AppCount struct {
	Name  string
	Count int
}

// Workload is one multiprogrammed mix.
type Workload struct {
	ID       int // 1-based, as in Table 2
	Category Category
	Apps     []AppCount
}

// Name returns the paper's workload label, e.g. "workload-7".
func (w Workload) Name() string { return fmt.Sprintf("workload-%d", w.ID) }

// Size returns the total number of application copies.
func (w Workload) Size() int {
	n := 0
	for _, a := range w.Apps {
		n += a.Count
	}
	return n
}

// Profiles expands the workload into per-core profiles in table order.
func (w Workload) Profiles() ([]trace.Profile, error) {
	out := make([]trace.Profile, 0, w.Size())
	for _, a := range w.Apps {
		p, err := trace.Lookup(a.Name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name(), err)
		}
		for i := 0; i < a.Count; i++ {
			out = append(out, p)
		}
	}
	return out, nil
}

// Halve returns the 16-core variant of Section 4.2: the first half of the
// applications; for mixed workloads, the first half of the memory-intensive
// and the first half of the memory-non-intensive applications.
func (w Workload) Halve() (Workload, error) {
	ps, err := w.Profiles()
	if err != nil {
		return Workload{}, err
	}
	target := len(ps) / 2
	var picked []trace.Profile
	if w.Category == Mixed {
		var intensive, rest []trace.Profile
		for _, p := range ps {
			if p.MemoryIntensive() {
				intensive = append(intensive, p)
			} else {
				rest = append(rest, p)
			}
		}
		picked = append(picked, firstN(intensive, target/2)...)
		picked = append(picked, firstN(rest, target-target/2)...)
	} else {
		picked = firstN(ps, target)
	}
	half := Workload{ID: w.ID, Category: w.Category}
	for _, p := range picked {
		if n := len(half.Apps); n > 0 && half.Apps[n-1].Name == p.Name {
			half.Apps[n-1].Count++
		} else {
			half.Apps = append(half.Apps, AppCount{Name: p.Name, Count: 1})
		}
	}
	return half, nil
}

func firstN(ps []trace.Profile, n int) []trace.Profile {
	if n > len(ps) {
		n = len(ps)
	}
	return ps[:n]
}

// table2 is the verbatim content of Table 2.
var table2 = []Workload{
	{ID: 1, Category: Mixed, Apps: []AppCount{
		{"mcf", 3}, {"lbm", 2}, {"xalancbmk", 1}, {"milc", 2}, {"libquantum", 1}, {"leslie3d", 5},
		{"GemsFDTD", 1}, {"soplex", 1}, {"omnetpp", 2}, {"perlbench", 1}, {"astar", 1}, {"wrf", 1},
		{"tonto", 1}, {"sjeng", 1}, {"namd", 1}, {"hmmer", 1}, {"h264ref", 1}, {"gamess", 1},
		{"calculix", 1}, {"bzip2", 3}, {"bwaves", 1},
	}},
	{ID: 2, Category: Mixed, Apps: []AppCount{
		{"mcf", 4}, {"lbm", 2}, {"xalancbmk", 2}, {"milc", 3}, {"libquantum", 2}, {"GemsFDTD", 1},
		{"soplex", 2}, {"perlbench", 2}, {"astar", 3}, {"wrf", 3}, {"povray", 1}, {"namd", 3},
		{"hmmer", 1}, {"h264ref", 1}, {"gcc", 1}, {"dealII", 1},
	}},
	{ID: 3, Category: Mixed, Apps: []AppCount{
		{"mcf", 4}, {"lbm", 1}, {"milc", 2}, {"libquantum", 5}, {"leslie3d", 2}, {"sphinx3", 1},
		{"GemsFDTD", 1}, {"omnetpp", 1}, {"astar", 2}, {"zeusmp", 2}, {"wrf", 2}, {"tonto", 1},
		{"sjeng", 1}, {"h264ref", 1}, {"gobmk", 1}, {"gcc", 1}, {"gamess", 1}, {"dealII", 1},
		{"calculix", 1}, {"bwaves", 1},
	}},
	{ID: 4, Category: Mixed, Apps: []AppCount{
		{"mcf", 1}, {"lbm", 2}, {"xalancbmk", 3}, {"milc", 2}, {"leslie3d", 1}, {"sphinx3", 3},
		{"GemsFDTD", 1}, {"soplex", 3}, {"omnetpp", 1}, {"astar", 2}, {"zeusmp", 1}, {"wrf", 1},
		{"tonto", 1}, {"sjeng", 1}, {"h264ref", 2}, {"gcc", 1}, {"gamess", 3}, {"bzip2", 2},
		{"bwaves", 1},
	}},
	{ID: 5, Category: Mixed, Apps: []AppCount{
		{"mcf", 4}, {"lbm", 2}, {"xalancbmk", 3}, {"milc", 1}, {"leslie3d", 1}, {"sphinx3", 1},
		{"soplex", 4}, {"astar", 2}, {"zeusmp", 2}, {"wrf", 1}, {"sjeng", 1}, {"povray", 2},
		{"namd", 1}, {"hmmer", 1}, {"h264ref", 2}, {"gromacs", 1}, {"gcc", 1}, {"calculix", 1},
		{"bwaves", 1},
	}},
	{ID: 6, Category: Mixed, Apps: []AppCount{
		{"mcf", 2}, {"xalancbmk", 2}, {"milc", 1}, {"libquantum", 1}, {"leslie3d", 2}, {"sphinx3", 3},
		{"GemsFDTD", 3}, {"soplex", 2}, {"omnetpp", 1}, {"perlbench", 2}, {"wrf", 1}, {"tonto", 2},
		{"hmmer", 1}, {"gromacs", 1}, {"gobmk", 1}, {"gcc", 1}, {"gamess", 1}, {"dealII", 2},
		{"bzip2", 3},
	}},
	{ID: 7, Category: MemIntensive, Apps: []AppCount{
		{"mcf", 1}, {"lbm", 5}, {"xalancbmk", 5}, {"milc", 1}, {"libquantum", 5}, {"leslie3d", 4},
		{"sphinx3", 3}, {"GemsFDTD", 6}, {"soplex", 2},
	}},
	{ID: 8, Category: MemIntensive, Apps: []AppCount{
		{"mcf", 3}, {"lbm", 2}, {"xalancbmk", 4}, {"milc", 3}, {"libquantum", 8}, {"leslie3d", 3},
		{"sphinx3", 4}, {"GemsFDTD", 5},
	}},
	{ID: 9, Category: MemIntensive, Apps: []AppCount{
		{"mcf", 4}, {"lbm", 5}, {"xalancbmk", 4}, {"milc", 3}, {"libquantum", 4}, {"leslie3d", 2},
		{"sphinx3", 6}, {"GemsFDTD", 2}, {"soplex", 2},
	}},
	{ID: 10, Category: MemIntensive, Apps: []AppCount{
		{"mcf", 4}, {"lbm", 3}, {"xalancbmk", 3}, {"milc", 2}, {"libquantum", 4}, {"leslie3d", 3},
		{"sphinx3", 4}, {"GemsFDTD", 8}, {"soplex", 1},
	}},
	{ID: 11, Category: MemIntensive, Apps: []AppCount{
		{"mcf", 3}, {"lbm", 6}, {"xalancbmk", 2}, {"milc", 5}, {"libquantum", 1}, {"leslie3d", 2},
		{"sphinx3", 4}, {"GemsFDTD", 4}, {"soplex", 5},
	}},
	{ID: 12, Category: MemIntensive, Apps: []AppCount{
		{"mcf", 2}, {"lbm", 3}, {"xalancbmk", 3}, {"milc", 6}, {"libquantum", 5}, {"leslie3d", 4},
		{"sphinx3", 4}, {"GemsFDTD", 5},
	}},
	{ID: 13, Category: MemNonIntensive, Apps: []AppCount{
		{"perlbench", 1}, {"astar", 3}, {"zeusmp", 2}, {"wrf", 2}, {"sjeng", 3}, {"povray", 2},
		{"hmmer", 1}, {"gromacs", 2}, {"gcc", 1}, {"gamess", 2}, {"dealII", 2}, {"calculix", 5},
		{"bzip2", 2}, {"bwaves", 4},
	}},
	{ID: 14, Category: MemNonIntensive, Apps: []AppCount{
		{"omnetpp", 3}, {"perlbench", 1}, {"zeusmp", 2}, {"tonto", 1}, {"sjeng", 1}, {"povray", 2},
		{"namd", 2}, {"hmmer", 4}, {"h264ref", 3}, {"gromacs", 2}, {"gobmk", 3}, {"gamess", 3},
		{"bzip2", 1}, {"bwaves", 4},
	}},
	{ID: 15, Category: MemNonIntensive, Apps: []AppCount{
		{"omnetpp", 2}, {"perlbench", 2}, {"astar", 1}, {"zeusmp", 3}, {"sjeng", 1}, {"povray", 1},
		{"namd", 1}, {"hmmer", 2}, {"h264ref", 1}, {"gromacs", 2}, {"gobmk", 3}, {"gcc", 2},
		{"gamess", 1}, {"dealII", 4}, {"calculix", 2}, {"bzip2", 2}, {"bwaves", 2},
	}},
	{ID: 16, Category: MemNonIntensive, Apps: []AppCount{
		{"omnetpp", 3}, {"perlbench", 3}, {"astar", 2}, {"zeusmp", 1}, {"wrf", 2}, {"sjeng", 3},
		{"povray", 3}, {"namd", 1}, {"hmmer", 2}, {"h264ref", 1}, {"gobmk", 1}, {"gcc", 4},
		{"gamess", 2}, {"dealII", 2}, {"bzip2", 1}, {"bwaves", 1},
	}},
	{ID: 17, Category: MemNonIntensive, Apps: []AppCount{
		{"omnetpp", 2}, {"perlbench", 2}, {"astar", 1}, {"zeusmp", 2}, {"wrf", 1}, {"tonto", 2},
		{"sjeng", 1}, {"povray", 2}, {"namd", 1}, {"hmmer", 4}, {"h264ref", 1}, {"gobmk", 2},
		{"gcc", 2}, {"gamess", 1}, {"dealII", 3}, {"calculix", 2}, {"bzip2", 3},
	}},
	{ID: 18, Category: MemNonIntensive, Apps: []AppCount{
		{"omnetpp", 2}, {"perlbench", 4}, {"zeusmp", 2}, {"wrf", 2}, {"tonto", 2}, {"sjeng", 2},
		{"namd", 1}, {"hmmer", 2}, {"h264ref", 1}, {"gromacs", 2}, {"gobmk", 2}, {"gcc", 4},
		{"gamess", 2}, {"calculix", 2}, {"bzip2", 1}, {"bwaves", 1},
	}},
}

// All returns the 18 workloads of Table 2.
func All() []Workload {
	out := make([]Workload, len(table2))
	copy(out, table2)
	return out
}

// Get returns workload id (1-18).
func Get(id int) (Workload, error) {
	if id < 1 || id > len(table2) {
		return Workload{}, fmt.Errorf("workload: id %d out of range 1..%d", id, len(table2))
	}
	return table2[id-1], nil
}
