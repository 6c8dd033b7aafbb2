package workload

import (
	"testing"

	"nocmem/internal/trace"
)

func TestTable2Shape(t *testing.T) {
	ws := All()
	if len(ws) != 18 {
		t.Fatalf("%d workloads, want 18", len(ws))
	}
	counts := map[Category]int{}
	for i, w := range ws {
		if w.ID != i+1 {
			t.Errorf("workload %d has id %d", i, w.ID)
		}
		if got := w.Size(); got != 32 {
			t.Errorf("%s has %d applications, want 32", w.Name(), got)
		}
		counts[w.Category]++
	}
	if counts[Mixed] != 6 || counts[MemIntensive] != 6 || counts[MemNonIntensive] != 6 {
		t.Errorf("category counts %v, want 6 each", counts)
	}
}

func TestAllApplicationsResolve(t *testing.T) {
	for _, w := range All() {
		ps, err := w.Profiles()
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if len(ps) != 32 {
			t.Fatalf("%s expanded to %d profiles", w.Name(), len(ps))
		}
	}
}

func TestCategoryConsistency(t *testing.T) {
	for _, w := range All() {
		ps, err := w.Profiles()
		if err != nil {
			t.Fatal(err)
		}
		intensive := 0
		for _, p := range ps {
			if p.MemoryIntensive() {
				intensive++
			}
		}
		switch w.Category {
		case Mixed:
			if intensive != 16 {
				t.Errorf("%s: %d intensive apps, want exactly 16 (half)", w.Name(), intensive)
			}
		case MemIntensive:
			if intensive != 32 {
				t.Errorf("%s: %d intensive apps, want 32", w.Name(), intensive)
			}
		case MemNonIntensive:
			if intensive != 0 {
				t.Errorf("%s: %d intensive apps, want 0", w.Name(), intensive)
			}
		}
	}
}

func TestHalve(t *testing.T) {
	for _, w := range All() {
		h, err := w.Halve()
		if err != nil {
			t.Fatal(err)
		}
		if got := h.Size(); got != 16 {
			t.Errorf("%s halved to %d applications, want 16", w.Name(), got)
		}
		ps, err := h.Profiles()
		if err != nil {
			t.Fatal(err)
		}
		if w.Category == Mixed {
			intensive := 0
			for _, p := range ps {
				if p.MemoryIntensive() {
					intensive++
				}
			}
			if intensive != 8 {
				t.Errorf("%s halved has %d intensive apps, want 8", w.Name(), intensive)
			}
		}
	}
}

func TestGet(t *testing.T) {
	w, err := Get(7)
	if err != nil || w.ID != 7 || w.Category != MemIntensive {
		t.Errorf("Get(7) = %+v, %v", w, err)
	}
	if _, err := Get(0); err == nil {
		t.Error("id 0 accepted")
	}
	if _, err := Get(19); err == nil {
		t.Error("id 19 accepted")
	}
}

func TestCategoryStrings(t *testing.T) {
	if Mixed.String() != "mixed" || MemIntensive.String() != "mem-intensive" ||
		MemNonIntensive.String() != "mem-non-intensive" {
		t.Error("category labels wrong")
	}
}

func TestProfilesPreserveTableOrder(t *testing.T) {
	w, _ := Get(1)
	ps, _ := w.Profiles()
	if ps[0].Name != "mcf" || ps[1].Name != "mcf" || ps[2].Name != "mcf" || ps[3].Name != "lbm" {
		t.Errorf("expansion order broken: %s %s %s %s", ps[0].Name, ps[1].Name, ps[2].Name, ps[3].Name)
	}
}

func TestUnknownApplicationRejected(t *testing.T) {
	w := Workload{ID: 99, Apps: []AppCount{{"quake", 32}}}
	if _, err := w.Profiles(); err == nil {
		t.Error("unknown application accepted")
	}
	if _, err := w.Halve(); err == nil {
		t.Error("halve of invalid workload accepted")
	}
	_ = trace.Profiles() // keep the import honest
}
