package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nocmem/internal/config"
)

func cand(pri Priority, age int64, ord int) candidate {
	return candidate{high: pri == High, age: age, ord: ord}
}

func agePol(window int64) arbPolicy { return arbPolicy{window: window} }

func TestArbitrationRule(t *testing.T) {
	pol := agePol(1000)
	cases := []struct {
		name string
		a, b candidate
		want bool // a beats b
	}{
		{"high beats normal", cand(High, 10, 0), cand(Normal, 10, 1), true},
		{"normal loses to high", cand(Normal, 10, 0), cand(High, 10, 1), false},
		{"older normal wins within class", cand(Normal, 50, 1), cand(Normal, 10, 0), true},
		{"older high wins within class", cand(High, 50, 1), cand(High, 10, 0), true},
		{"tie broken by ord", cand(Normal, 10, 0), cand(Normal, 10, 1), true},
		{"starved normal beats high", cand(Normal, 1500, 1), cand(High, 100, 0), true},
		{"high keeps advantage within window", cand(High, 100, 0), cand(Normal, 1099, 1), true},
		{"high loses exactly past window", cand(High, 100, 0), cand(Normal, 1101, 1), false},
	}
	for _, tc := range cases {
		if got := tc.a.beats(tc.b, pol); got != tc.want {
			t.Errorf("%s: beats=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestArbitrationAsymmetry(t *testing.T) {
	// For any pair of distinct candidates, exactly one direction wins
	// (a strict total order between two contenders).
	f := func(aHigh, bHigh bool, aAge, bAge uint16) bool {
		pa, pb := Normal, Normal
		if aHigh {
			pa = High
		}
		if bHigh {
			pb = High
		}
		a := cand(pa, int64(aAge), 0)
		b := cand(pb, int64(bAge), 1)
		return a.beats(b, agePol(1000)) != b.beats(a, agePol(1000))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPickBest(t *testing.T) {
	cands := []candidate{
		cand(Normal, 500, 0),
		cand(High, 50, 1),
		cand(Normal, 400, 2),
		cand(High, 90, 3),
	}
	if got := pickBest(cands, agePol(1000)); got != 3 {
		t.Errorf("pickBest = %d, want 3 (oldest high-priority)", got)
	}
	if got := pickBest(nil, agePol(1000)); got != -1 {
		t.Errorf("pickBest(empty) = %d, want -1", got)
	}
	// With a starved normal candidate past the window, it must win.
	cands = append(cands, cand(Normal, 1200, 4))
	if got := pickBest(cands, agePol(1000)); got != 4 {
		t.Errorf("pickBest = %d, want 4 (starved normal)", got)
	}
}

func TestPriorityString(t *testing.T) {
	if Normal.String() != "normal" || High.String() != "high" {
		t.Error("priority string labels wrong")
	}
}

func batchCand(pri Priority, age, batch int64, ord int) candidate {
	c := cand(pri, age, ord)
	c.batch = batch
	return c
}

func TestBatchingArbitration(t *testing.T) {
	pol := arbPolicy{mode: config.Batching, batchInterval: 1000}
	cases := []struct {
		name string
		a, b candidate
		want bool
	}{
		{"older batch beats high priority", batchCand(Normal, 10, 0, 0), batchCand(High, 999, 1, 1), true},
		{"newer batch loses", batchCand(High, 999, 2, 0), batchCand(Normal, 10, 1, 1), false},
		{"priority rules within a batch", batchCand(High, 5, 3, 1), batchCand(Normal, 900, 3, 0), true},
		{"age breaks priority ties within a batch", batchCand(Normal, 50, 3, 1), batchCand(Normal, 10, 3, 0), true},
	}
	for _, tc := range cases {
		if got := tc.a.beats(tc.b, pol); got != tc.want {
			t.Errorf("%s: beats=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBatchingNetworkDeliversEverything(t *testing.T) {
	cfg := testCfg()
	cfg.StarvationMode = config.Batching
	cfg.BatchInterval = 500
	n := newTestNet(t, 4, 4, cfg)
	var delivered int
	for d := 0; d < 16; d++ {
		n.SetSink(d, func(p *Packet, at int64) { delivered++ })
	}
	rng := rand.New(rand.NewSource(5))
	injected := 0
	for now := int64(0); now < 20000; now++ {
		if now < 4000 && rng.Float64() < 0.6 {
			p := &Packet{Src: rng.Intn(16), Dst: rng.Intn(16), NumFlits: 1 + rng.Intn(5), VNet: VNet(rng.Intn(2))}
			if rng.Float64() < 0.3 {
				p.Priority = High
			}
			if err := n.Inject(p, now); err != nil {
				t.Fatal(err)
			}
			injected++
		}
		n.Tick(now)
		if now > 4000 && n.Stats().InFlight == 0 {
			break
		}
	}
	if delivered != injected {
		t.Fatalf("delivered %d of %d under batching arbitration", delivered, injected)
	}
}
