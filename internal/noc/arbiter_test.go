package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nocmem/internal/config"
)

// candidate is the reference form of one arbitration contender, as Section
// 3.3 states the rule: its packet's priority class, its effective age at the
// cycle of the arbitration (so-far delay plus local residence), the batch its
// packet was injected in (batching mode) and its flat input VC index, which
// breaks ties in (port, vc) order.
type candidate struct {
	high  bool
	age   int64
	batch int64
	ord   int
}

// beats is the paper's rule, the reference the static keys are proven equal
// to: whether candidate a wins arbitration over b.
//
// AgeWindow: a high-priority flit beats a normal one unless the normal flit's
// age exceeds the high-priority flit's age by more than the starvation window;
// within a class, older wins. Batching: packets of older batches always rank
// first; priority (then age) only breaks ties within a batch.
func (a candidate) beats(b candidate, pol arbPolicy) bool {
	if pol.mode == config.Batching && a.batch != b.batch {
		return a.batch < b.batch
	}
	if a.high != b.high {
		if pol.mode == config.Batching {
			return a.high // within a batch, priority rules unconditionally
		}
		if a.high {
			// a keeps its high-priority advantage only while b has
			// not starved past the window.
			return b.age-a.age <= pol.window
		}
		return a.age-b.age > pol.window
	}
	if a.age != b.age {
		return a.age > b.age // oldest first
	}
	return a.ord < b.ord
}

// key is the candidate's static key for an arbitration held at cycle now: the
// router stores age' = age - now, and only batching mode looks at the
// injection cycle, anywhere inside the batch.
func (c candidate) key(pol arbPolicy, now int64) arbKey {
	pkt := &Packet{}
	if pol.mode == config.Batching {
		pkt.InjectedAt = c.batch*pol.batchInterval + (c.age+int64(c.ord))%pol.batchInterval
	}
	return pol.key(c.high, c.age-now, pkt, c.ord)
}

// keyBeats is candidate.beats decided the way the router decides it.
func keyBeats(a, b candidate, pol arbPolicy) bool {
	const now = 1 << 39 // late in a long run: every age' is hugely negative
	return a.key(pol, now).over(b.key(pol, now))
}

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
		{"high keeps advantage at the window", cand(High, 100, 1), cand(Normal, 1100, 0), true},
		{"high loses exactly past window", cand(High, 100, 0), cand(Normal, 1101, 1), false},
	}
	for _, tc := range cases {
		if got := keyBeats(tc.a, tc.b, pol); got != tc.want {
			t.Errorf("%s: key order says %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.a.beats(tc.b, pol); got != tc.want {
			t.Errorf("%s: reference rule says %v, want %v", tc.name, got, tc.want)
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
		return keyBeats(a, b, agePol(1000)) != keyBeats(b, a, agePol(1000))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// pickByKey is the router's selection among cands at cycle now: the arg-max of
// their keys.
func pickByKey(cands []candidate, pol arbPolicy, now int64) int {
	r := &router{arb: pol}
	var m uint64
	for _, c := range cands {
		r.sel[c.ord].key = c.key(pol, now)
		m |= 1 << uint(c.ord)
	}
	return r.bestKey(m)
}

func TestPickBest(t *testing.T) {
	cands := []candidate{
		cand(Normal, 500, 0),
		cand(High, 50, 1),
		cand(Normal, 400, 2),
		cand(High, 90, 3),
	}
	if got := pickByKey(cands, agePol(1000), 0); got != 3 {
		t.Errorf("best key = vc %d, want 3 (oldest high-priority)", got)
	}
	// With a starved normal candidate past the window, it must win.
	cands = append(cands, cand(Normal, 1200, 4))
	if got := pickByKey(cands, agePol(1000), 0); got != 4 {
		t.Errorf("best key = vc %d, want 4 (starved normal)", got)
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
		if got := keyBeats(tc.a, tc.b, pol); got != tc.want {
			t.Errorf("%s: key order says %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.a.beats(tc.b, pol); got != tc.want {
			t.Errorf("%s: reference rule says %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestKeyOrderIsTheRule draws random contender sets, dense in the cases where
// the rule turns — ages a window apart give or take one, equal ages across
// classes, contenders equal in everything but their index, neighbouring
// batches — at the extremes of what config.Validate admits and of the cycle
// range the keys are sized for, and checks that the static keys decide every
// pair as the paper's rule does, that distinct contenders never share a key
// (the order is strict and total), and that the router's arg-max by key is the
// reference scan's winner.
func TestKeyOrderIsTheRule(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pols := []arbPolicy{
		agePol(0), agePol(1), agePol(100), agePol(1000), agePol(config.MaxStarvationWindow),
		{mode: config.Batching, batchInterval: 1},
		{mode: config.Batching, batchInterval: 7},
		{mode: config.Batching, batchInterval: 2000},
		{mode: config.Batching, batchInterval: 1 << 40},
	}
	const maxCycle = 1 << 40
	for _, pol := range pols {
		for round := 0; round < 400; round++ {
			// The arbitration cycle, and ages that fit before it.
			now := rng.Int63n(maxCycle)
			if round%4 == 0 {
				now = maxCycle - 1
			}
			base := rng.Int63n(now/2 + 1)
			var step []int64
			for _, d := range []int64{0, 1, -1, pol.window, pol.window - 1, pol.window + 1, -pol.window, 1 - pol.window, -1 - pol.window} {
				if a := base + d; a >= 0 && a <= now {
					step = append(step, d)
				}
			}
			batches := now/max(pol.batchInterval, 1) + 1
			batch0 := rng.Int63n(batches)
			perm := rng.Perm(NumPorts * config.MaxVCsPerPort)
			cands := make([]candidate, 2+rng.Intn(10))
			for k := range cands {
				c := candidate{high: rng.Intn(2) == 0, ord: perm[k]}
				if rng.Intn(4) == 0 {
					c.age = rng.Int63n(now + 1)
				} else {
					c.age = base + step[rng.Intn(len(step))]
				}
				if pol.mode == config.Batching {
					if c.batch = batch0 + int64(rng.Intn(3)) - 1; c.batch < 0 || c.batch >= batches {
						c.batch = batch0
					}
				}
				cands[k] = c
			}
			ref := 0
			for k := range cands {
				if cands[k].beats(cands[ref], pol) {
					ref = k
				}
			}
			// over compares integer pairs lexicographically, so it is a total
			// preorder by construction: strict once distinct contenders never
			// share a key.
			for k, a := range cands {
				ka := a.key(pol, now)
				for _, b := range cands[k+1:] {
					kb := b.key(pol, now)
					if ka == kb {
						t.Fatalf("policy %+v cycle %d: %+v and %+v share key %+v", pol, now, a, b, ka)
					}
					if got, want := ka.over(kb), a.beats(b, pol); got != want || kb.over(ka) != b.beats(a, pol) {
						t.Fatalf("policy %+v cycle %d: key order says %+v over %+v is %v, the rule says %v", pol, now, a, b, got, want)
					}
				}
			}
			if got := pickByKey(cands, pol, now); got != cands[ref].ord {
				t.Fatalf("policy %+v cycle %d: arg-max by key picks vc %d, the rule picks %+v", pol, now, got, cands[ref])
			}
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
