package sim

import (
	"math"
	"math/rand"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/core"
	"nocmem/internal/noc"
)

// refPolicy is the three-hook policy that classify replaced, kept as its
// oracle: BasePriority on the L1 -> L2 request and the L2 hit,
// RequestPriority on the L2 miss, ResponsePriority after the memory
// controller, and the fill carrying the memory response's priority.
type refPolicy struct {
	S1  *core.Scheme1
	S2  *core.Scheme2
	App *core.AppAware
}

func newRefPolicy(cfg config.Config, mpki []float64, active []bool) *refPolicy {
	p := &refPolicy{}
	if cfg.S1.Enabled {
		p.S1 = core.NewScheme1(cfg.S1, cfg.Mesh.Nodes())
	}
	if cfg.S2.Enabled {
		p.S2 = core.NewScheme2(cfg.S2, cfg.Mesh.Nodes(), cfg.DRAM.Controllers*cfg.DRAM.BanksPerCtl)
	}
	if cfg.AppAwareNet || cfg.DRAM.Sched == config.AppAwareMem {
		p.App = core.NewAppAware(mpki, active)
	}
	return p
}

func (p *refPolicy) BasePriority(coreID int) noc.Priority {
	return p.App.Priority(coreID)
}

func refMaxPri(a, b noc.Priority) noc.Priority {
	if a == noc.High || b == noc.High {
		return noc.High
	}
	return noc.Normal
}

func (p *refPolicy) RequestPriority(node, bank, coreID int, now int64) noc.Priority {
	pri := p.BasePriority(coreID)
	if p.S2 != nil {
		pri = refMaxPri(pri, p.S2.Classify(node, bank, now))
	}
	return pri
}

func (p *refPolicy) ResponsePriority(coreID int, soFarAge int64) noc.Priority {
	pri := p.BasePriority(coreID)
	if p.S1 != nil {
		pri = refMaxPri(pri, p.S1.Classify(coreID, soFarAge))
	}
	return pri
}

func (p *refPolicy) RoundTripDone(coreID int, delay int64) {
	if p.S1 != nil {
		p.S1.RecordRoundTrip(coreID, delay)
	}
}

func (p *refPolicy) Tick(now int64) {
	if p.S1 != nil {
		p.S1.Tick(now)
	}
}

func (p *refPolicy) NextWake() int64 {
	if p.S1 != nil {
		return p.S1.NextPush()
	}
	return math.MaxInt64
}

// TestClassifyMatchesThreeHooks feeds classify and refPolicy, each with its
// own schemes, the same random sequence of transactions through the four
// sites, with threshold pushes and completed round trips in between, and
// requires every answer and every scheme counter to agree. A few lines, so
// that (home tile, bank) pairs repeat within Scheme-2's window, and ages on
// both sides of Scheme-1's thresholds make both schemes tag.
func TestClassifyMatchesThreeHooks(t *testing.T) {
	cases := []struct {
		name string
		set  func(*config.Config)
	}{
		{"base", func(*config.Config) {}},
		{"s1", func(c *config.Config) { c.S1.Enabled = true }},
		{"s2", func(c *config.Config) { c.S2.Enabled = true }},
		{"s1s2", func(c *config.Config) { *c = c.WithSchemes(true, true) }},
		{"appnet_s1s2", func(c *config.Config) {
			*c = c.WithSchemes(true, true)
			c.AppAwareNet = true
		}},
		{"appmem", func(c *config.Config) { c.DRAM.Sched = config.AppAwareMem }},
	}
	apps := mixedHalf(t)
	mpki := make([]float64, len(apps))
	active := make([]bool, len(apps))
	for i, a := range apps {
		mpki[i], active[i] = a.MPKI, a.Name != ""
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.S1.UpdatePeriod = 5_000
			tc.set(&cfg)
			s, err := newSynthetic(cfg, apps, false)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefPolicy(cfg, mpki, active)
			rng := rand.New(rand.NewSource(1))
			lines := make([]uint64, 48)
			for i := range lines {
				lines[i] = uint64(rng.Int63n(1<<30)) &^ uint64(cfg.L2.LineBytes-1)
			}
			type inFlight struct {
				t   *Txn
				pri noc.Priority // refPolicy's response priority
			}
			var atMC, atL2 []inFlight
			var now int64
			check := func(step int, at site, got, want noc.Priority) {
				t.Helper()
				if got != want {
					t.Fatalf("step %d, site %d, cycle %d: classify %v, three hooks %v", step, at, now, got, want)
				}
				var gs1, rs1, gs2, rs2 [2]int64
				if s.s1 != nil {
					gs1, rs1 = [2]int64{s.s1.Tagged, s.s1.Checked}, [2]int64{ref.S1.Tagged, ref.S1.Checked}
				}
				if s.s2 != nil {
					gs2, rs2 = [2]int64{s.s2.Tagged, s.s2.Checked}, [2]int64{ref.S2.Tagged, ref.S2.Checked}
				}
				if gs1 != rs1 || gs2 != rs2 {
					t.Fatalf("step %d, site %d: tagged/checked S1 %v S2 %v, three hooks S1 %v S2 %v", step, at, gs1, gs2, rs1, rs2)
				}
			}
			var high int
			for step := range 20_000 {
				now += rng.Int63n(8)
				if got, want := s.s1.NextPush(), ref.NextWake(); got != want {
					t.Fatalf("step %d: next push %d, three hooks %d", step, got, want)
				}
				if now >= ref.NextWake() {
					s.s1.Tick(now)
					ref.Tick(now)
				}
				coreID := rng.Intn(len(apps))
				age := rng.Int63n(1_500)
				var got, want noc.Priority
				at := site(rng.Intn(4))
				switch {
				case at == siteMCtoL2 && len(atMC) > 0:
					i := rng.Intn(len(atMC))
					f := atMC[i]
					atMC[i] = atMC[len(atMC)-1]
					atMC = atMC[:len(atMC)-1]
					f.t.RespPriority = s.classify(at, f.t, age, now)
					got, f.pri = f.t.RespPriority, ref.ResponsePriority(f.t.Core, age)
					want = f.pri
					atL2 = append(atL2, f)
				case at == siteL2toL1 && len(atL2) > 0 && rng.Intn(2) == 0:
					// A fill: the response's priority rides the last leg,
					// and the round trip feeds Scheme-1's averages.
					i := rng.Intn(len(atL2))
					f := atL2[i]
					atL2[i] = atL2[len(atL2)-1]
					atL2 = atL2[:len(atL2)-1]
					f.t.OffChip = true
					got, want = s.classify(at, f.t, age, now), f.pri
					delay := 200 + rng.Int63n(1_500)
					s.s1.RecordRoundTrip(f.t.Core, delay)
					ref.RoundTripDone(f.t.Core, delay)
				default:
					tx := &Txn{Core: coreID, Line: lines[rng.Intn(len(lines))]}
					switch at {
					case siteL2toMC, siteMCtoL2:
						at = siteL2toMC
						got = s.classify(at, tx, age, now)
						want = ref.RequestPriority(s.snuca.Bank(tx.Line), s.amap.GlobalBank(tx.Line), coreID, now)
						atMC = append(atMC, inFlight{t: tx})
					default: // the L1 -> L2 request, or an L2 hit's response
						got, want = s.classify(at, tx, age, now), ref.BasePriority(coreID)
					}
				}
				check(step, at, got, want)
				if got == noc.High {
					high++
				}
			}
			if tc.name != "base" && high == 0 {
				t.Fatal("no message was prioritized: the sequence exercises nothing")
			}
			if s.s1 != nil && s.s1.Tagged == 0 || s.s2 != nil && s.s2.Tagged == 0 {
				t.Fatal("an enabled scheme tagged nothing")
			}
		})
	}
}
