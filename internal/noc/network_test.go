package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nocmem/internal/config"
)

func testCfg() config.NoC {
	c := config.Baseline32().NoC
	return c
}

func newTestNet(t *testing.T, w, h int, cfg config.NoC) *Network {
	t.Helper()
	n, err := New(config.Mesh{Width: w, Height: h}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// runUntil ticks the network until the condition holds or the cycle budget
// is exhausted.
func runUntil(t *testing.T, n *Network, start, budget int64, cond func() bool) int64 {
	t.Helper()
	now := start
	for ; now < start+budget; now++ {
		n.Tick(now)
		if cond() {
			return now
		}
	}
	t.Fatalf("condition not reached within %d cycles (delivered=%d inflight=%d)",
		budget, n.Stats().Delivered, n.Stats().InFlight)
	return now
}

func TestSinglePacketLatency5Stage(t *testing.T) {
	// A 1-flit packet over d links through d+1 five-stage routers: each
	// router adds 5 cycles (BW..ST+link), and the final ejection adds 4+1.
	cases := []struct {
		src, dst int
		want     int64 // ejection cycle when injected at cycle 0
	}{
		{0, 1, 0 + 5 + 4},    // 1 link
		{0, 7, 7*5 + 4},      // 7 links straight east
		{0, 31, (7+3)*5 + 4}, // full diagonal: 10 links
		{5, 5, 4},            // self: single router traversal
		{31, 0, (7+3)*5*1 /* symmetric */ + 4},
	}
	for _, tc := range cases {
		n := newTestNet(t, 8, 4, testCfg())
		var got *Packet
		n.SetSink(tc.dst, func(p *Packet, at int64) { got = p })
		p := &Packet{Src: tc.src, Dst: tc.dst, NumFlits: 1, VNet: VNetRequest}
		if err := n.Inject(p, 0); err != nil {
			t.Fatal(err)
		}
		runUntil(t, n, 0, 200, func() bool { return got != nil })
		if got.EjectedAt != tc.want {
			t.Errorf("src=%d dst=%d: ejected at %d, want %d", tc.src, tc.dst, got.EjectedAt, tc.want)
		}
		if wantHops := n.HopDistance(tc.src, tc.dst) + 1; got.Hops != wantHops {
			t.Errorf("src=%d dst=%d: %d hops, want %d", tc.src, tc.dst, got.Hops, wantHops)
		}
	}
}

func TestHighPriorityBypassLatency(t *testing.T) {
	// With pipeline bypassing a high-priority header does setup+ST per
	// router: 2 cycles per hop plus 1 ejection cycle.
	n := newTestNet(t, 8, 4, testCfg())
	var got *Packet
	n.SetSink(31, func(p *Packet, at int64) { got = p })
	p := &Packet{Src: 0, Dst: 31, NumFlits: 1, VNet: VNetResponse, Priority: High}
	if err := n.Inject(p, 0); err != nil {
		t.Fatal(err)
	}
	runUntil(t, n, 0, 200, func() bool { return got != nil })
	want := int64(10*2 + 1) // 10 links, final router 1 eject cycle after setup
	if got.EjectedAt != want {
		t.Errorf("bypassed packet ejected at %d, want %d", got.EjectedAt, want)
	}
}

func TestTwoStagePipelineLatency(t *testing.T) {
	cfg := testCfg()
	cfg.Pipeline = config.Pipeline2
	n := newTestNet(t, 8, 4, cfg)
	var got *Packet
	n.SetSink(31, func(p *Packet, at int64) { got = p })
	p := &Packet{Src: 0, Dst: 31, NumFlits: 1, VNet: VNetRequest}
	if err := n.Inject(p, 0); err != nil {
		t.Fatal(err)
	}
	runUntil(t, n, 0, 200, func() bool { return got != nil })
	want := int64(10*2 + 1)
	if got.EjectedAt != want {
		t.Errorf("2-stage packet ejected at %d, want %d", got.EjectedAt, want)
	}
}

func TestMultiFlitSerialization(t *testing.T) {
	// A k-flit packet's tail ejects k-1 cycles after a 1-flit packet's.
	lat := func(flits int) int64 {
		n := newTestNet(t, 8, 4, testCfg())
		var got *Packet
		n.SetSink(3, func(p *Packet, at int64) { got = p })
		if err := n.Inject(&Packet{Src: 0, Dst: 3, NumFlits: flits, VNet: VNetRequest}, 0); err != nil {
			t.Fatal(err)
		}
		runUntil(t, n, 0, 200, func() bool { return got != nil })
		return got.EjectedAt
	}
	l1, l5 := lat(1), lat(5)
	if l5 != l1+4 {
		t.Errorf("5-flit latency %d, want 1-flit %d + 4", l5, l1)
	}
}

func TestWormholeFlowIntegrity(t *testing.T) {
	// Eight same-priority packets injected back-to-back on one flow all
	// arrive exactly once. (Strict flow FIFO is NOT guaranteed: packets
	// may ride different VCs; the protocol layer coalesces per line.)
	n := newTestNet(t, 8, 4, testCfg())
	var order []uint64
	n.SetSink(31, func(p *Packet, at int64) { order = append(order, p.ID) })
	for i := 0; i < 8; i++ {
		if err := n.Inject(&Packet{ID: uint64(i + 1), Src: 0, Dst: 31, NumFlits: 5, VNet: VNetRequest}, 0); err != nil {
			t.Fatal(err)
		}
	}
	runUntil(t, n, 0, 2000, func() bool { return len(order) == 8 })
	seen := map[uint64]bool{}
	for _, id := range order {
		if seen[id] {
			t.Fatalf("duplicate delivery in %v", order)
		}
		seen[id] = true
	}
	if len(seen) != 8 {
		t.Fatalf("lost packets: %v", order)
	}
}

func TestAgeApproximatesElapsedTime(t *testing.T) {
	// The distributed age accumulation (Equation 1) must track the true
	// elapsed time closely: only link-traversal cycles are uncounted.
	n := newTestNet(t, 8, 4, testCfg())
	var got *Packet
	n.SetSink(31, func(p *Packet, at int64) { got = p })
	if err := n.Inject(&Packet{Src: 0, Dst: 31, NumFlits: 5, VNet: VNetRequest}, 0); err != nil {
		t.Fatal(err)
	}
	runUntil(t, n, 0, 500, func() bool { return got != nil })
	elapsed := got.EjectedAt - got.InjectedAt
	slack := int64(got.Hops) + 2
	if got.Age > elapsed || got.Age < elapsed-slack {
		t.Errorf("age %d outside [%d, %d] (elapsed %d, hops %d)",
			got.Age, elapsed-slack, elapsed, elapsed, got.Hops)
	}
}

func TestAgeAccumulationUnderLoad(t *testing.T) {
	// Even with queueing, age must stay within hops+outbox slack of the
	// true elapsed time for every delivered packet.
	n := newTestNet(t, 4, 4, testCfg())
	rng := rand.New(rand.NewSource(7))
	type rec struct{ age, elapsed, hops int64 }
	var recs []rec
	for d := 0; d < 16; d++ {
		d := d
		n.SetSink(d, func(p *Packet, at int64) {
			recs = append(recs, rec{p.Age, p.EjectedAt - p.InjectedAt, int64(p.Hops)})
		})
	}
	injected := 0
	for now := int64(0); now < 3000; now++ {
		if now < 1000 {
			for i := 0; i < 2; i++ {
				p := &Packet{Src: rng.Intn(16), Dst: rng.Intn(16), NumFlits: 1 + rng.Intn(5), VNet: VNet(rng.Intn(2))}
				if err := n.Inject(p, now); err != nil {
					t.Fatal(err)
				}
				injected++
			}
		}
		n.Tick(now)
	}
	if len(recs) != injected {
		t.Fatalf("delivered %d of %d packets", len(recs), injected)
	}
	for _, r := range recs {
		if r.age > r.elapsed || r.age < r.elapsed-r.hops-2 {
			t.Fatalf("age %d vs elapsed %d (hops %d) out of tolerance", r.age, r.elapsed, r.hops)
		}
	}
}

func TestConservationRandomTraffic(t *testing.T) {
	// Every injected packet is delivered exactly once and the network
	// quiesces with credits restored.
	cfg := testCfg()
	n := newTestNet(t, 8, 4, cfg)
	delivered := make(map[uint64]int)
	for d := 0; d < 32; d++ {
		n.SetSink(d, func(p *Packet, at int64) { delivered[p.ID]++ })
	}
	rng := rand.New(rand.NewSource(42))
	injected := 0
	for now := int64(0); now < 20000; now++ {
		if now < 5000 && rng.Float64() < 0.8 {
			p := &Packet{Src: rng.Intn(32), Dst: rng.Intn(32), NumFlits: 1 + rng.Intn(5), VNet: VNet(rng.Intn(2))}
			if rng.Float64() < 0.2 {
				p.Priority = High
			}
			if err := n.Inject(p, now); err != nil {
				t.Fatal(err)
			}
			injected++
		}
		n.Tick(now)
		checkAllDerived(t, n, now)
		if now > 5000 && n.Stats().InFlight == 0 {
			// A few extra ticks let in-flight credit returns settle.
			for k := int64(1); k <= 3; k++ {
				n.Tick(now + k)
			}
			break
		}
	}
	if got := n.Stats().Delivered; got != int64(injected) {
		t.Fatalf("delivered %d of %d", got, injected)
	}
	for id, c := range delivered {
		if c != 1 {
			t.Fatalf("packet %d delivered %d times", id, c)
		}
	}
	if err := n.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// Credits must be fully restored on every output VC.
	for ri := range n.routers {
		r := &n.routers[ri]
		for p := 0; p < NumPorts; p++ {
			for vc := 0; vc < r.vcs; vc++ {
				i := r.vci(p, vc)
				if r.outCredits[i] != int32(cfg.BufferDepth) {
					t.Fatalf("router %d port %d vc %d has %d credits, want %d",
						r.id, p, vc, r.outCredits[i], cfg.BufferDepth)
				}
				if r.outOwner[i] != nil {
					t.Fatalf("router %d port %d vc %d still owned after quiesce", r.id, p, vc)
				}
			}
		}
	}
}

func TestHighPriorityWinsUnderContention(t *testing.T) {
	// Many flows cross a congested region; high-priority packets should
	// see lower average latency than normal ones on the same flow mix.
	n := newTestNet(t, 8, 4, testCfg())
	var sumHigh, nHigh, sumNorm, nNorm int64
	for d := 0; d < 32; d++ {
		n.SetSink(d, func(p *Packet, at int64) {
			if p.Priority == High {
				sumHigh += p.NetLatency()
				nHigh++
			} else {
				sumNorm += p.NetLatency()
				nNorm++
			}
		})
	}
	rng := rand.New(rand.NewSource(3))
	for now := int64(0); now < 30000; now++ {
		if now < 15000 {
			// Heavy east-west traffic through the central columns.
			p := &Packet{Src: rng.Intn(4) * 8, Dst: rng.Intn(4)*8 + 7, NumFlits: 5, VNet: VNetResponse}
			if rng.Float64() < 0.15 {
				p.Priority = High
			}
			if err := n.Inject(p, now); err != nil {
				t.Fatal(err)
			}
		}
		n.Tick(now)
		if now > 15000 && n.Stats().InFlight == 0 {
			break
		}
	}
	if nHigh == 0 || nNorm == 0 {
		t.Fatal("expected both priority classes to be delivered")
	}
	avgHigh := float64(sumHigh) / float64(nHigh)
	avgNorm := float64(sumNorm) / float64(nNorm)
	if avgHigh >= avgNorm {
		t.Errorf("high-priority avg latency %.1f >= normal %.1f; prioritization ineffective", avgHigh, avgNorm)
	}
}

func TestInjectValidation(t *testing.T) {
	n := newTestNet(t, 4, 4, testCfg())
	bad := []*Packet{
		{Src: -1, Dst: 0, NumFlits: 1},
		{Src: 0, Dst: 16, NumFlits: 1},
		{Src: 0, Dst: 1, NumFlits: 0},
		{Src: 0, Dst: 1, NumFlits: 1, VNet: NumVNets},
		{Src: 0, Dst: 1, NumFlits: 1, Age: -5},
	}
	for i, p := range bad {
		if err := n.Inject(p, 0); err == nil {
			t.Errorf("case %d: bad packet accepted", i)
		}
	}
}

func TestHopDistanceProperty(t *testing.T) {
	n := newTestNet(t, 8, 4, testCfg())
	f := func(a, b uint8) bool {
		x, y := int(a)%32, int(b)%32
		d := n.HopDistance(x, y)
		return d == n.HopDistance(y, x) && d >= 0 && d <= 7+3 && (d == 0) == (x == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuiesceDetectsInFlight(t *testing.T) {
	n := newTestNet(t, 4, 4, testCfg())
	if err := n.Inject(&Packet{Src: 0, Dst: 15, NumFlits: 3, VNet: VNetRequest}, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Quiesce(); err == nil {
		t.Fatal("quiesce should report the undelivered packet")
	}
}

func TestLinkLoadAccounting(t *testing.T) {
	n := newTestNet(t, 4, 4, testCfg())
	var done bool
	n.SetSink(3, func(p *Packet, at int64) { done = true })
	// A 5-flit packet straight east over 3 links crosses 3 east ports
	// and ejects 5 flits at the destination.
	if err := n.Inject(&Packet{Src: 0, Dst: 3, NumFlits: 5, VNet: VNetRequest}, 0); err != nil {
		t.Fatal(err)
	}
	runUntil(t, n, 0, 300, func() bool { return done })
	load := n.LinkLoad()
	for _, tile := range []int{0, 1, 2} {
		if load[tile][PortEast] != 5 {
			t.Errorf("tile %d east port forwarded %d flits, want 5", tile, load[tile][PortEast])
		}
	}
	if load[3][PortLocal] != 5 {
		t.Errorf("tile 3 ejected %d flits, want 5", load[3][PortLocal])
	}
	if got := n.MaxLinkLoad(); got != 5 {
		t.Errorf("max link load %d, want 5", got)
	}
}

func TestWestFirstDeliversAllTraffic(t *testing.T) {
	cfg := testCfg()
	cfg.Routing = config.RoutingWestFirst
	n := newTestNet(t, 8, 4, cfg)
	delivered := 0
	for d := 0; d < 32; d++ {
		n.SetSink(d, func(p *Packet, at int64) { delivered++ })
	}
	rng := rand.New(rand.NewSource(11))
	injected := 0
	for now := int64(0); now < 40000; now++ {
		if now < 8000 && rng.Float64() < 0.9 {
			p := &Packet{Src: rng.Intn(32), Dst: rng.Intn(32), NumFlits: 1 + rng.Intn(5), VNet: VNet(rng.Intn(2))}
			if rng.Float64() < 0.2 {
				p.Priority = High
			}
			if err := n.Inject(p, now); err != nil {
				t.Fatal(err)
			}
			injected++
		}
		n.Tick(now)
		if now > 8000 && n.Stats().InFlight == 0 {
			break
		}
	}
	if delivered != injected {
		t.Fatalf("west-first delivered %d of %d (deadlock or loss)", delivered, injected)
	}
}

func TestWestFirstUsesBothMinimalPaths(t *testing.T) {
	// Eastbound traffic with a vertical component should spread across
	// east and north/south links when congested; under X-Y the first hop
	// is always east.
	run := func(algo config.RoutingAlgo) (eastFirstHop, southFirstHop int64) {
		cfg := testCfg()
		cfg.Routing = algo
		n := newTestNet(t, 8, 4, cfg)
		for now := int64(0); now < 3000; now++ {
			if now < 1500 {
				// Saturating flow from tile 0 to tile 31 (east+south).
				_ = n.Inject(&Packet{Src: 0, Dst: 31, NumFlits: 5, VNet: VNetRequest}, now)
			}
			n.Tick(now)
		}
		load := n.LinkLoad()
		return load[0][PortEast], load[0][PortSouth]
	}
	xe, xs := run(config.RoutingXY)
	if xs != 0 {
		t.Fatalf("X-Y sent %d flits south from the source", xs)
	}
	if xe == 0 {
		t.Fatal("X-Y sent nothing east")
	}
	we, ws := run(config.RoutingWestFirst)
	if ws == 0 {
		t.Errorf("west-first never used the southern minimal path (east=%d south=%d)", we, ws)
	}
}

func TestWestFirstMandatoryWestHops(t *testing.T) {
	// A westbound packet must head west immediately (no adaptivity), or
	// the turn model would be violated.
	cfg := testCfg()
	cfg.Routing = config.RoutingWestFirst
	n := newTestNet(t, 8, 4, cfg)
	var got *Packet
	n.SetSink(24, func(p *Packet, at int64) { got = p })
	if err := n.Inject(&Packet{Src: 7, Dst: 24, NumFlits: 1, VNet: VNetRequest}, 0); err != nil {
		t.Fatal(err)
	}
	runUntil(t, n, 0, 300, func() bool { return got != nil })
	load := n.LinkLoad()
	if load[7][PortSouth] != 0 {
		t.Error("westbound packet turned south before completing west hops")
	}
	if load[7][PortWest] != 1 {
		t.Errorf("source west link carried %d flits, want 1", load[7][PortWest])
	}
	if wantHops := n.HopDistance(7, 24) + 1; got.Hops != wantHops {
		t.Errorf("%d hops, want minimal %d", got.Hops, wantHops)
	}
}

func TestHeterogeneousRouterFrequencies(t *testing.T) {
	// A half-speed router on the path stretches the packet's latency, and
	// the distributed age (Equation 1) still tracks true elapsed time.
	lat := func(divs map[int]int) (int64, *Packet) {
		cfg := testCfg()
		cfg.ClockDivisors = divs
		n := newTestNet(t, 8, 4, cfg)
		var got *Packet
		n.SetSink(7, func(p *Packet, at int64) { got = p })
		if err := n.Inject(&Packet{Src: 0, Dst: 7, NumFlits: 1, VNet: VNetRequest}, 0); err != nil {
			t.Fatal(err)
		}
		runUntil(t, n, 0, 500, func() bool { return got != nil })
		return got.EjectedAt, got
	}
	fast, _ := lat(nil)
	slow, p := lat(map[int]int{3: 4}) // router 3 at quarter speed
	if slow <= fast {
		t.Fatalf("slow-router path latency %d not above full-speed %d", slow, fast)
	}
	elapsed := p.EjectedAt - p.InjectedAt
	slack := int64(p.Hops) + 2
	if p.Age > elapsed || p.Age < elapsed-slack {
		t.Errorf("heterogeneous age %d outside [%d, %d]", p.Age, elapsed-slack, elapsed)
	}
}

func TestHeterogeneousConservation(t *testing.T) {
	cfg := testCfg()
	cfg.ClockDivisors = map[int]int{0: 2, 5: 3, 10: 4}
	n := newTestNet(t, 4, 4, cfg)
	delivered := 0
	for d := 0; d < 16; d++ {
		n.SetSink(d, func(p *Packet, at int64) { delivered++ })
	}
	rng := rand.New(rand.NewSource(21))
	injected := 0
	for now := int64(0); now < 60000; now++ {
		if now < 6000 && rng.Float64() < 0.5 {
			p := &Packet{Src: rng.Intn(16), Dst: rng.Intn(16), NumFlits: 1 + rng.Intn(5), VNet: VNet(rng.Intn(2))}
			if err := n.Inject(p, now); err != nil {
				t.Fatal(err)
			}
			injected++
		}
		n.Tick(now)
		if now > 6000 && n.Stats().InFlight == 0 {
			break
		}
	}
	if delivered != injected {
		t.Fatalf("delivered %d of %d with slow routers", delivered, injected)
	}
}

func TestVNetIsolation(t *testing.T) {
	// Request packets may only ever occupy request-class VCs, and response
	// packets response-class VCs, at every router — the protocol-deadlock
	// guarantee rests on this.
	n := newTestNet(t, 4, 4, testCfg())
	rng := rand.New(rand.NewSource(13))
	for now := int64(0); now < 5000; now++ {
		if now < 2500 && rng.Float64() < 0.7 {
			vn := VNet(rng.Intn(2))
			p := &Packet{Src: rng.Intn(16), Dst: rng.Intn(16), NumFlits: 1 + rng.Intn(5), VNet: vn}
			if err := n.Inject(p, now); err != nil {
				t.Fatal(err)
			}
		}
		n.Tick(now)
		if now%37 != 0 {
			continue
		}
		checkAllDerived(t, n, now)
		for ri := range n.routers {
			r := &n.routers[ri]
			for port := 0; port < NumPorts; port++ {
				for vc := 0; vc < r.vcs; vc++ {
					for i, k := r.vci(port, vc), 0; k < int(r.cnt[i]); k++ {
						f := r.flitAt(i, k)
						lo, hi := r.vnetRange(f.pkt.VNet)
						if vc < lo || vc >= hi {
							t.Fatalf("cycle %d: %v packet in VC %d of router %d (class range [%d,%d))",
								now, f.pkt.VNet, vc, r.id, lo, hi)
						}
					}
				}
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	n := newTestNet(t, 4, 4, testCfg())
	done := false
	n.SetSink(15, func(p *Packet, at int64) { done = true })
	if err := n.Inject(&Packet{Src: 0, Dst: 15, NumFlits: 3, VNet: VNetResponse, Priority: High}, 0); err != nil {
		t.Fatal(err)
	}
	runUntil(t, n, 0, 300, func() bool { return done })
	st := n.Stats()
	if st.Injected != 1 || st.Delivered != 1 || st.HighInjected != 1 || st.InFlight != 0 {
		t.Errorf("stats %+v", st)
	}
	if st.AvgLatency() <= 0 {
		t.Error("avg latency not recorded")
	}
	// Flit-hops: 3 flits over 6 links (the ejection is not a link hop).
	if want := int64(3 * 6); st.FlitHops != want {
		t.Errorf("flit-hops %d, want %d", st.FlitHops, want)
	}
	n.ResetStats()
	if got := n.Stats(); got.Delivered != 0 || got.Injected != 0 {
		t.Error("reset failed")
	}
}
