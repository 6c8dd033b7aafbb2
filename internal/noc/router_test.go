package noc

import (
	"strings"
	"testing"

	"nocmem/internal/config"
)

// TestCreditBackpressure verifies that a stalled destination VC throttles
// the upstream sender to exactly the buffer depth and that traffic resumes
// when the stall clears. The stall is created by saturating a single flow
// with more flits than one VC's buffering.
func TestCreditBackpressure(t *testing.T) {
	cfg := testCfg()
	cfg.VCsPerPort = 2 // one VC per vnet: a single flow uses a single VC chain
	n := newTestNet(t, 4, 2, cfg)
	delivered := 0
	n.SetSink(3, func(p *Packet, at int64) { delivered++ })

	// Inject a burst of ten 5-flit packets on one flow: 50 flits must
	// squeeze through one VC per hop with 5-flit buffers.
	for i := 0; i < 10; i++ {
		if err := n.Inject(&Packet{Src: 0, Dst: 3, NumFlits: 5, VNet: VNetRequest}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Count the peak buffered flits at the middle router: never above the
	// per-VC depth times the VC count of the west input port.
	maxBuffered := 0
	for now := int64(0); now < 3000 && delivered < 10; now++ {
		n.Tick(now)
		r := &n.routers[1]
		tot := 0
		for vc := 0; vc < r.vcs; vc++ {
			tot += int(r.cnt[r.vci(PortWest, vc)])
		}
		if tot > maxBuffered {
			maxBuffered = tot
		}
	}
	if delivered != 10 {
		t.Fatalf("delivered %d of 10", delivered)
	}
	if maxBuffered > cfg.BufferDepth*2 {
		t.Errorf("router 1 west port buffered %d flits, credit limit is %d", maxBuffered, cfg.BufferDepth*2)
	}
	if maxBuffered == 0 {
		t.Error("no buffering observed; the test exercised nothing")
	}
}

// TestVCExhaustionBlocksNewPackets verifies that when every output VC of a
// class is held by long packets, further headers wait for a VC (tail
// release) rather than corrupting allocation state.
func TestVCExhaustionBlocksNewPackets(t *testing.T) {
	cfg := testCfg() // 2 VCs per vnet
	n := newTestNet(t, 4, 2, cfg)
	order := []uint64{}
	n.SetSink(3, func(p *Packet, at int64) { order = append(order, p.ID) })
	// Three long packets on the same flow: at most two can hold the two
	// request-class VCs on each link at once.
	for i := 0; i < 3; i++ {
		if err := n.Inject(&Packet{ID: uint64(i + 1), Src: 0, Dst: 3, NumFlits: 8, VNet: VNetRequest}, 0); err != nil {
			t.Fatal(err)
		}
	}
	runUntil(t, n, 0, 3000, func() bool { return len(order) == 3 })
	// All three arrive intact. Packets of one flow may ride different VCs
	// and legally reorder; the endpoint MSHRs tolerate that.
	seen := map[uint64]bool{}
	for _, id := range order {
		if seen[id] {
			t.Fatalf("packet %d delivered twice (order %v)", id, order)
		}
		seen[id] = true
	}
	for id := uint64(1); id <= 3; id++ {
		if !seen[id] {
			t.Fatalf("packet %d lost (order %v)", id, order)
		}
	}
	if err := n.Quiesce(); err == nil {
		// Quiesce may still see pending credit returns; settle and recheck.
	} else {
		for k := int64(0); k < 5; k++ {
			n.Tick(3000 + k)
		}
		if err := n.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEjectionBandwidth verifies the local port delivers at most one flit
// per cycle: two 5-flit packets to the same tile cannot finish closer than
// 5 cycles apart.
func TestEjectionBandwidth(t *testing.T) {
	n := newTestNet(t, 4, 4, testCfg())
	var times []int64
	n.SetSink(5, func(p *Packet, at int64) { times = append(times, at) })
	// Converging flows from two different sources.
	if err := n.Inject(&Packet{Src: 4, Dst: 5, NumFlits: 5, VNet: VNetRequest}, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Inject(&Packet{Src: 6, Dst: 5, NumFlits: 5, VNet: VNetRequest}, 0); err != nil {
		t.Fatal(err)
	}
	runUntil(t, n, 0, 500, func() bool { return len(times) == 2 })
	gap := times[1] - times[0]
	if gap < 5 {
		t.Errorf("two 5-flit packets ejected %d cycles apart; local port overdriven", gap)
	}
}

// TestBypassRequiresPriority verifies normal-priority headers never use the
// single-cycle setup under the 5-stage pipeline.
func TestBypassRequiresPriority(t *testing.T) {
	cfg := testCfg()
	n := newTestNet(t, 8, 2, cfg)
	var normal, high *Packet
	n.SetSink(7, func(p *Packet, at int64) {
		if p.Priority == High {
			high = p
		} else {
			normal = p
		}
	})
	if err := n.Inject(&Packet{Src: 0, Dst: 7, NumFlits: 1, VNet: VNetRequest}, 0); err != nil {
		t.Fatal(err)
	}
	runUntil(t, n, 0, 200, func() bool { return normal != nil })
	start := normal.EjectedAt + 10
	if err := n.Inject(&Packet{Src: 0, Dst: 7, NumFlits: 1, VNet: VNetRequest, Priority: High}, start); err != nil {
		t.Fatal(err)
	}
	runUntil(t, n, start, 200, func() bool { return high != nil })
	normLat := normal.EjectedAt - normal.InjectedAt
	highLat := high.EjectedAt - high.InjectedAt
	if wantNorm := int64(7*5 + 4); normLat != wantNorm {
		t.Errorf("normal latency %d, want %d", normLat, wantNorm)
	}
	if wantHigh := int64(7*2 + 1); highLat != wantHigh {
		t.Errorf("bypassed latency %d, want %d", highLat, wantHigh)
	}
}

// TestBypassDisabled verifies EnableBypass=false makes high-priority
// headers walk the full pipeline (arbitration priority remains).
func TestBypassDisabled(t *testing.T) {
	cfg := testCfg()
	cfg.EnableBypass = false
	n := newTestNet(t, 8, 2, cfg)
	var got *Packet
	n.SetSink(7, func(p *Packet, at int64) { got = p })
	if err := n.Inject(&Packet{Src: 0, Dst: 7, NumFlits: 1, VNet: VNetRequest, Priority: High}, 0); err != nil {
		t.Fatal(err)
	}
	runUntil(t, n, 0, 200, func() bool { return got != nil })
	if want := int64(7*5 + 4); got.EjectedAt != want {
		t.Errorf("high-priority latency %d with bypass off, want full-pipeline %d", got.EjectedAt, want)
	}
}

// TestPipelineConstantsSane pins the documented pipeline relationships.
func TestPipelineConstantsSane(t *testing.T) {
	if config.Pipeline5 != 5 || config.Pipeline2 != 2 {
		t.Error("pipeline enum values drifted from their stage counts")
	}
	if opposite(PortNorth) != PortSouth || opposite(PortEast) != PortWest {
		t.Error("port opposites wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("opposite(PortLocal) must panic")
		}
	}()
	opposite(PortLocal)
}

// TestCreditViolationsPanic: a flit pushed into a full input VC, and a flit
// or credit pushed onto a full link ring, break the credit protocol the
// buffers and rings are sized by; both panic, the VC overflow naming its port.
func TestCreditViolationsPanic(t *testing.T) {
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want it to mention %q", what, msg, want)
			}
		}()
		f()
	}
	n := newTestNet(t, 2, 2, testCfg())
	r := &n.routers[0]
	pkt := &Packet{Src: 1, Dst: 0, NumFlits: 1}
	i := r.vci(PortEast, 0)
	for k := 0; k < r.depth; k++ {
		r.push(i, flit{pkt: pkt}, 0)
	}
	mustPanic("full input VC", "port east vc 0 buffer overflow", func() { r.push(i, flit{pkt: pkt}, 0) })
	q := &r.arr[PortEast]
	for q.len() < len(q.buf) {
		q.push(arrival{f: flit{pkt: pkt}})
	}
	mustPanic("full link ring", "link ring overflows", func() { q.push(arrival{}) })
}
