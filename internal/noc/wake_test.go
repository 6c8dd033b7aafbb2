package noc

import (
	"math/rand"
	"strings"
	"testing"
)

// TestDiv2RouterTickCounts is the regression for the div>1 busy-tick bug: a
// div=2 router holding a buffered flit used to stay in the active set and be
// called every cycle forever, with every odd-cycle call skipped by the clock
// gate. With timed wakes the router is called only when it can execute.
// Executed ticks must agree under dense and event stepping (the
// byte-equivalence invariant restricted to one router) once the ticks the
// event scheduler elided — executions that would only have banked a returned
// credit — are added back, while event-mode calls collapse to roughly the
// executed set.
func TestDiv2RouterTickCounts(t *testing.T) {
	const cycles = 100
	run := func(event bool) (calls, execs, elided int64) {
		cfg := testCfg()
		cfg.ClockDivisors = map[int]int{0: 2}
		n := newTestNet(t, 2, 2, cfg)
		n.SetEventDriven(event)
		// One packet through the slow router: it holds buffered flits for a
		// stretch (every pipeline stage takes 2 cycles) and then sits drained.
		if err := n.Inject(&Packet{Src: 0, Dst: 1, NumFlits: 3, VNet: VNetRequest}, 0); err != nil {
			t.Fatal(err)
		}
		for now := int64(0); now < cycles; now++ {
			n.Tick(now)
		}
		if n.Stats().Delivered != 1 {
			t.Fatalf("event=%v: packet not delivered", event)
		}
		return n.DebugRouterTicks(0)
	}
	dCalls, dExecs, dElided := run(false)
	eCalls, eExecs, eElided := run(true)
	if dCalls != cycles {
		t.Errorf("dense mode called tick %d times, want every cycle (%d)", dCalls, cycles)
	}
	if dElided != 0 {
		t.Errorf("dense mode elided %d ticks; the reference sweep must execute every one", dElided)
	}
	if dExecs != eExecs+eElided {
		t.Errorf("executed ticks diverge: dense %d, event %d + %d elided", dExecs, eExecs, eElided)
	}
	if dExecs >= cycles/2 {
		t.Errorf("div=2 router executed %d of %d cycles; clock gate broken", dExecs, cycles)
	}
	// Event mode may spend a few spurious calls (initial activation, stale
	// wakes) but must not busy-tick: calls track executions, not cycles.
	if slack := eExecs + 8; eCalls > slack {
		t.Errorf("event mode called tick %d times for %d executions (> %d); router busy-ticking",
			eCalls, eExecs, slack)
	}
}

// TestFutureDatedRouterSleeps proves the acceptance property directly: a
// router whose only pending work is a future-dated arrival executes zero
// ticks — in fact receives zero tick calls — between its quiet point and the
// wake cycle. The source router runs at div=4, so the destination's in-flight
// flit is many cycles out: header buffered at 0, VA eligible at 2*4=8, SA at
// 8+4=12, dispatched at 12, arriving at 12+4+1=17 (see the pipeline constants
// in router.go).
func TestFutureDatedRouterSleeps(t *testing.T) {
	cfg := testCfg()
	cfg.ClockDivisors = map[int]int{0: 4}
	n := newTestNet(t, 2, 2, cfg)
	n.SetEventDriven(true)
	var got *Packet
	n.SetSink(1, func(p *Packet, at int64) { got = p })
	if err := n.Inject(&Packet{Src: 0, Dst: 1, NumFlits: 1, VNet: VNetRequest}, 0); err != nil {
		t.Fatal(err)
	}
	n.Tick(0) // initial all-active tick; router 1 is drained and retires
	quietCalls, _, _ := n.DebugRouterTicks(1)
	const arrivalAt = 17
	for now := int64(1); now < arrivalAt; now++ {
		n.Tick(now)
	}
	if calls, _, _ := n.DebugRouterTicks(1); calls != quietCalls {
		t.Errorf("sleeping router was called %d times while its only work was future-dated",
			calls-quietCalls)
	}
	runUntil(t, n, arrivalAt, 50, func() bool { return got != nil })
	if _, execs, _ := n.DebugRouterTicks(1); execs == 0 {
		t.Error("destination router never executed; wake lost")
	}
}

// TestRandomScheduleDrainsClean is the fuzz-style leak check: after any
// random injection schedule drains, stats and deliveries are byte-identical
// to the dense reference, every router is drained, and no active bit or
// timed wake is leaked in any shard (DebugLeaks). Runs single-shard and with
// a 2-shard partition so the cross-shard boundary wakes are covered; `make
// ci` races this package, covering the SPSC hand-off.
func TestRandomScheduleDrainsClean(t *testing.T) {
	type outcome struct {
		stats     Stats
		delivered map[uint64]int
		// execs is, per router, the executed ticks plus the credit-only
		// ticks the event scheduler elided: what the dense sweep executes.
		execs  [16]int64
		elided int64
	}
	run := func(t *testing.T, seed int64, event bool, shards int) outcome {
		cfg := testCfg()
		cfg.ClockDivisors = map[int]int{0: 2, 5: 3, 10: 4}
		n := newTestNet(t, 4, 4, cfg)
		if shards > 1 {
			shardOf := make([]int, 16)
			for id := range shardOf {
				if id%4 >= 2 { // right half of each row
					shardOf[id] = 1
				}
			}
			n.SetPartition(shardOf)
		}
		n.SetEventDriven(event)
		delivered := make(map[uint64]int)
		for d := 0; d < 16; d++ {
			n.SetSink(d, func(p *Packet, at int64) { delivered[p.ID]++ })
		}
		rng := rand.New(rand.NewSource(seed))
		injected := 0
		now := int64(0)
		for ; now < 60000; now++ {
			if now < 3000 && rng.Float64() < 0.6 {
				p := &Packet{Src: rng.Intn(16), Dst: rng.Intn(16), NumFlits: 1 + rng.Intn(5), VNet: VNet(rng.Intn(2))}
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
			if now > 3000 && n.Stats().InFlight == 0 {
				break
			}
		}
		if n.Stats().InFlight != 0 {
			t.Fatalf("seed %d event=%v shards=%d: not drained in budget", seed, event, shards)
		}
		// Execute past the last pending deadline (credits land at now+1,
		// wakes at most div+1 out) so stale wakes pop and credits apply.
		for k := int64(1); k <= 10; k++ {
			n.Tick(now + k)
		}
		if event {
			if err := n.DebugLeaks(); err != nil {
				t.Errorf("seed %d shards=%d: %v", seed, shards, err)
			}
		} else if err := n.Quiesce(); err != nil {
			t.Errorf("seed %d dense: %v", seed, err)
		}
		if int64(injected) != n.Stats().Delivered {
			t.Errorf("seed %d event=%v shards=%d: delivered %d of %d",
				seed, event, shards, n.Stats().Delivered, injected)
		}
		out := outcome{stats: n.Stats(), delivered: delivered}
		for id := range out.execs {
			_, execs, elided := n.DebugRouterTicks(id)
			out.execs[id] = execs + elided
			out.elided += elided
		}
		return out
	}
	for seed := int64(1); seed <= 4; seed++ {
		ref := run(t, seed, false, 1)
		if ref.elided != 0 {
			t.Errorf("seed %d: the dense sweep elided %d ticks", seed, ref.elided)
		}
		for _, shards := range []int{1, 2} {
			got := run(t, seed, true, shards)
			// A credit returned to a sleeping router wakes nobody, yet every
			// router executes exactly the dense sweep's ticks minus those.
			if got.execs != ref.execs {
				t.Errorf("seed %d shards=%d: executed+elided ticks %v, dense executed %v", seed, shards, got.execs, ref.execs)
			}
			if got.elided == 0 {
				t.Errorf("seed %d shards=%d: no credit-only tick was elided", seed, shards)
			}
			if got.stats != ref.stats {
				t.Errorf("seed %d shards=%d: stats %+v, dense %+v", seed, shards, got.stats, ref.stats)
			}
			if len(got.delivered) != len(ref.delivered) {
				t.Errorf("seed %d shards=%d: %d distinct deliveries, dense %d",
					seed, shards, len(got.delivered), len(ref.delivered))
			}
			for id, c := range got.delivered {
				if ref.delivered[id] != c {
					t.Errorf("seed %d shards=%d: packet %d delivered %d times, dense %d",
						seed, shards, id, c, ref.delivered[id])
				}
			}
		}
	}
}

// TestQuiesceReportsCreditCategory pins the categorized drain error: a router
// holding nothing but scheduled credit returns is reported as exactly that,
// not as a generic "not idle".
func TestQuiesceReportsCreditCategory(t *testing.T) {
	n := newTestNet(t, 2, 2, testCfg())
	if err := n.Quiesce(); err != nil {
		t.Fatalf("fresh network not drained: %v", err)
	}
	n.routers[3].cr.push(creditMsg{slot: n.routers[3].vci(PortNorth, 0), at: 100})
	err := n.Quiesce()
	if err == nil {
		t.Fatal("pending credit return not reported")
	}
	if !strings.Contains(err.Error(), "credit returns") {
		t.Errorf("error %q does not name the credit category", err)
	}
	n.routers[3].cr.clear()
	if err := n.Quiesce(); err != nil {
		t.Fatalf("still not drained after clearing: %v", err)
	}
	// A flit stranded on a link is the other category: the report counts it.
	n.routers[3].addArrival(PortNorth, arrival{f: flit{pkt: &Packet{}}, at: 100})
	if err := n.Quiesce(); err == nil || !strings.Contains(err.Error(), "arrivals=1 credits=0") {
		t.Errorf("stranded arrival reported as %v, want the per-category counts", err)
	}
}

// TestSetPartitionRefusesUsedNetwork: the shard split is fixed before the
// network runs and carries nothing over, so re-splitting a network that has
// injected or ticked — under either stepper — must panic rather than drop
// its counters and deferred credits.
func TestSetPartitionRefusesUsedNetwork(t *testing.T) {
	for name, use := range map[string]func(n *Network){
		"injected":     func(n *Network) { n.Inject(&Packet{Src: 0, Dst: 3, NumFlits: 1}, 0) },
		"ticked dense": func(n *Network) { n.Tick(0) },
		"ticked event": func(n *Network) { n.SetEventDriven(true); n.Tick(0) },
	} {
		n := newTestNet(t, 2, 2, testCfg())
		n.SetPartition([]int{0, 0, 1, 1}) // fresh: legal, as often as wanted
		use(n)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetPartition accepted a used network", name)
				}
			}()
			n.SetPartition(nil)
		}()
	}
}
