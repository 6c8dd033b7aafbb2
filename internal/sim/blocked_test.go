package sim

import (
	"bytes"
	"testing"

	"nocmem/internal/trace"
)

// TestBlockedStallEquivalence is the oracle for the third kind of sleep. Each
// core alternates a burst of loads and stores to distinct lines that all live
// in one L2 bank with a stretch of non-memory instructions. One burst is more
// than the L1 holds MSHRs for, and the L1 holds more MSHRs than an L2 bank, so
// every burst first exhausts the bank's table (its refused requests retry) and
// then the core's (its fetch is refused), and the gap lets both drain again.
// With both MSHR levels provably exhausted, the dense reference, the event
// stepper and the 2-worker sharded stepper must agree on every statistic —
// including the per-tile cache counters, which carry the replayed retry misses
// and LRU clock — across a warmup/measurement boundary that falls while cores
// and a bank are asleep blocked. The checkpoint taken at that boundary must be
// the dense stepper's byte for byte, and a run restored from it must finish
// byte-identically. One router on the path is clock-divided, so credits due
// off its clock grid keep their timed wakes while the others are deferred.
func TestBlockedStallEquivalence(t *testing.T) {
	cfg := smallConfig()
	cfg.NoC.ClockDivisors = map[int]int{6: 2}
	nodes := cfg.Mesh.Nodes()
	const bank = 10 // a tile without a core, so its sleep is the bank's alone
	coreTiles := []int{0, 3, 12}
	if cfg.L1.MSHRs <= cfg.L2.MSHRs {
		t.Fatalf("test premise: L1 MSHRs (%d) must exceed an L2 bank's (%d)", cfg.L1.MSHRs, cfg.L2.MSHRs)
	}

	apps := make([]trace.Profile, nodes)
	traces := make([][]byte, nodes)
	for j, tile := range coreTiles {
		apps[tile] = trace.Profile{Name: "burst"}
		src := &burstSource{
			burst: 3 * cfg.L1.MSHRs, gap: 1_500, gapLeft: 1 + 400*j, storeEvery: 4,
			addr: 64 * (uint64(j+1)<<20 + bank), stride: 64 * uint64(nodes),
		}
		var buf bytes.Buffer
		if err := trace.Record(&buf, src, 120_000); err != nil {
			t.Fatal(err)
		}
		traces[tile] = buf.Bytes()
	}
	sources := func() []trace.AppSource {
		srcs := make([]trace.AppSource, nodes)
		for tile, raw := range traces {
			if raw == nil {
				continue
			}
			ft, err := trace.Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			srcs[tile] = ft
		}
		return srcs
	}
	build := func(dense bool, shards int) *Simulator {
		c := cfg
		c.Run.Shards = shards
		s, err := NewFromSources(c, sources(), apps)
		if err != nil {
			t.Fatal(err)
		}
		s.SetDenseStepping(dense)
		return s
	}
	// blocked reports whether, between cycles, some core sleeps on a refused
	// fetch and the bank sleeps with every pipeline job refused.
	blocked := func(s *Simulator) bool {
		coreBlocked := false
		for _, tile := range coreTiles {
			n := s.nodes[tile]
			coreBlocked = coreBlocked || (n.blocked && n.core.Refused())
		}
		b := s.nodes[bank]
		return coreBlocked && b.blocked && b.l2Refused > 0 && b.l2Refused == len(b.l2Busy)
	}

	// Find the boundary: a cycle after some bursts at which the event stepper
	// has both kinds asleep and has been skipping their ticks for a while.
	// Blocked sleepers hold the clock: a cycle that starts with them asleep
	// executes, it is not fast-forwarded over.
	probe := build(false, 1)
	probe.Step(4_000)
	for run := 0; run < 5; {
		if probe.Now() > 12_000 {
			t.Fatal("no cycle with a refused core and a blocked bank asleep: the workload exhausts too little")
		}
		held, ticked := blocked(probe), probe.ticked
		probe.Step(1)
		if held && probe.ticked != ticked+1 {
			t.Fatalf("cycle %d was skipped while tiles slept resource-blocked", probe.Now()-1)
		}
		if blocked(probe) {
			run++
		} else {
			run = 0
		}
	}
	warm := probe.Now()
	const measure = 9_000
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = warm, measure

	type outcome struct {
		json   []byte
		res    *Result
		snap   []byte
		ticked int64 // executed cycles at the boundary
		sim    *Simulator
	}
	finish := func(s *Simulator) ([]byte, *Result) {
		s.Step(warm + measure - s.Now())
		res := s.results()
		var j bytes.Buffer
		if err := res.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), res
	}
	// run steps to the boundary, checkpoints there, resets the statistics and
	// completes the window. ticked, when non-negative, overrides the executed-
	// cycle count in the checkpoint header: the dense stepper does not keep it,
	// and it is the one field that tells the steppers' images apart.
	run := func(dense bool, shards int, ticked int64) outcome {
		s := build(dense, shards)
		s.Step(warm)
		if !dense && shards == 1 && !blocked(s) {
			t.Fatal("the boundary does not fall inside a blocked interval")
		}
		if ticked >= 0 {
			s.ticked = ticked
		}
		atBoundary := s.ticked
		var snap bytes.Buffer
		if err := s.Checkpoint(&snap); err != nil {
			t.Fatal(err)
		}
		s.resetStats()
		j, res := finish(s)
		return outcome{json: j, res: res, snap: snap.Bytes(), ticked: atBoundary, sim: s}
	}
	same := func(name string, ref, got outcome) {
		t.Helper()
		expectSame(t, name, ref.json, ref.res, got.json, got.res)
		for tile := range ref.res.L1 {
			if ref.res.L1[tile] != got.res.L1[tile] || ref.res.L2[tile] != got.res.L2[tile] {
				t.Fatalf("%s: tile %d cache stats differ:\ndense L1 %+v L2 %+v\n%s L1 %+v L2 %+v", name, tile,
					ref.res.L1[tile], ref.res.L2[tile], name, got.res.L1[tile], got.res.L2[tile])
			}
		}
	}

	event := run(false, 1, -1)
	dense := run(true, 1, event.ticked)
	sharded := run(false, 2, -1)
	same("event", dense, event)
	same("sharded_2", dense, sharded)
	if got := sharded.sim.DebugTickedCycles(); got != event.sim.DebugTickedCycles() {
		t.Errorf("sharded stepper executed %d cycles, sequential event stepper %d", got, event.sim.DebugTickedCycles())
	}
	if !bytes.Equal(dense.snap, event.snap) {
		t.Errorf("checkpoint taken while blocked differs from the dense stepper's (%d vs %d bytes)", len(event.snap), len(dense.snap))
	}
	if !bytes.Equal(dense.snap, sharded.snap) {
		t.Errorf("sharded checkpoint taken while blocked differs from the dense stepper's")
	}

	// The elisions engaged — all three — and only outside the reference.
	if b := dense.sim.DebugBlockedStats(); b != (BlockedStats{}) {
		t.Errorf("dense stepper elided work: %+v", b)
	}
	for name, o := range map[string]outcome{"event": event, "sharded_2": sharded} {
		if b := o.sim.DebugBlockedStats(); b.CoreStallCycles == 0 || b.L2RetryPolls == 0 || b.CreditWakes == 0 {
			t.Errorf("%s: an elision never engaged: %+v", name, b)
		}
		// The router pin: every router executes the dense sweep's ticks minus
		// the credit-only ones it was never woken for.
		for id := 0; id < nodes; id++ {
			_, dExecs, _ := dense.sim.net.DebugRouterTicks(id)
			_, execs, elided := o.sim.net.DebugRouterTicks(id)
			if execs+elided != dExecs {
				t.Errorf("%s: router %d executed %d ticks + %d elided, dense executed %d", name, id, execs, elided, dExecs)
			}
		}
	}
	if bankL2 := event.res.L2[bank]; bankL2.Misses <= bankL2.Fills {
		t.Errorf("bank %d counted %d misses for %d fills: retry misses are not being counted", bank, bankL2.Misses, bankL2.Fills)
	}

	// A restore from the blocked checkpoint completes the window identically,
	// under the stepper that took it and under the reference.
	for _, m := range []struct {
		name  string
		dense bool
	}{{"restored_event", false}, {"restored_dense", true}} {
		s, err := RestoreFromSources(cfg, sources(), apps, bytes.NewReader(event.snap))
		if err != nil {
			t.Fatal(err)
		}
		s.SetDenseStepping(m.dense)
		s.resetStats()
		j, res := finish(s)
		same(m.name, dense, outcome{json: j, res: res})
	}
}
