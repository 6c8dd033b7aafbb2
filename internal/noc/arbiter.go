package noc

import "nocmem/internal/config"

// arbPolicy captures the arbitration rule parameters derived from the
// network configuration.
type arbPolicy struct {
	mode          config.AntiStarvation
	window        int64 // AgeWindow bound
	batchInterval int64 // Batching interval
}

func newArbPolicy(cfg config.NoC) arbPolicy {
	return arbPolicy{mode: cfg.StarvationMode, window: cfg.StarvationWindow, batchInterval: cfg.BatchInterval}
}

// candidate is one arbitration contender: the front flit of an input VC,
// reduced to what the rule compares — its packet's priority class, its
// effective age (packet so-far delay plus local residence, per Section 3.3:
// "the routers also consider the local delays in addition to the age fields")
// and, for batching mode, the batch its packet was injected in. It holds no
// pointer: building and comparing candidates touches no flit or packet memory.
type candidate struct {
	high  bool
	age   int64
	batch int64
	// ord is the contender's flat input VC index; it breaks ties
	// deterministically in (port, vc) order.
	ord int
}

// makeCandidate builds the contender for the front flit of input VC i from
// the router's own per-VC state: the priority bit and so-far delay its
// header carried past (see router.inAge) plus the front flit's local
// residence. No live Packet field is read, so arbitration at one router never
// observes (or races with) header progress at another — batching mode alone
// looks up the packet's immutable injection cycle.
func (r *router) makeCandidate(i int, now int64) candidate {
	c := candidate{high: r.high&(1<<uint(i)) != 0, age: r.inAge[i] + (now - r.frontEntry[i]), ord: i}
	if r.arb.mode == config.Batching {
		c.batch = r.front(i).pkt.InjectedAt / r.arb.batchInterval
	}
	return c
}

// beats reports whether candidate a should win arbitration over b.
//
// AgeWindow (the paper's default): a high-priority flit beats a normal one
// unless the normal flit's age exceeds the high-priority flit's age by more
// than the starvation window; within a class, older wins.
//
// Batching: packets of older batches always rank first; priority (then age)
// only breaks ties within a batch.
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

// pickBest returns the index of the winning candidate, or -1 when empty.
func pickBest(cands []candidate, pol arbPolicy) int {
	best := -1
	for i := range cands {
		if best == -1 || cands[i].beats(cands[best], pol) {
			best = i
		}
	}
	return best
}
