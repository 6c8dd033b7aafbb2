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

// arbKey ranks one arbitration contender — the front flit of an input VC —
// among the others: the contender with the greatest key wins.
//
// Section 3.3 compares effective ages, the so-far delay the packet's header
// carried into the router plus the front flit's local residence ("the routers
// also consider the local delays in addition to the age fields"), i.e.
// inAge + now - routerEntry. The cycle now is common to every contender of an
// arbitration, so the rule only ever compares age' = inAge - routerEntry, a
// constant of the front flit. That makes the whole rule a static total order,
// fixed when the flit reaches the front of its VC (router.newFront) and held
// in the router's derived state; VA and SA load and compare keys and read no
// flit or packet memory.
//
// AgeWindow (the paper's default): a high-priority flit beats a normal one
// unless the normal flit's age exceeds the high-priority flit's age by more
// than the starvation window; within a class, older wins. That is the
// lexicographic order on (age' + window·[high], [high], -vc index): the fixed
// class priority plus an age offset.
//
// Batching: packets of older batches always rank first; priority, then age,
// only break ties within a batch: (-batch, [high], age', -vc index).
//
// The index makes keys of distinct VCs distinct (ties resolve in (port, vc)
// order). Each order is packed into two words compared lexicographically —
// AgeWindow's fits in hi alone, so lo is never consulted there. With cycle
// counts and ages below 2^40, |age'| < 2^41, and config.Validate bounds the
// window by config.MaxStarvationWindow = 2^40: the widest packed field,
// (2^44 + age') << 6, stays below 2^51.
type arbKey struct{ hi, lo int64 }

// Packing constants: a VC index takes the low idxBits (NumPorts·MaxVCsPerPort
// ≤ 64), stored inverted so that the lower index has the greater key.
const (
	idxBits   = 6
	idxMask   = 1<<idxBits - 1
	classStep = 1 << 44 // dominates any age' within a Batching class
)

// over reports whether k wins arbitration against o.
func (k arbKey) over(o arbKey) bool {
	return k.hi > o.hi || (k.hi == o.hi && k.lo > o.lo)
}

// key builds the arbitration key of a flit of pkt at the front of input VC i:
// high is the packet's priority class as the VC recorded it, age the carried
// so-far delay less the flit's entry cycle (age' above). No live Packet field
// is read — arbitration at one router never observes (or races with) header
// progress at another — except, in batching mode, the immutable injection
// cycle.
func (pol arbPolicy) key(high bool, age int64, pkt *Packet, i int) arbKey {
	var class int64
	if high {
		class = 1
	}
	idx := int64(idxMask - i)
	if pol.mode == config.Batching {
		return arbKey{hi: -(pkt.InjectedAt / pol.batchInterval), lo: (class*classStep+age)<<idxBits | idx}
	}
	return arbKey{hi: (age+class*pol.window)<<(idxBits+1) | class<<idxBits | idx}
}
