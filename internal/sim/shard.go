package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"nocmem/internal/bitset"
	"nocmem/internal/noc"
	"nocmem/internal/par"
	"nocmem/internal/timerwheel"
)

// Sharded stepping splits the tile range into one contiguous cost-balanced
// chunk per worker (see partition.go), stepped by Run.Shards worker
// goroutines. A cycle runs in two phases separated by barriers:
//
//	barrier (serial: policy tick, quiescence fast-forward, cycle advance)
//	phaseFront: MC ticks, node front-ends, network tick   — per chunk
//	barrier
//	phaseBack: boundary drain, cores, sleep bookkeeping   — per chunk
//
// Everything a chunk mutates during a phase is owned by it: its tiles, its
// controllers, its routers (see noc.netShard), its wake wheels, collector
// and pools. The only cross-chunk traffic is router-boundary flits and
// credits, which travel through fixed-order SPSC queues drained in phaseBack
// (noc.DrainShard), and the Scheme-1/2 counters, which are atomic adds.
// Because every boundary item is future-dated and the merge order is fixed,
// the results are *partition-independent*: byte-identical to the sequential
// stepper for any chunk layout and any worker count — the equivalence tests
// enforce this, and the sequential path remains the reference semantics.

// simShard owns a disjoint contiguous range of tiles and their hosted
// memory controllers, mirroring the noc partition with the same shard ids.
// Worker w steps shard w, every cycle.
type simShard struct {
	id int
	s  *Simulator

	nodes []*node   // owned tiles, ascending id
	mcs   []*mcNode // owned controllers, ascending idx

	// Event-driven scheduler state, shard-local (see sched.go): active sets
	// index by global node id / controller idx, but only owned members'
	// bits are ever set. Timed wakes live in two timing wheels keyed by the
	// component index — separate wheels so quietTarget can read the
	// controller horizon alone when deciding a DRAM write-drain
	// fast-forward. Wakes are never cancelled; stale ones cause a harmless
	// spurious tick.
	nodeActive bitset.Set
	mcActive   bitset.Set
	nodeWakes  *timerwheel.Wheel[int32]
	mcWakes    *timerwheel.Wheel[int32]
	wakeBuf    []timerwheel.Due[int32] // reused PopDue delivery buffer

	// blocked counts owned tiles asleep resource-blocked (node.blocked).
	// While it is nonzero the clock does not fast-forward; see node.trySleep.
	blocked int

	// col accumulates measurements for events executed by this shard; a
	// tile-indexed entry may be written by a foreign shard's collector copy
	// (e.g. SoFar at the MC), so results() merges all shards elementwise.
	col *Collector

	// Packet/message free lists: protocol messages are born at an inject
	// site and die at exactly one consumption point (see recycle). Objects
	// may migrate between shards (allocated here, recycled there) — they
	// are zeroed on recycle, so pools mix freely.
	pkts    noc.PacketPool
	msgFree []*message
}

// drainWakes activates components whose timed wakes are due.
func (sh *simShard) drainWakes(now int64) {
	sh.wakeBuf = sh.nodeWakes.PopDue(now, sh.wakeBuf[:0])
	for _, d := range sh.wakeBuf {
		sh.nodeActive.Add(int(d.Val))
	}
	sh.wakeBuf = sh.mcWakes.PopDue(now, sh.wakeBuf[:0])
	for _, d := range sh.wakeBuf {
		sh.mcActive.Add(int(d.Val))
	}
}

// send builds a pooled packet carrying a pooled protocol message and injects
// it at the executing tile's router. Every send has exactly one matching
// recycle at the packet's consumption point.
func (sh *simShard) send(now int64, src, dst, flits int, vn noc.VNet, pri noc.Priority, age int64, kind msgKind, t *Txn, line uint64) {
	var m *message
	if l := len(sh.msgFree); l > 0 {
		m = sh.msgFree[l-1]
		sh.msgFree[l-1] = nil
		sh.msgFree = sh.msgFree[:l-1]
	} else {
		m = &message{}
	}
	m.kind, m.txn, m.line = kind, t, line
	p := sh.pkts.Get()
	p.Src, p.Dst, p.NumFlits = src, dst, flits
	p.VNet, p.Priority, p.Age = vn, pri, age
	p.Payload = m
	if err := sh.s.net.Inject(p, now); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
}

// recycle retires a fully-consumed packet and its message. The caller must
// be the packet's final reader.
func (sh *simShard) recycle(p *noc.Packet) {
	if m, ok := p.Payload.(*message); ok {
		*m = message{}
		sh.msgFree = append(sh.msgFree, m)
	}
	sh.pkts.Put(p)
}

// phaseFront runs the first half of one cycle for this shard, in the dense
// stepper's canonical order: due wakes, MC ticks, node front-ends (catch-up
// of slept-through cycles, inbox dispatch, L2 bank), then the shard's routers.
// Active components tick in ascending index order, exactly like the
// sequential stepper restricted to this shard's members.
func (sh *simShard) phaseFront(now int64) {
	sh.drainWakes(now)
	for wi := range sh.mcActive {
		w := sh.mcActive[wi]
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			sh.s.mcs[i].ctl.Tick(now)
		}
	}
	for wi, w := range sh.nodeActive {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			n := sh.s.nodes[i]
			n.catchUp(now)
			n.dispatchInbox(now)
			n.tickL2(now)
		}
	}
	sh.s.net.TickShard(sh.id, now)
}

// phaseBack runs the second half of one cycle: merge cross-shard boundary
// traffic (deterministic fixed order, see noc.DrainShard), tick the cores,
// then retire quiescent components from the active sets.
func (sh *simShard) phaseBack(now int64) {
	sh.s.net.DrainShard(sh.id)
	for wi, w := range sh.nodeActive {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			sh.s.nodes[i].tickCore(now)
		}
	}
	for wi, w := range sh.nodeActive {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			sh.s.nodes[i].trySleep(now)
		}
	}
	for wi := range sh.mcActive {
		w := sh.mcActive[wi]
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			sh.s.mcs[i].trySleep(now)
		}
	}
}

// stepPar is the coordination state of one parallel Step call. Every field
// is written only in the barrier's serial section (or before the workers
// start) and read by workers after the barrier, so access needs no further
// synchronization.
type stepPar struct {
	bar   *par.Barrier
	end   int64
	stop  bool  // end reached: workers return
	skip  bool  // this round fast-forwarded; no phases to run
	cycle int64 // the cycle the phases execute
}

// stepSharded advances the system to end with one worker goroutine per
// shard. The calling goroutine doubles as worker 0.
func (s *Simulator) stepSharded(end int64) {
	s.par = stepPar{bar: par.NewBarrier(len(s.shards)), end: end}
	var wg sync.WaitGroup
	for w := 1; w < len(s.shards); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.shardWorker(w)
		}(w)
	}
	s.shardWorker(0)
	wg.Wait()
}

// shardWorker is worker w's cycle loop over shard w. All workers observe the
// same serial-section decisions each round, so they take identical branches
// and exit together.
func (s *Simulator) shardWorker(w int) {
	sh := s.shards[w]
	for {
		s.par.bar.Wait(s.cycleSerial)
		if s.par.stop {
			return
		}
		if s.par.skip {
			continue
		}
		c := s.par.cycle
		sh.phaseFront(c)
		s.par.bar.Wait(nil)
		sh.phaseBack(c)
	}
}

// cycleSerial is the per-cycle serial section, run by the barrier's last
// arriver while the other workers spin: the end-of-Step check, then the same
// cycle head as the sequential loop (cycleHead), published to the workers.
func (s *Simulator) cycleSerial() {
	if s.now >= s.par.end {
		s.par.stop = true
		return
	}
	now, exec := s.cycleHead(s.par.end)
	s.par.skip = !exec
	s.par.cycle = now
}
