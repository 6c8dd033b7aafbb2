package sim

import (
	"fmt"

	"nocmem/internal/cache"
	"nocmem/internal/cpu"
	"nocmem/internal/noc"
)

// inItem is a packet delivered to a tile, available from cycle at.
type inItem struct {
	pkt *noc.Packet
	at  int64
}

// action is node-local scheduled work, carried as plain data so it
// serializes for checkpointing: either a delayed L1->L2 request send
// (txn != nil) or a hit/store completion of a core ROB slot (txn == nil).
type action struct {
	at   int64
	slot int32
	txn  *Txn
	line uint64
}

// l2Job is a request occupying the L2 bank pipeline, finishing at done.
type l2Job struct {
	it   inItem
	done int64
	// failGen is the L2 MSHR table's generation when the job was last refused
	// an entry (0: never). Derived, not checkpointed: while the table still
	// reports that generation the retry provably fails again (cache.
	// MSHRTable.Gen), and the event stepper replays it instead of running it.
	failGen uint64
}

// itemQueue is a FIFO of delivered packets whose pop is O(1) and keeps the
// backing array: the live window is q[head:], compacted when it empties.
type itemQueue struct {
	q    []inItem
	head int
}

func (iq *itemQueue) len() int { return len(iq.q) - iq.head }

func (iq *itemQueue) front() inItem { return iq.q[iq.head] }

func (iq *itemQueue) push(it inItem) { iq.q = append(iq.q, it) }

func (iq *itemQueue) pop() inItem {
	it := iq.q[iq.head]
	iq.q[iq.head] = inItem{}
	iq.head++
	if iq.head == len(iq.q) {
		iq.q, iq.head = iq.q[:0], 0
	}
	return it
}

// node is one mesh tile: core + private L1 + one bank of the shared L2.
type node struct {
	id int
	s  *Simulator
	sh *simShard // owning shard (stepping, pools, collector)

	core *cpu.Core // nil on tiles without an application
	l1   *cache.Cache
	// l1m waiters are core ROB slot indices (noWaiter for stores, whose
	// fill needs no core notification).
	l1m *cache.MSHRTable[int32]

	l2 *cache.Cache
	// l2m waiters are the demand transactions coalesced onto the fetch.
	l2m *cache.MSHRTable[*Txn]

	// txnSeq numbers this tile's demand transactions; combined with the
	// tile id it yields process-wide unique Txn IDs without any shared
	// counter.
	txnSeq uint64

	// dir is the bank's slice of the sparse directory (see directory).
	dir directory

	inbox   []inItem  // delivered packets not yet dispatched
	l2Queue itemQueue // requests waiting for the L2 bank port
	l2Busy  []l2Job   // requests inside the L2 pipeline
	delayed []action  // L1-side scheduled work (hit completion, miss injection)

	// l2Refused counts the jobs the last tickL2 left waiting for an L2 MSHR.
	// When that is all of l2Busy the bank is blocked: see trySleep.
	l2Refused int

	// lastCoreTick is the last cycle the tile ticked; the gap to the current
	// cycle is the span of elided ticks replayed in closed form (replay).
	lastCoreTick int64

	// elidedStalls and elidedPolls count what the resource-blocked sleep
	// spared: core ticks of a fetch the LSQ or the L1 MSHRs refused, and L2
	// job retries the MSHR table was bound to refuse. Pure measurement
	// (DebugBlockedStats): never read on a simulated path, not checkpointed.
	elidedStalls, elidedPolls int64
}

func newNode(id int, s *Simulator) *node {
	cfg := s.cfg
	n := &node{
		id: id,
		s:  s,

		lastCoreTick: -1,

		l1:  cache.New(cfg.L1.SizeBytes, cfg.L1.LineBytes, cfg.L1.Ways),
		l1m: cache.NewMSHRTable[int32](cfg.L1.MSHRs),
		l2:  cache.New(cfg.L2.SizeBytes, cfg.L2.LineBytes, cfg.L2.Ways),
		l2m: cache.NewMSHRTable[*Txn](cfg.L2.MSHRs),
		dir: newDirectory(cfg.Mesh.Nodes()),
	}
	n.l1.SetLIPInsertion(cfg.L1.LIPInsertion)
	n.l2.SetLIPInsertion(cfg.L2.LIPInsertion)
	return n
}

// sendInv dispatches one inclusion-enforcing L1 invalidation.
func (n *node) sendInv(line uint64, tile int, now int64) {
	n.sh.send(now, n.id, tile, n.s.cfg.RequestFlits(),
		noc.VNetRequest, noc.Normal, 0, msgInvL2toL1, nil, line)
	n.sh.col.Invalidations++
}

// backInvalidate enforces inclusion: when the L2 evicts a line, every L1
// that may hold a copy receives a 1-flit invalidation, in ascending tile
// order.
func (n *node) backInvalidate(line uint64, now int64) {
	n.dir.take(line, func(tile int) { n.sendInv(line, tile, now) })
}

// deliver is the tile's network sink. A sleeping tile schedules a timed wake
// for the packet's availability cycle; an active one picks it up through its
// regular trySleep bookkeeping. (Ejection times per tile are nondecreasing,
// so the inbox stays sorted by at.)
func (n *node) deliver(p *noc.Packet, at int64) {
	n.inbox = append(n.inbox, inItem{pkt: p, at: at})
	if !n.s.dense && !n.sh.nodeActive.Has(n.id) {
		n.sh.nodeWakes.Push(at, int32(n.id))
	}
}

// dispatchInbox routes delivered packets to the L2 bank, the memory
// controller, or the L1 fill path.
func (n *node) dispatchInbox(now int64) {
	taken := 0
	for taken < len(n.inbox) && n.inbox[taken].at <= now {
		it := n.inbox[taken]
		taken++
		m := it.pkt.Payload.(*message)
		switch m.kind {
		case msgReqL1toL2, msgWBL1toL2, msgRespMCtoL2:
			if m.txn != nil && m.kind == msgReqL1toL2 {
				m.txn.ReqAtL2 = it.at
				m.txn.AgeAtL2 = it.pkt.Age
			}
			n.l2Queue.push(it)
		case msgReqL2toMC, msgWBL2toMC:
			mc := n.s.mcAt[n.id]
			if mc == nil {
				panic(fmt.Sprintf("sim: tile %d received %v but hosts no memory controller", n.id, m.kind))
			}
			mc.accept(it, now)
			n.sh.recycle(it.pkt)
		case msgRespL2toL1:
			n.fillL1(it, now)
			n.sh.recycle(it.pkt)
		case msgInvL2toL1:
			// Inclusive-L2 back-invalidation: drop the L1 copy; a
			// dirty copy goes straight to memory (its L2 home is gone).
			if n.l1.Invalidate(m.line) {
				n.sh.send(now, n.id, n.s.mcTileOf(m.line), n.s.cfg.ResponseFlits(),
					noc.VNetRequest, noc.Normal, 0, msgWBL2toMC, nil, m.line)
			}
			n.sh.recycle(it.pkt)
		default:
			panic(fmt.Sprintf("sim: tile %d cannot handle message kind %v", n.id, m.kind))
		}
	}
	if taken > 0 {
		// Compact in place, keeping the inbox's capacity (see the same
		// pattern on the router arrival queues).
		rest := copy(n.inbox, n.inbox[taken:])
		n.inbox = n.inbox[:rest]
	}
}

// tickL2 advances the bank pipeline: finish due jobs, then accept one new
// request per cycle.
func (n *node) tickL2(now int64) {
	// Finish jobs in completion order (the pipeline preserves it).
	// finishL2 may re-append a job on MSHR exhaustion, but always with
	// done = now+1, so the scan below never reaches re-appended work and
	// the queue can be compacted in place afterwards.
	finished := 0
	n.l2Refused = 0
	for finished < len(n.l2Busy) && n.l2Busy[finished].done <= now {
		job := n.l2Busy[finished]
		finished++
		if job.failGen == n.l2m.Gen() && !n.s.dense {
			// No entry left the table since this job was refused, so the
			// retry would miss in the bank and be refused again: account
			// exactly that. (The dense reference runs the retry.)
			n.l2.ReplayMisses(1)
			n.elidedPolls++
			n.requeueRefused(job.it, now)
			continue
		}
		n.finishL2(job.it, now)
	}
	if finished > 0 {
		n.l2Busy = n.l2Busy[:copy(n.l2Busy, n.l2Busy[finished:])]
	}
	if n.l2Queue.len() > 0 && n.l2Queue.front().at <= now {
		n.l2Busy = append(n.l2Busy, l2Job{it: n.l2Queue.pop(), done: now + n.s.cfg.L2.Latency})
	}
}

// requeueRefused parks a demand miss the L2 MSHR table refused: it retries
// next cycle, from the back of the pipeline.
func (n *node) requeueRefused(it inItem, now int64) {
	n.l2Busy = append(n.l2Busy, l2Job{it: it, done: now + 1, failGen: n.l2m.Gen()})
	n.l2Refused++
}

// finishL2 applies one request after its bank access latency elapsed.
func (n *node) finishL2(it inItem, now int64) {
	m := it.pkt.Payload.(*message)
	switch m.kind {
	case msgReqL1toL2:
		t := m.txn
		if n.l2.Access(n.s.snuca.Local(m.line), false) {
			n.dir.add(m.line, t.Core)
			n.respondToCore(t, t.AgeAtL2+(now-t.ReqAtL2), n.s.pol.BasePriority(t.Core), now)
			n.sh.recycle(it.pkt)
			return
		}
		n.missToMemory(it, now)

	case msgWBL1toL2:
		if !n.l2.WritebackHit(n.s.snuca.Local(m.line)) {
			// The line raced an L2 eviction (its back-invalidation is
			// in flight toward us): forward the data to memory.
			n.sh.send(now, n.id, n.s.mcTileOf(m.line), n.s.cfg.ResponseFlits(),
				noc.VNetRequest, noc.Normal, 0, msgWBL2toMC, nil, m.line)
		}
		n.sh.recycle(it.pkt)

	case msgRespMCtoL2:
		t := m.txn
		if v, evicted := n.l2.Fill(n.s.snuca.Local(m.line), false); evicted {
			victim := n.s.snuca.Global(v.Addr, n.id)
			n.backInvalidate(victim, now)
			if v.Dirty {
				n.sh.send(now, n.id, n.s.mcTileOf(victim), n.s.cfg.ResponseFlits(),
					noc.VNetRequest, noc.Normal, 0, msgWBL2toMC, nil, victim)
			}
		}
		mshr, ok := n.l2m.Complete(m.line)
		if !ok {
			panic(fmt.Sprintf("sim: L2 bank %d fill for line %#x without an MSHR", n.id, m.line))
		}
		for _, wt := range mshr.Waiters {
			n.dir.add(m.line, wt.Core)
			wt.RespAtL2 = it.at
			wt.MemDone = t.MemDone
			wt.SoFarAtMC = t.SoFarAtMC
			wt.OffChip = true
			wt.RespPriority = it.pkt.Priority
			// The response keeps its priority on the L2->L1 leg
			// (Figure 8: both return paths are expedited).
			n.respondToCore(wt, it.pkt.Age+(now-it.at), it.pkt.Priority, now)
		}
		n.l2m.Release(mshr)
		n.sh.recycle(it.pkt)

	default:
		panic(fmt.Sprintf("sim: L2 bank %d cannot finish %v", n.id, m.kind))
	}
}

// missToMemory turns an L2 demand miss into an off-chip request, retrying
// next cycle when the bank's MSHRs are exhausted. It owns the request
// packet: recycled on every path except the retry, which keeps it queued.
func (n *node) missToMemory(it inItem, now int64) {
	m := it.pkt.Payload.(*message)
	t := m.txn
	primary, ok := n.l2m.Allocate(m.line, t.Store, t)
	if !ok {
		n.requeueRefused(it, now)
		return
	}
	if !primary {
		n.sh.recycle(it.pkt)
		return // coalesced onto an in-flight fetch
	}
	bank := n.s.amap.GlobalBank(m.line)
	pri := n.s.pol.RequestPriority(n.id, bank, t.Core, now) // Scheme-2 + app-aware hook
	n.sh.send(now, n.id, n.s.mcTileOf(m.line), n.s.cfg.RequestFlits(),
		noc.VNetRequest, pri, t.AgeAtL2+(now-t.ReqAtL2), msgReqL2toMC, t, m.line)
	n.sh.recycle(it.pkt)
}

// respondToCore sends the data response for one transaction back to its
// requesting tile.
func (n *node) respondToCore(t *Txn, age int64, pri noc.Priority, now int64) {
	n.sh.send(now, n.id, t.Core, n.s.cfg.ResponseFlits(),
		noc.VNetResponse, pri, age, msgRespL2toL1, t, t.Line)
}

// fillL1 completes a demand transaction at the requesting tile.
func (n *node) fillL1(it inItem, now int64) {
	m := it.pkt.Payload.(*message)
	t := m.txn
	mshr, ok := n.l1m.Complete(m.line)
	if !ok {
		panic(fmt.Sprintf("sim: tile %d L1 fill for line %#x without an MSHR", n.id, m.line))
	}
	if v, evicted := n.l1.Fill(m.line, mshr.Dirty); evicted && v.Dirty {
		n.sh.send(now, n.id, n.s.snuca.Bank(v.Addr), n.s.cfg.ResponseFlits(),
			noc.VNetRequest, noc.Normal, 0, msgWBL1toL2, nil, v.Addr)
	}
	for _, w := range mshr.Waiters {
		if w != noWaiter {
			n.core.Complete(int(w), now)
		}
	}
	n.l1m.Release(mshr)
	t.Done = now
	n.sh.col.done(t)
	if t.OffChip {
		n.s.pol.RoundTripDone(t.Core, t.Total()) // Scheme-1 feedback
	}
	n.sh.retireTxn(t)
}

// noWaiter marks an L1 MSHR waiter needing no core notification on fill
// (stores, which complete against the store buffer instead).
const noWaiter = int32(-1)

// issue is the core's path into the memory hierarchy (cpu.IssueFunc).
//
// Stores complete against the store buffer after the L1 latency and never
// block the instruction window; the line fetch they trigger on a miss still
// runs to completion (write-allocate) and marks the line dirty.
func (n *node) issue(addr uint64, isWrite bool, slot int) bool {
	// issue only runs inside this tile's core.Tick, so the executing cycle
	// is lastCoreTick (set at the top of tickCore). Under sharded stepping
	// s.now is advanced before the phases run and must not be read here.
	now := n.lastCoreTick
	line := n.l1.LineAddr(addr)
	waiter := int32(slot)
	if isWrite {
		waiter = noWaiter
	}
	done := func() { // store-buffer / L1-hit completion of the ROB slot
		n.delayed = append(n.delayed, action{at: now + n.s.cfg.L1.Latency, slot: int32(slot)})
	}
	if n.l1m.Pending(line) {
		// Must coalesce (the line is already being fetched); the lookup
		// below would otherwise miss-count it.
		_, _ = n.l1m.Allocate(line, isWrite, waiter)
		if isWrite {
			done()
		}
		return true
	}
	if n.l1.Access(addr, isWrite) {
		done()
		return true
	}
	primary, ok := n.l1m.Allocate(line, isWrite, waiter)
	if !ok {
		return false // MSHRs exhausted; core stalls
	}
	if isWrite {
		done()
	}
	if !primary {
		panic("sim: primary L1 miss raced a pending entry")
	}
	n.txnSeq++
	t := n.sh.newTxn()
	t.ID, t.Core, t.Line, t.Store, t.Birth = uint64(n.id+1)<<32|n.txnSeq, n.id, line, isWrite, now
	// The request leaves for the L2 bank after the L1 lookup latency.
	n.delayed = append(n.delayed, action{at: now + n.s.cfg.L1.Latency, txn: t, line: line})
	return true
}

// sendL1Request fires a delayed miss request (the txn != nil action form).
func (n *node) sendL1Request(t *Txn, line uint64, at int64) {
	n.sh.send(at, n.id, n.s.snuca.Bank(line), n.s.cfg.RequestFlits(),
		noc.VNetRequest, n.s.pol.BasePriority(n.id), 0, msgReqL1toL2, t, line)
}

// catchUp brings a waking tile up to date before cycle now executes: the
// cycles it slept through are replayed in closed form. It must run before any
// of the waking cycle's own effects: an arriving fill decrements the in-flight
// count and frees MSHRs, and the elided cycles must still observe the old
// values.
func (n *node) catchUp(now int64) {
	if k := now - n.lastCoreTick - 1; k > 0 {
		n.replay(k)
	}
	n.lastCoreTick = now - 1
}

// replay accounts the k cycles after lastCoreTick, which the tile slept
// through, exactly as the dense loop would have executed them. trySleep only
// lets a tile sleep past work whose every cycle is the same:
//
//   - a stalled core (cpu.SleepUntil): CatchUpStall, plus one L1 miss per
//     cycle when the stall is a refused access — each retry looks the line up
//     again before the full MSHR table refuses it;
//   - a blocked bank — every job in the pipeline waiting for an L2 MSHR, which
//     shows as a head job due the cycle after the last tick (a tile never
//     sleeps past a due job otherwise): each cycle retries every job in order,
//     each misses in the bank, is refused and goes to the back with
//     done = cycle+1, which leaves the order as it was.
func (n *node) replay(k int64) {
	if n.core != nil {
		n.core.CatchUpStall(k)
		if n.core.WindowOccupancy() < n.s.cfg.CPU.WindowSize {
			n.elidedStalls += k
		}
		if n.core.Refused() {
			n.l1.ReplayMisses(k)
		}
	}
	if m := len(n.l2Busy); m > 0 && n.l2Busy[0].done == n.lastCoreTick+1 {
		n.l2.ReplayMisses(k * int64(m))
		n.elidedPolls += k * int64(m)
		for i := range n.l2Busy {
			n.l2Busy[i].done += k
		}
	}
}

// tickCore runs delayed L1 work and the core itself.
func (n *node) tickCore(now int64) {
	n.lastCoreTick = now
	if len(n.delayed) > 0 {
		kept := n.delayed[:0]
		for _, a := range n.delayed {
			switch {
			case a.at > now:
				kept = append(kept, a)
			case a.txn != nil:
				n.sendL1Request(a.txn, a.line, now)
			default:
				n.core.Complete(int(a.slot), now)
			}
		}
		n.delayed = kept
	}
	if n.core != nil {
		n.core.Tick(now)
	}
}
