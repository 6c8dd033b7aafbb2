package noc

import (
	"fmt"
	"math"
	"math/bits"

	"nocmem/internal/bitset"
	"nocmem/internal/config"
	"nocmem/internal/timerwheel"
)

// Stats aggregates network-level counters.
type Stats struct {
	Injected     int64
	Delivered    int64
	FlitHops     int64
	LatencySum   int64 // sum of per-packet network latencies
	HighInjected int64
	InFlight     int64
}

func (s *Stats) add(o Stats) {
	s.Injected += o.Injected
	s.Delivered += o.Delivered
	s.FlitHops += o.FlitHops
	s.LatencySum += o.LatencySum
	s.HighInjected += o.HighInjected
	s.InFlight += o.InFlight
}

// AvgLatency returns the mean delivered-packet network latency.
func (s Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Delivered)
}

// Sink receives reassembled packets at their destination tile. The cycle is
// the tail-flit ejection time; the packet is available to the endpoint from
// that cycle on.
type Sink func(p *Packet, cycle int64)

// Network is a W x H mesh of wormhole VC routers.
type Network struct {
	cfg     config.NoC
	w, h    int
	routers []router // one slab; routers point at each other inside it
	xy      []tileXY // per tile: mesh coordinates
	sinks   []Sink

	// shards partition the routers for (optionally parallel) stepping; see
	// netShard. There is always at least one shard — New builds a single
	// shard holding every router, SetPartition splits it before the first tick.
	shards []*netShard

	// eventDriven switches Tick from the dense sweep over all routers to
	// iterating only the per-shard active sets. A router leaves its set when
	// it has nothing executable next cycle — either drained (no state, no
	// wake) or holding only future-dated work, in which case it parks a
	// timed wake for its exact next deadline (router.nextWake) on its
	// shard's wake wheel. It re-enters through wakeAt, called at every point
	// work can appear (Inject, arrival hand-off, boundary drain), or when its
	// timed wake comes due (TickShard). Spurious wakes are harmless — a ticked
	// router with nothing due changes no state — so the sets and wheels may
	// over-approximate but never under-approximate. A returned credit is the
	// one event that wakes nobody: see creditReturned.
	eventDriven bool
}

// netShard owns a disjoint subset of routers. Everything a router mutates
// while ticking lives either in the router itself or here — active set,
// stats — so shard workers never write shared state. The only
// cross-shard traffic is boundary flits and credits, which a dispatching
// router pushes into per-directed-edge SPSC queues (see boundary.go); the
// owning shard drains its incoming queues in fixed order after the tick
// barrier (DrainShard).
type netShard struct {
	id      int
	members []int      // router ids owned, ascending
	active  bitset.Set // global router indices; only members' bits are set
	stats   Stats      // counters for events executed by this shard's routers
	edgesIn []*edgeQueue

	// wakes is the timing wheel of timed router wakes for this shard's
	// members (the value is the router id), mirroring the node/controller
	// wheels in internal/sim. Touched only by the shard's own worker
	// (TickShard drains, TickShard/DrainShard push), so no synchronization
	// is needed. Wakes are never cancelled; a stale one causes a harmless
	// spurious tick at its deadline.
	wakes   *timerwheel.Wheel[int32]
	wakeBuf []timerwheel.Due[int32] // reused PopDue delivery buffer

	// ticked is the last cycle TickShard ran (-1 before the first), the
	// horizon up to which deferred credits are settled when router state is
	// read.
	ticked int64

	// drainMin is DrainShard's per-phase scratch: the minimum pending
	// deadline per sleeping destination router, so a router fed by several
	// boundary queues gets one batched wheel push instead of one per queue.
	// A few entries at most (bounded by the shard's boundary degree), so a
	// linear scan beats a map.
	drainMin []drainWake
}

// New builds the mesh. Sinks default to discarding packets; endpoints
// register theirs with SetSink.
func New(mesh config.Mesh, cfg config.NoC) (*Network, error) {
	full := config.Baseline32()
	full.Mesh, full.NoC = mesh, cfg
	if err := full.Validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, w: mesh.Width, h: mesh.Height}
	nodes := mesh.Nodes()
	n.routers = make([]router, nodes)
	n.sinks = make([]Sink, nodes)
	n.xy = make([]tileXY, nodes)
	for i := range n.xy {
		n.xy[i] = tileXY{x: int32(i % n.w), y: int32(i / n.w)}
	}
	arb := newArbPolicy(cfg)
	vcs, depth := cfg.VCsPerPort, cfg.BufferDepth
	nv := NumPorts * vcs
	pos := make([]vcPos, nv)
	for i := range pos {
		p, vc := i/vcs, i%vcs
		pos[i] = vcPos{port: int8(p), vc: int8(vc), vnet: VNet(vc / (vcs / int(NumVNets))), up: -1}
		if p != PortLocal {
			pos[i].up = int8(opposite(p)*vcs + vc)
		}
	}
	// The credit bound sizes every link ring: a flit on the link toward an
	// input port, or a credit on its way back from it, holds one of the
	// port's vcs*depth buffer slots. A router has four mesh input ports and
	// receives the credits of four mesh output ports.
	link := vcs * depth
	flits := make([]flit, nodes*nv*depth)
	arrs := make([]arrival, nodes*(NumPorts-1)*link)
	crs := make([]creditMsg, nodes*(NumPorts-1)*link)
	for i := range n.routers {
		r := &n.routers[i]
		r.id, r.x, r.y, r.net, r.div = i, i%n.w, i/n.w, n, 1
		if d, ok := cfg.ClockDivisors[i]; ok {
			r.div = int64(d)
		}
		r.vcs = vcs
		r.portMask = 1<<uint(vcs) - 1
		for vn := range r.vnMask {
			lo, hi := r.vnetRange(VNet(vn))
			r.vnMask[vn] = 1<<uint(hi) - 1<<uint(lo)
		}
		r.depth = depth
		r.pos = pos
		r.xy = n.xy
		r.arb = arb
		r.adaptive = cfg.Routing == config.RoutingWestFirst
		r.fastAll = cfg.Pipeline == config.Pipeline2
		r.fastHigh = cfg.EnableBypass
		r.vaWait = rcDelay5 * r.div
		if !r.fastAll {
			r.bodyWait = bodyDelay * r.div
		}
		r.buf, flits = flits[:nv*depth:nv*depth], flits[nv*depth:]
		for p := PortNorth; p < NumPorts; p++ {
			r.arr[p].buf, arrs = arrs[:link:link], arrs[link:]
		}
		r.cr.buf, crs = crs[:4*link:4*link], crs[4*link:]
		for i := 0; i < nv; i++ {
			r.outCredits[i] = int32(depth)
			r.outHolder[i] = -1
		}
		r.inj = make([]injSlot, vcs)
	}
	for i := range n.routers {
		r := &n.routers[i]
		if r.y > 0 {
			r.neighbor[PortNorth] = &n.routers[r.id-n.w]
		}
		if r.y < n.h-1 {
			r.neighbor[PortSouth] = &n.routers[r.id+n.w]
		}
		if r.x > 0 {
			r.neighbor[PortWest] = &n.routers[r.id-1]
		}
		if r.x < n.w-1 {
			r.neighbor[PortEast] = &n.routers[r.id+1]
		}
	}
	n.SetPartition(nil)
	return n, nil
}

// SetPartition fixes the shard split of a network that has not run yet.
// shardOf maps router id -> shard index (indices must cover 0..max
// contiguously); nil means one shard owning everything. Cross-shard
// adjacencies get one SPSC edge queue per direction, created in fixed (source
// router ascending, then port ascending) order and appended to the
// destination shard's drain list in that same order, which is what makes the
// boundary merge deterministic regardless of worker timing.
func (n *Network) SetPartition(shardOf []int) {
	if shardOf != nil && len(shardOf) != len(n.routers) {
		panic(fmt.Sprintf("noc: partition over %d routers, mesh has %d", len(shardOf), len(n.routers)))
	}
	// The split is a construction-time constant: nothing a shard accumulates
	// (counters, deferred-credit horizons, parked boundary items) is carried
	// into the new layout, so there must be nothing yet.
	used := n.Stats() != (Stats{})
	for i := range n.routers {
		used = used || n.routers[i].tickCalls != 0
	}
	if used {
		panic("noc: SetPartition on a network that has already injected or ticked")
	}
	k := 1
	for _, s := range shardOf {
		if s < 0 {
			panic(fmt.Sprintf("noc: negative shard index %d", s))
		}
		if s+1 > k {
			k = s + 1
		}
	}
	shards := make([]*netShard, k)
	for i := range shards {
		shards[i] = &netShard{id: i, active: bitset.New(len(n.routers)), wakes: timerwheel.New[int32](),
			ticked: -1}
	}
	for id := range n.routers {
		r := &n.routers[id]
		s := 0
		if shardOf != nil {
			s = shardOf[id]
		}
		shards[s].members = append(shards[s].members, id)
		r.sh = shards[s]
		r.xqCfg = [NumPorts]*edgeQueue{}
	}
	for i := range n.routers {
		r := &n.routers[i]
		for p := PortNorth; p < NumPorts; p++ {
			nb := r.neighbor[p]
			if nb == nil || nb.sh == r.sh {
				continue
			}
			q := &edgeQueue{dst: nb.id}
			r.xqCfg[p] = q
			nb.sh.edgesIn = append(nb.sh.edgesIn, q)
		}
	}
	n.shards = shards
	n.applyEventMode()
}

// SetEventDriven switches between the dense Tick (every router, every cycle)
// and active-set ticking. Enabling it marks every router active; the sets
// then shrink as routers drain. Both modes produce identical results; the
// dense sweep is retained as the equivalence reference.
func (n *Network) SetEventDriven(on bool) {
	if !on {
		n.settleCredits() // the dense sweep defers nothing
	}
	n.eventDriven = on
	n.applyEventMode()
}

// settleCredits banks, at every router, the returned credits whose cycle has
// passed while the router slept (see creditReturned), up to the last cycle
// its shard ticked. After it the routers hold what the dense sweep would.
func (n *Network) settleCredits() {
	for i := range n.routers {
		r := &n.routers[i]
		r.bankCredits(r.sh.ticked, false)
	}
}

// applyEventMode re-derives the mode-dependent state: per-shard active sets
// and wake wheels (every router active with an empty wheel in event mode —
// exact wakes re-derive as the sets shrink — both unused in dense mode) and
// the routers' live boundary queues. Boundary queues are active only in
// event mode with more than one shard — the dense sweep is single-goroutine
// and appends across shards directly — so any parked items are flushed to
// their destinations first.
func (n *Network) applyEventMode() {
	sharded := n.eventDriven && len(n.shards) > 1
	if !sharded {
		for i := range n.shards {
			n.DrainShard(i)
		}
	}
	for _, sh := range n.shards {
		sh.active.Clear()
		sh.wakes.Reset()
		if n.eventDriven {
			for _, id := range sh.members {
				sh.active.Add(id)
			}
		}
	}
	for i := range n.routers {
		r := &n.routers[i]
		if sharded {
			r.xq = r.xqCfg
		} else {
			r.xq = [NumPorts]*edgeQueue{}
		}
	}
}

// wakeAt tells the scheduler router r may have executable work at cycle at
// (produced during cycle now): an already-active router needs nothing, a
// sleeping one gets a timed wake on its shard's wheel — or immediate
// re-activation when the deadline is effectively next cycle, where a wheel
// round trip buys nothing. Only ever called for routers of the shard
// executing the current phase; cross-shard activation happens in DrainShard.
func (n *Network) wakeAt(r *router, at, now int64) {
	if !n.eventDriven || r.sh.active.Has(r.id) {
		return
	}
	if at = r.wakeAlign(at); at <= now+1 {
		r.sh.active.Add(r.id)
	} else {
		r.sh.wakes.Push(at, int32(r.id))
	}
}

// creditReturned tells the scheduler that a credit falling due at now+1 was
// appended to router up during cycle now. Unlike an arrival, it wakes nobody
// when up sleeps and now+1 is one of up's clock edges. A sleeping router has
// no flit that could use the credit before its next execution: with a flit
// buffered, injecting or queued it is active or holds a timed wake for its
// very next edge (nextWake), where the credit is banked on time. Otherwise the
// credit only ever changes outCredits, which nothing reads but this router's
// own VA and SA stages, and those run after the tick has banked every
// credit due — so banking it late, at the next execution or when the state is
// read (settleCredits), leaves no trace. The dense sweep's tick for it is
// counted as elided. A clock-divided router whose next edge lies further out
// keeps a timed wake.
func (n *Network) creditReturned(up *router, now int64) {
	if !n.eventDriven || up.sh.active.Has(up.id) {
		return
	}
	if at := up.wakeAlign(now + 1); at != now+1 {
		up.sh.wakes.Push(at, int32(up.id))
	}
}

// Nodes returns the number of tiles.
func (n *Network) Nodes() int { return len(n.routers) }

// HopDistance returns the Manhattan distance between two tiles (the number
// of routers a packet traverses is HopDistance+1).
func (n *Network) HopDistance(a, b int) int {
	dx := n.xy[a].x - n.xy[b].x
	if dx < 0 {
		dx = -dx
	}
	dy := n.xy[a].y - n.xy[b].y
	if dy < 0 {
		dy = -dy
	}
	return int(dx + dy)
}

// SetSink registers the delivery callback for a tile.
func (n *Network) SetSink(node int, s Sink) {
	n.sinks[node] = s
}

// Inject offers a packet to its source tile's outbox at the given cycle.
// The packet starts moving through the router on the next network tick.
// Must be called by the goroutine stepping the source tile's shard.
func (n *Network) Inject(p *Packet, now int64) error {
	if err := p.Validate(len(n.routers)); err != nil {
		return err
	}
	r := &n.routers[p.Src]
	if p.ID == 0 {
		// Per-router sequence, namespaced by source so IDs stay unique
		// mesh-wide without a shared counter. IDs only label diagnostics;
		// nothing orders or hashes on them.
		r.pktSeq++
		p.ID = uint64(p.Src+1)<<32 | r.pktSeq
	}
	p.InjectedAt = now
	p.EjectedAt = 0
	p.Hops = 0
	p.ejectedFlits = 0
	// The outbox is priority-ordered: endpoints inject expedited messages
	// first (stable within a class, so normal traffic keeps FIFO order).
	r.outbox[p.VNet].push(p)
	r.queued++
	r.sh.active.Add(p.Src)
	r.sh.stats.Injected++
	r.sh.stats.InFlight++
	if p.Priority == High {
		r.sh.stats.HighInjected++
	}
	return nil
}

// Tick advances every router (dense mode) or every active router
// (event-driven mode) by one cycle, stepping the shards sequentially.
// Parallel steppers instead call TickShard per worker, barrier, then
// DrainShard per worker — the result is identical by construction.
func (n *Network) Tick(now int64) {
	if !n.eventDriven {
		for i := range n.routers {
			n.routers[i].tick(now)
		}
		return
	}
	for i := range n.shards {
		n.TickShard(i, now)
	}
	for i := range n.shards {
		n.DrainShard(i)
	}
}

// TickShard advances the active routers of one shard by one cycle: due timed
// wakes re-join the active set first (so woken routers tick in the same
// ascending-id order as everyone else), then each active router ticks and is
// retired again if its next executable work lies beyond the next cycle —
// with a timed wake for that exact deadline unless it drained completely.
// Routers activated mid-sweep by an earlier router's dispatch only gained
// future-dated work (arrivals land at now+div+1, credits at now+1), so
// whether the sweep happens to reach them this cycle or not is immaterial —
// their tick would change no state, exactly as in the dense sweep.
func (n *Network) TickShard(shard int, now int64) {
	sh := n.shards[shard]
	sh.ticked = now
	sh.wakeBuf = sh.wakes.PopDue(now, sh.wakeBuf[:0])
	for _, d := range sh.wakeBuf {
		sh.active.Add(int(d.Val))
	}
	for wi := range sh.active {
		w := sh.active[wi]
		for w != 0 {
			id := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			r := &n.routers[id]
			r.tick(now)
			if at, ok := r.nextWake(now); !ok {
				sh.active.Remove(id)
			} else if at > now+1 {
				sh.active.Remove(id)
				sh.wakes.Push(at, int32(id))
			}
		}
	}
}

// DrainShard moves boundary items queued by neighboring shards' routers into
// this shard's router state. Queues are visited in the fixed order
// SetPartition built, and each queue is FIFO, so the merge is deterministic.
// Every item is future-dated relative to the cycle that produced it, so
// draining between cycles is equivalent to the sequential stepper's direct
// append. A sleeping receiver is woken at the earliest item deadline, not
// immediately: once the first item is processed the router's own nextWake
// covers the rest, so the min suffices and the receiver executes zero ticks
// before its work is due. Wakes are batched across the whole drain — a
// router fed by several boundary queues this phase gets one wheel push at
// the minimum deadline, not one per queue. A credit due on the receiver's
// next cycle takes no part in that: as in creditReturned it wakes nobody.
// Must be called by this shard's worker, after the barrier that ends the
// tick phase.
func (n *Network) DrainShard(shard int) {
	sh := n.shards[shard]
	sh.drainMin = sh.drainMin[:0]
	for _, q := range sh.edgesIn {
		if len(q.items) == 0 {
			continue
		}
		r := &n.routers[q.dst]
		minAt := int64(math.MaxInt64)
		for _, it := range q.items {
			at := it.at
			if it.f.pkt != nil {
				r.addArrival(it.port, arrival{f: it.f, vc: it.vc, at: it.at})
			} else {
				r.cr.push(creditMsg{slot: r.vci(it.port, it.vc), at: it.at})
				// it.at is the producing cycle plus one: aligned, it is the
				// receiver's next cycle.
				if at = r.wakeAlign(at); at == it.at {
					continue
				}
			}
			if at < minAt {
				minAt = at
			}
		}
		if n.eventDriven && minAt != math.MaxInt64 && !sh.active.Has(q.dst) {
			merged := false
			for i := range sh.drainMin {
				if sh.drainMin[i].dst == int32(q.dst) {
					if minAt < sh.drainMin[i].at {
						sh.drainMin[i].at = minAt
					}
					merged = true
					break
				}
			}
			if !merged {
				sh.drainMin = append(sh.drainMin, drainWake{dst: int32(q.dst), at: minAt})
			}
		}
		q.items = q.items[:0]
	}
	for _, dw := range sh.drainMin {
		sh.wakes.Push(n.routers[dw.dst].wakeAlign(dw.at), dw.dst)
	}
}

// complete is called by a router when a packet's tail flit ejects.
func (n *Network) complete(p *Packet, at int64) {
	sh := n.routers[p.Dst].sh
	sh.stats.Delivered++
	sh.stats.InFlight--
	sh.stats.LatencySum += p.NetLatency()
	if s := n.sinks[p.Dst]; s != nil {
		s(p, at)
	}
}

// Stats returns the summed counters. Injections count at the source shard
// and deliveries at the destination shard, so per-shard InFlight values can
// be negative; the sum is exact.
func (n *Network) Stats() Stats {
	var out Stats
	for _, sh := range n.shards {
		out.add(sh.stats)
	}
	return out
}

// ResetStats zeroes the cumulative counters, preserving in-flight tracking.
func (n *Network) ResetStats() {
	for _, sh := range n.shards {
		sh.stats = Stats{InFlight: sh.stats.InFlight}
	}
}

// LinkLoad reports, for every router, the flits forwarded per output port
// since construction (index by the Port* constants; PortLocal counts
// ejections). Dividing by elapsed cycles gives per-link utilization in
// flits/cycle (capacity 1).
func (n *Network) LinkLoad() [][NumPorts]int64 {
	out := make([][NumPorts]int64, len(n.routers))
	for i := range n.routers {
		out[i] = n.routers[i].flitsOut
	}
	return out
}

// MaxLinkLoad returns the largest per-port flit count across all routers,
// excluding local ejections — the hottest mesh link.
func (n *Network) MaxLinkLoad() int64 {
	var m int64
	for i := range n.routers {
		for _, f := range n.routers[i].flitsOut[PortNorth:] {
			m = max(m, f)
		}
	}
	return m
}

// Quiesce verifies that no packet is buffered, in flight or awaiting
// injection anywhere; used by tests to prove message conservation. The
// predicate is drained() — no router state at all — and the error says which
// category tripped: a router that holds only scheduled credit returns is
// reported as such, distinct from one stranding flits or packets.
func (n *Network) Quiesce() error {
	n.settleCredits()
	if inFlight := n.Stats().InFlight; inFlight != 0 {
		return fmt.Errorf("noc: %d packets still in flight", inFlight)
	}
	for _, sh := range n.shards {
		for _, q := range sh.edgesIn {
			if len(q.items) != 0 {
				return fmt.Errorf("noc: %d boundary items undrained toward router %d", len(q.items), q.dst)
			}
		}
	}
	for i := range n.routers {
		r := &n.routers[i]
		if r.drained() {
			continue
		}
		if !r.pipelineWork() && r.arrMask == 0 {
			return fmt.Errorf("noc: router %d not drained: waiting on %d scheduled credit returns (no flit or packet held)",
				r.id, r.cr.len())
		}
		return fmt.Errorf("noc: router %d not drained (buffered=%d injecting=%d outbox=%d arrivals=%d credits=%d)",
			r.id, r.buffered, bits.OnesCount64(r.injBusy), r.queued, r.pendingArrivals(), r.cr.len())
	}
	return nil
}

// DebugLeaks verifies the event scheduler reached its true fixed point after
// a full drain: every router drained, every shard's active set and wake wheel
// empty, every boundary queue empty. A leaked wake or active bit would keep
// re-ticking (or re-scheduling) a drained router forever; a missing one
// shows up earlier as stranded work in Quiesce. Stale-but-future wakes are
// legal between cycles, so this is only meaningful after stepping past the
// last pending deadline (each forces one executed cycle that pops it).
func (n *Network) DebugLeaks() error {
	if err := n.Quiesce(); err != nil {
		return err
	}
	for _, sh := range n.shards {
		if k := sh.active.Count(); k != 0 {
			return fmt.Errorf("noc: shard %d holds %d active routers after drain", sh.id, k)
		}
		if k := sh.wakes.Len(); k != 0 {
			at, _ := sh.wakes.Min()
			return fmt.Errorf("noc: shard %d holds %d pending router wakes after drain (earliest at cycle %d)",
				sh.id, k, at)
		}
	}
	return nil
}

// DebugRouterTicks returns how many times router id's tick was invoked, how
// many of those invocations executed the pipeline stages (the rest were
// clock-gated or had nothing due), and how many executions the event
// scheduler elided because they would only have banked a returned credit.
// The scheduler tests pin the split: execs + elided is identical across
// dense/event/sharded stepping (the dense sweep elides nothing), while calls
// collapse to the executed set once timed wakes replace busy-ticking. Credits
// still deferred are settled first, so elided is complete up to the last
// ticked cycle.
func (n *Network) DebugRouterTicks(id int) (calls, execs, elided int64) {
	r := &n.routers[id]
	r.bankCredits(r.sh.ticked, false)
	return r.tickCalls, r.tickExecs, r.creditElided
}

// DebugDrainedHighVCs counts the input VCs that are mid-packet but empty —
// output VC held, remaining flits still upstream — while serving a
// high-priority packet: the one piece of derived router state a checkpoint
// restore cannot rebuild from buffered flits (see router.high). The
// checkpoint tests use it to pick a snapshot cycle that exercises this.
func (n *Network) DebugDrainedHighVCs() int {
	k := 0
	for i := range n.routers {
		r := &n.routers[i]
		k += bits.OnesCount64(r.vaDone &^ r.occ & r.high)
	}
	return k
}
