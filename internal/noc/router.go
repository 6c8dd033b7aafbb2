package noc

import (
	"fmt"
	"math"
	"math/bits"

	"nocmem/internal/config"
)

// Router ports. Local is the injection/ejection port of the tile.
const (
	PortLocal = iota
	PortNorth
	PortEast
	PortSouth
	PortWest
	NumPorts
)

func portName(p int) string {
	switch p {
	case PortLocal:
		return "local"
	case PortNorth:
		return "north"
	case PortEast:
		return "east"
	case PortSouth:
		return "south"
	case PortWest:
		return "west"
	}
	return "?"
}

// oppositeOf is indexed by a mesh port less one: PortLocal has no opposite, and
// asking for it is an out-of-range panic.
var oppositeOf = [NumPorts - 1]int{PortSouth, PortWest, PortNorth, PortEast}

func opposite(p int) int { return oppositeOf[p-1] }

// Pipeline latencies, in cycles. With the baseline 5-stage pipeline a header
// written into a buffer at cycle t (BW) finishes RC at t+1, so its earliest
// VA is t+2, earliest SA t+3, and it traverses the switch at t+4, reaching
// the next router's buffer at t+5. Pipeline bypassing (and the 2-stage
// router) collapse BW/RC/VA/SA into a single setup stage at cycle t.
const (
	rcDelay5  = 2 // cycles from buffer write until VA eligibility (5-stage)
	stLink    = 2 // switch traversal + link to the next router's buffer
	stEject   = 1 // switch traversal into the local ejection port
	bodyDelay = 1 // buffer-write cycle for body flits (5-stage)
)

// arrival is a flit in flight on a link, due at the given cycle.
type arrival struct {
	f  flit
	vc int
	at int64
}

// creditMsg is a credit returning upstream for output VC slot (the flat
// per-VC index), usable at the given cycle.
type creditMsg struct {
	slot int
	at   int64
}

// Input-VC pipeline flags, stored per VC in router.inFlags.
const (
	vcRouted   = 1 << 0
	vcAdaptive = 1 << 1 // outPort may be re-chosen until VA succeeds
	vcVADone   = 1 << 2
)

// injSlot is one in-progress packet injection on a local input VC.
type injSlot struct {
	pkt  *Packet
	next int // next flit sequence number to place
}

// vcPos decomposes a flat per-VC index (port*VCsPerPort+vc) into its parts,
// names the virtual network the VC serves and, for an input VC on a mesh port,
// the flat index of the upstream router's output VC feeding it (where its
// credits return). The table is built once per network and shared by every
// router, so the mask-driven loops do lookups instead of divisions.
type vcPos struct {
	port, vc int8
	vnet     VNet
	up       int8
}

// maxVCs bounds the flat per-VC index: the router's per-VC state is fixed
// arrays of this length, of which the first NumPorts*VCsPerPort are live.
const maxVCs = NumPorts * config.MaxVCsPerPort

// tileXY is a tile's mesh coordinates, tabulated per network for routing.
type tileXY struct{ x, y int32 }

// router is one mesh tile's 5-port VC router.
//
// Per-VC state is laid out struct-of-arrays, indexed port*vcs+vc (see vci),
// in fixed arrays of maxVCs entries inside the struct: the live entries of
// every array are its first NumPorts*vcs, and the routers of a network are
// one slab (Network.routers), so a tick reads no slice header and follows no
// pointer to reach them. The input side carries the pipeline state of each
// VC's front packet; on a tail dispatch only the flag bits are cleared, so
// outPort/outVC and the eligibility/age fields keep their last values until
// the next header overwrites them — checkpoint encoding serializes those
// stale values as-is, and the encoding must stay byte-stable across layout
// changes.
//
// Two kinds of state live here. Authoritative state is what a checkpoint
// carries: the flit rings, inFlags and the per-VC pipeline fields, the output
// side, the queues, the ejection lock. Derived state mirrors it so that VA, SA
// and injection select their contenders with mask arithmetic and a key
// compare, and read no flit or packet memory until a winner is dispatched. It
// is maintained where the authoritative state changes, never re-derived per
// cycle; DecodeState rebuilds it (rebuildDerived).
type router struct {
	id   int
	x, y int
	net  *Network
	sh   *netShard // owning shard; all mutable tick state stays shard-local

	// pktSeq numbers packets injected at this router (see Inject).
	pktSeq uint64

	// xq holds, per output port, the boundary queue toward a cross-shard
	// neighbor — non-nil only in sharded event mode. xqCfg is the same set
	// as built by SetPartition; applyEventMode swaps it in and out.
	xq    [NumPorts]*edgeQueue
	xqCfg [NumPorts]*edgeQueue

	// div is the clock divisor: the router advances only on cycles
	// divisible by div, stretching every pipeline stage accordingly.
	div int64

	// Configuration the hot path consults, copied out of Network at New.
	vcs      int              // VCs per port; NumPorts*vcs per-VC entries are live
	portMask uint64           // the low vcs bits: one port's share of a per-VC mask
	vnMask   [NumVNets]uint64 // the share of portMask serving each virtual network
	depth    int              // flits per input VC (BufferDepth)
	pos      []vcPos          // shared flat-index table, see vcPos
	xy       []tileXY         // shared per-tile coordinates, for routing
	arb      arbPolicy
	adaptive bool  // west-first routing: out port re-chosen until VA succeeds
	fastAll  bool  // 2-stage pipeline: every header uses the one-cycle setup
	fastHigh bool  // pipeline bypassing: high-priority headers do
	vaWait   int64 // buffer write until VA eligibility on the full pipeline
	bodyWait int64 // buffer write until SA eligibility for body flits

	// Derived state, one bit per input VC (config.Validate bounds
	// NumPorts*vcs to 64). occ marks non-empty rings and full the rings
	// holding depth flits; routed and vaDone mirror the inFlags bits. high is
	// the priority class of the packet the VC is serving: set when its header
	// reaches the front and again whenever a flit enters the empty VC, since
	// a restored router cannot recover it for a packet whose header already
	// left and whose remaining flits are still upstream.
	//
	// ejecting marks the vaDone VCs bound for the local port. saOK marks the
	// vaDone VCs whose output can take a flit: the output VC has a credit, or
	// the VC ejects and the ejection port is free or locked to its own packet.
	// occ & vaDone & saOK is what SA arbitrates among; only the pipeline
	// deadline sel[i].saAt is left to test per cycle.
	occ, full, routed, vaDone, high, ejecting, saOK uint64

	// outBusy has one bit per output VC (same flat index), derived from
	// outOwner.
	outBusy uint64

	// More derived state: injBusy has bit vc set while inj[vc] holds a
	// packet; arrMask has bit p set while arr[p] is non-empty, so the tick
	// visits only ports with flits in flight; queued is the number of packets
	// across the outboxes.
	injBusy uint64
	arrMask uint8
	queued  int

	buffered int // flits currently resident in input buffers

	neighbor [NumPorts]*router // per out port; nil at mesh edges and Local

	// arr holds, per input port, the flits in flight on the link toward it
	// in nondecreasing order of arrival (each has a single producer); cr the
	// returned credits not yet banked, in nondecreasing order of at. Both are
	// rings sized by the credit bound (see ring); arr[PortLocal] has no
	// capacity, since nothing arrives there over a link.
	arr [NumPorts]ring[arrival]
	cr  ring[creditMsg]

	outbox [NumVNets]pktQueue
	inj    []injSlot // per local input VC

	// flitsOut counts flits forwarded per output port (Local = ejections),
	// for link-utilization reporting.
	flitsOut [NumPorts]int64

	// tickCalls counts invocations of tick; tickExecs counts the subset that
	// passed the clock/idleNow gate and ran the pipeline stages. Debug-only
	// (DebugRouterTicks): the scheduler tests pin these to prove sleeping
	// routers are not busy-ticked.
	tickCalls int64
	tickExecs int64

	// creditElided counts the ticks the dense sweep executes at this router
	// only to bank a returned credit and the event scheduler never runs (see
	// bankCredits). Debug-only, like the two above.
	creditElided int64

	// ejPkt locks the local ejection port to one packet from header until
	// tail: the sink reassembles packets, so flits of competing packets are
	// not interleaved into it. (Matches the emergent behavior of age-based
	// arbitration, where a draining packet's accumulated age kept it ahead.)
	ejPkt *Packet

	// Input VC flit storage: the router's window of the network's flit slab,
	// holding a ring of depth flits per VC. VC i's ring is
	// buf[i*depth:(i+1)*depth], its front flit sits at offset head[i] and
	// cnt[i] flits follow it, wrapping. Slots outside the live window hold
	// stale flits that nothing reads.
	buf  []flit
	head [maxVCs]uint8
	cnt  [maxVCs]uint8

	// The front packet's pipeline state, per input VC.
	inFlags   [maxVCs]uint8
	inOutPort [maxVCs]int8
	inOutVC   [maxVCs]int32
	inVAAt    [maxVCs]int64 // VA eligibility cycle
	inSAAt    [maxVCs]int64 // SA eligibility cycle of the header

	// inAge is the packet's so-far delay as carried by its header when it
	// reached the front of this VC. Arbitration for the following body and
	// tail flits uses this snapshot — a real switch only knows the age
	// field the header brought past it, not updates the header accrues
	// downstream. The snapshot is also what makes sharded stepping exact:
	// Packet.Age is written by whichever router currently holds the header,
	// and reading it live from another router's arbitration would race
	// across shards (and made the dense sweep's result depend on router id
	// order).
	inAge [maxVCs]int64

	// sel holds, per input VC, what the allocators compare: the front flit's
	// arbitration key (written when it reaches the front) and, once the VC
	// holds an output VC, the cycle from which the front flit may compete for
	// the switch — the header's inSAAt, or a body flit's entry plus bodyWait.
	sel [maxVCs]vcSel

	// Output VCs: downstream allocation and credit state. outHolder (the
	// input VC holding it, -1 when free) is derived from outOwner and the
	// input side's inOutPort/inOutVC.
	outOwner   [maxVCs]*Packet // packet holding the VC, nil when free
	outCredits [maxVCs]int32
	outHolder  [maxVCs]int8
}

// vcSel is one input VC's entry in router.sel.
type vcSel struct {
	key  arbKey
	saAt int64
}

// The local port's VCs come first in every per-VC mask and array: a local VC's
// flat index is its VC number.
const _ = -uint(PortLocal)

// vci maps (port, vc) to the flat per-VC index.
func (r *router) vci(p, vc int) int { return p*r.vcs + vc }

// nv is the number of live per-VC entries.
func (r *router) nv() int { return NumPorts * r.vcs }

// flitAt returns the k-th flit from the front of VC i's ring; k == cnt[i]
// names the slot the next push fills.
func (r *router) flitAt(i, k int) *flit {
	s := int(r.head[i]) + k
	if s >= r.depth {
		s -= r.depth
	}
	return &r.buf[i*r.depth+s]
}

// front returns VC i's front flit; meaningful only while the VC is occupied.
func (r *router) front(i int) *flit { return r.flitAt(i, 0) }

func (r *router) pendingArrivals() int {
	n := 0
	for p := range r.arr {
		n += r.arr[p].len()
	}
	return n
}

// addArrival queues a flit in flight toward input port p.
func (r *router) addArrival(p int, a arrival) {
	r.arr[p].push(a)
	r.arrMask |= 1 << uint(p)
}

// pipelineWork reports whether the router holds anything its pipeline stages
// act on: a buffered flit, an injection in progress or a queued packet.
func (r *router) pipelineWork() bool {
	return r.buffered > 0 || r.injBusy != 0 || r.queued > 0
}

// drained reports whether the router holds no state at all: no buffered or
// injecting flit, no queued packet, no in-flight arrival and no pending
// credit return. This is the message-conservation predicate (Quiesce); a
// router that is merely waiting on future-dated work is NOT drained but may
// still be idleNow.
func (r *router) drained() bool {
	return !r.pipelineWork() && r.cr.len() == 0 && r.arrMask == 0
}

// idleNow reports whether the router has nothing executable at cycle now: no
// pipeline work and no credit or arrival falling due this cycle. Future-dated
// credits and arrivals leave the router un-drained but still idle this cycle
// — its tick would be a no-op. Under the event scheduler so does a credit
// whose clock edge has passed: the dense sweep banked it on that edge, where
// the event scheduler left the router asleep (see Network.creditReturned), and
// it is banked the next time the router executes for a reason of its own.
func (r *router) idleNow(now int64) bool {
	if r.pipelineWork() {
		return false
	}
	for k := 0; k < r.cr.len(); k++ {
		c := r.cr.at(k)
		if c.at > now {
			break
		}
		if c.at > now-r.div || !r.net.eventDriven { // due on this very clock edge
			return false
		}
	}
	for m := r.arrMask; m != 0; m &= m - 1 {
		if r.arr[bits.TrailingZeros8(m)].at(0).at <= now {
			return false
		}
	}
	return true
}

// wakeAlign rounds a wake deadline up to the router's clock grid: a router
// with div > 1 executes only on div-aligned cycles, so a deadline between
// grid points cannot be acted on before the next aligned cycle.
func (r *router) wakeAlign(at int64) int64 {
	if r.div == 1 {
		return at
	}
	if rem := at % r.div; rem != 0 {
		at += r.div - rem
	}
	return at
}

// nextWake returns the earliest future cycle at which the router may have
// executable work, given its state after ticking at now: the next
// div-aligned cycle when pipeline work exists, else the div-aligned deadline
// of the earliest queued arrival (acceptArrivals). ok is false when nothing
// calls for a wake. The per-port arrival queues are deadline-sorted (each has
// a single producer appending nondecreasing times, the property
// acceptArrivals already relies on), so their heads suffice.
//
// A pending credit wakes nothing when its clock edge is the next cycle: a
// router without pipeline work has no flit waiting on it, so banking it can
// wait until the router next executes (Network.creditReturned has the
// argument). The cycle itself is still marked to execute. Only a credit due
// on a later edge — a clock-divided router's — keeps its timed wake.
func (r *router) nextWake(now int64) (at int64, ok bool) {
	if r.pipelineWork() {
		// Nothing can beat the next aligned cycle: every credit/arrival
		// deadline is either already due (clamped up to it) or future-dated
		// and div-aligned (at least it). Skipping the scans keeps retirement
		// O(1) for busy routers — the hot case on loaded meshes.
		return r.wakeAlign(now + 1), true
	}
	at = math.MaxInt64
	for k := 0; k < r.cr.len(); k++ {
		switch w := r.wakeAlign(r.cr.at(k).at); {
		case w <= now: // its cycle has passed: banked at the next execution
		case w == now+1:
			r.sh.creditAt = w
		case w < at:
			at = w
		}
	}
	for m := r.arrMask; m != 0; m &= m - 1 {
		if w := r.wakeAlign(r.arr[bits.TrailingZeros8(m)].at(0).at); w < at {
			at = w
		}
	}
	if at == math.MaxInt64 {
		return 0, false
	}
	if at <= now { // an arrival due but unprocessed: run the next aligned cycle
		at = r.wakeAlign(now + 1)
	}
	return at, true
}

// vnetRange returns the VC range [lo, hi) serving the given virtual network.
// The split is exact: config.Validate rejects VCsPerPort values not divisible
// by NumVNets, which would otherwise strand the trailing VCs of every port
// (the integer division below would assign them to no virtual network).
func (r *router) vnetRange(v VNet) (lo, hi int) {
	per := r.vcs / int(NumVNets)
	lo = int(v) * per
	return lo, lo + per
}

// route computes the X-Y output port toward dst.
func (r *router) route(dst int) int {
	d := r.xy[dst]
	dx, dy := int(d.x)-r.x, int(d.y)-r.y
	switch {
	case dx > 0:
		return PortEast
	case dx < 0:
		return PortWest
	case dy > 0:
		return PortSouth
	case dy < 0:
		return PortNorth
	}
	return PortLocal
}

// adaptiveRoute picks an output port under the west-first turn model:
// mandatory west hops first, then the productive direction (east or
// north/south) whose downstream VCs of the packet's class currently have the
// most credits.
func (r *router) adaptiveRoute(dst int, vn VNet) int {
	d := r.xy[dst]
	dx, dy := int(d.x)-r.x, int(d.y)-r.y
	if dx == 0 && dy == 0 {
		return PortLocal
	}
	if dx < 0 {
		return PortWest
	}
	var cands [2]int
	n := 0
	if dx > 0 {
		cands[n] = PortEast
		n++
	}
	if dy > 0 {
		cands[n] = PortSouth
		n++
	} else if dy < 0 {
		cands[n] = PortNorth
		n++
	}
	if n == 1 {
		return cands[0]
	}
	// Two productive choices: prefer the port with more free capacity.
	best, bestScore := cands[0], int32(-1)
	lo, hi := r.vnetRange(vn)
	for i := 0; i < n; i++ {
		p := cands[i]
		base := p * r.vcs
		score := int32(0)
		for vc := lo; vc < hi; vc++ {
			score += r.outCredits[base+vc]
			if r.outOwner[base+vc] == nil {
				score += int32(r.depth) // a free VC outweighs credits
			}
		}
		if score > bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// push appends f to input VC i. A flit entering an empty VC becomes its front.
func (r *router) push(i int, f flit, now int64) {
	n := int(r.cnt[i])
	if n >= r.depth {
		panic(fmt.Sprintf("noc: router %d port %s vc %d buffer overflow (credit protocol violated)",
			r.id, portName(int(r.pos[i].port)), r.pos[i].vc))
	}
	*r.flitAt(i, n) = f
	r.cnt[i]++
	r.buffered++
	bit := uint64(1) << uint(i)
	if n+1 == r.depth {
		r.full |= bit
	}
	if n == 0 {
		r.occ |= bit
		// For a body flit the VC drained mid-packet: its high bit is
		// normally still in place from the header, but not after a restore.
		setBit(&r.high, bit, f.pkt.Priority == High)
		r.newFront(i, &f, now)
	}
}

func setBit(mask *uint64, bit uint64, on bool) {
	if on {
		*mask |= bit
	} else {
		*mask &^= bit
	}
}

// newFront refreshes the selection state for f, the flit that just reached
// the front of VC i: its arbitration key and, for a body flit, its SA
// deadline. When f is a header it also initializes its packet's pipeline
// state: priority class, carried age, route, VA eligibility (grantVA sets the
// header's SA deadline).
func (r *router) newFront(i int, f *flit, now int64) {
	bit := uint64(1) << uint(i)
	if !f.header() {
		r.sel[i].saAt = f.routerEntry + r.bodyWait
		r.setKey(i, f)
		return
	}
	pkt := f.pkt
	high := pkt.Priority == High
	setBit(&r.high, bit, high)
	r.inAge[i] = pkt.Age
	r.setKey(i, f)
	if r.adaptive {
		r.inFlags[i] = vcRouted | vcAdaptive
		r.inOutPort[i] = int8(r.adaptiveRoute(pkt.Dst, r.pos[i].vnet))
	} else {
		r.inFlags[i] = vcRouted
		r.inOutPort[i] = int8(r.route(pkt.Dst))
	}
	r.routed |= bit
	if r.fastSetup(high) {
		r.inVAAt[i] = now
	} else {
		r.inVAAt[i] = now + r.vaWait
	}
}

// setKey writes the arbitration key of f, the front flit of VC i, from the
// VC's high bit and carried age.
func (r *router) setKey(i int, f *flit) {
	r.sel[i].key = r.arb.key(r.high&(1<<uint(i)) != 0, r.inAge[i]-f.routerEntry, f.pkt, i)
}

// fastSetup reports whether a packet's headers may use the single-cycle setup
// stage at this router: always under the 2-stage pipeline, and for
// high-priority packets when pipeline bypassing is enabled.
func (r *router) fastSetup(high bool) bool {
	return r.fastAll || (r.fastHigh && high)
}

// tick advances the router by one cycle. On a non-divisor cycle, or when
// nothing is executable (idleNow — drained, or all work future-dated), the
// pipeline stages are skipped: the skipped body is a no-op by construction,
// so the dense sweep and the event scheduler stay byte-identical whether or
// not the call happens at all.
func (r *router) tick(now int64) {
	r.tickCalls++
	if (r.div != 1 && now%r.div != 0) || r.idleNow(now) {
		return
	}
	r.tickExecs++
	r.bankCredits(now, true)
	r.acceptArrivals(now)
	r.fillInjections(now)
	if r.occ != 0 {
		r.allocateVCs(now)
		r.allocateSwitch(now)
	}
}

// bankCredits adds to the output VC counters every returned credit whose
// clock edge is at or before cycle upto. ticking says the router is executing
// cycle upto; otherwise its state is being settled for a reader
// (Network.settleCredits). Either way an edge the router did not execute on is
// one the dense sweep executed for the credit alone — creditElided counts
// those, once per edge. The ring is in nondecreasing order of at, so the due
// credits are a prefix and equal edges are adjacent. A credit makes the input
// VC holding its output VC switch-ready again (saOK).
func (r *router) bankCredits(upto int64, ticking bool) {
	edge := int64(-1)
	for r.cr.len() > 0 {
		c := r.cr.at(0)
		w := r.wakeAlign(c.at)
		if w > upto {
			break
		}
		r.outCredits[c.slot]++
		if h := r.outHolder[c.slot]; h >= 0 {
			r.saOK |= 1 << uint(h)
		}
		r.cr.pop()
		if w != edge {
			edge = w
			if !ticking || w < upto {
				r.creditElided++
			}
		}
	}
}

func (r *router) acceptArrivals(now int64) {
	for m := r.arrMask; m != 0; m &= m - 1 {
		p := bits.TrailingZeros8(m)
		q := &r.arr[p]
		for q.len() > 0 {
			a := q.at(0)
			if a.at > now {
				break
			}
			a.f.routerEntry = now
			r.push(r.vci(p, a.vc), a.f, now)
			q.pop()
		}
		if q.len() == 0 {
			r.arrMask &^= 1 << uint(p)
		}
	}
}

// fillInjections moves flits from the node's outbox into free local input
// VCs, one flit per VC per cycle. A local VC accepts the next packet as soon
// as the previous packet's flits have all been placed (they may still be
// draining through the buffer), exactly as a link-side VC accepts
// back-to-back packets from its upstream router.
func (r *router) fillInjections(now int64) {
	if r.queued > 0 {
		idle := r.portMask &^ (r.injBusy | r.full)
		for vn := range r.outbox {
			q := &r.outbox[vn]
			for m := idle & r.vnMask[vn]; m != 0 && q.len() > 0; m &= m - 1 {
				vc := bits.TrailingZeros64(m)
				r.inj[vc] = injSlot{pkt: q.pop()}
				r.queued--
				r.injBusy |= 1 << uint(vc)
			}
		}
	}
	// Advance the active injections whose VC has room.
	for m := r.injBusy &^ r.full; m != 0; m &= m - 1 {
		vc := bits.TrailingZeros64(m)
		s := &r.inj[vc]
		f := flit{pkt: s.pkt, seq: int32(s.next), tail: s.next == s.pkt.NumFlits-1, routerEntry: now}
		if f.header() {
			// The wait for a free VC is part of the source router's
			// residence time and must age the message (Equation 1).
			s.pkt.Age += now - s.pkt.InjectedAt
		}
		r.push(vc, f, now)
		s.next++
		if s.next == s.pkt.NumFlits {
			*s = injSlot{}
			r.injBusy &^= 1 << uint(vc)
		}
	}
}

// allocateVCs runs the VA stage: on each output port, the waiting headers of
// a virtual network take its free output VCs in arbitration order until either
// runs out. The requesters are exactly the VCs routed but not yet allocated —
// each has its header at the front, since a header leaves only after VA.
func (r *router) allocateVCs(now int64) {
	m := r.routed &^ r.vaDone
	if m == 0 {
		return
	}
	if m&(m-1) == 0 {
		// One waiting header — the common case away from saturation: nothing
		// to arbitrate, so no per-port request masks.
		i := bits.TrailingZeros64(m)
		if now < r.inVAAt[i] {
			return
		}
		if r.inFlags[i]&vcAdaptive != 0 {
			r.inOutPort[i] = int8(r.adaptiveRoute(r.front(i).pkt.Dst, r.pos[i].vnet))
		}
		if p := int(r.inOutPort[i]); p == PortLocal {
			r.grantVA(i, 0, -1, now)
		} else if free := r.freeOutVCs(p, r.pos[i].vnet); free != 0 {
			vc := bits.TrailingZeros64(free)
			r.grantVA(i, vc, r.vci(p, vc), now)
		}
		return
	}
	// Eligible requesters per class — an output port's share of a virtual
	// network. The VC a packet sits in already names its virtual network.
	var want [NumPorts * int(NumVNets)]uint64
	var classes uint
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if now < r.inVAAt[i] {
			continue
		}
		if r.inFlags[i]&vcAdaptive != 0 {
			// Re-evaluate the adaptive choice against current credit
			// state until VC allocation succeeds.
			r.inOutPort[i] = int8(r.adaptiveRoute(r.front(i).pkt.Dst, r.pos[i].vnet))
		}
		c := uint(r.inOutPort[i])*uint(NumVNets) + uint(r.pos[i].vnet)
		want[c] |= 1 << uint(i)
		classes |= 1 << c
	}
	for ; classes != 0; classes &= classes - 1 {
		c := bits.TrailingZeros(classes)
		w, p, vn := want[c], c/int(NumVNets), VNet(c%int(NumVNets))
		if p == PortLocal {
			// Ejection needs no VC allocation: the sink always accepts.
			for ; w != 0; w &= w - 1 {
				r.grantVA(bits.TrailingZeros64(w), 0, -1, now)
			}
			continue
		}
		// Free VCs only shrink within a cycle: once the class has none, its
		// remaining requesters are finished for the cycle.
		for free := r.freeOutVCs(p, vn); w != 0 && free != 0; free &= free - 1 {
			best := r.bestKey(w)
			vc := bits.TrailingZeros64(free)
			r.grantVA(best, vc, r.vci(p, vc), now)
			w &^= 1 << uint(best)
		}
	}
}

// bestKey returns the input VC with the winning arbitration key among the
// non-empty set m.
func (r *router) bestKey(m uint64) int {
	best := bits.TrailingZeros64(m)
	for m &= m - 1; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); r.sel[i].key.over(r.sel[best].key) {
			best = i
		}
	}
	return best
}

// grantVA records a successful VC allocation for input VC i. slot is the flat
// output VC index taking ownership, or -1 for ejection (no allocation).
func (r *router) grantVA(i, outVCIdx, slot int, now int64) {
	bit := uint64(1) << uint(i)
	r.inFlags[i] |= vcVADone
	r.vaDone |= bit
	r.inOutVC[i] = int32(outVCIdx)
	if slot >= 0 {
		r.outOwner[slot] = r.front(i).pkt
		r.outHolder[slot] = int8(i)
		r.outBusy |= 1 << uint(slot)
		setBit(&r.saOK, bit, r.outCredits[slot] > 0)
	} else {
		// Ejection always has room, but mid-reassembly the port belongs to
		// the packet being ejected.
		r.ejecting |= bit
		setBit(&r.saOK, bit, r.ejPkt == nil)
	}
	if r.fastSetup(r.high&bit != 0) {
		r.inSAAt[i] = now // combined setup: SA may happen this cycle
	} else {
		r.inSAAt[i] = now + r.div
	}
	r.sel[i].saAt = r.inSAAt[i]
}

// freeOutVCs returns the free output VCs of port p within the vnet class, as a
// mask over the port's VC numbers.
func (r *router) freeOutVCs(p int, vn VNet) uint64 {
	return ^r.outBusy >> uint(p*r.vcs) & r.vnMask[vn]
}

// allocateSwitch runs the two-phase SA stage over the occupied VCs that hold
// an output VC able to take a flit, and dispatches the winners.
func (r *router) allocateSwitch(now int64) {
	m := r.occ & r.vaDone & r.saOK
	if m == 0 {
		return
	}
	if m&(m-1) == 0 {
		// One VC is switch-ready: it wins both phases unopposed.
		if i := bits.TrailingZeros64(m); now >= r.sel[i].saAt {
			r.dispatch(i, now)
		}
		return
	}
	sel := &r.sel
	var won [NumPorts]int // winning input VC per output port
	var wonOK uint
	for base := 0; m != 0; base += r.vcs {
		// Phase 1: the best ready VC of this input port.
		pm := m & r.portMask
		m >>= uint(r.vcs)
		best, bk := -1, arbKey{}
		for ; pm != 0; pm &= pm - 1 {
			i := base + bits.TrailingZeros64(pm)
			if s := &sel[i]; now >= s.saAt && (best < 0 || s.key.over(bk)) {
				best, bk = i, s.key
			}
		}
		if best < 0 {
			continue
		}
		// Phase 2: it contends with the other input ports' winners for
		// its output port.
		op := uint(r.inOutPort[best])
		if wonOK&(1<<op) == 0 || bk.over(sel[won[op]].key) {
			won[op] = best
			wonOK |= 1 << op
		}
	}
	for ; wonOK != 0; wonOK &= wonOK - 1 {
		r.dispatch(won[bits.TrailingZeros(wonOK)], now)
	}
}

// dispatch moves the front flit of input VC i across the switch.
func (r *router) dispatch(i int, now int64) {
	f := *r.front(i)
	if h := r.head[i] + 1; int(h) == r.depth {
		r.head[i] = 0
	} else {
		r.head[i] = h
	}
	r.cnt[i]--
	r.buffered--
	bit := uint64(1) << uint(i)
	r.full &^= bit
	pkt := f.pkt
	inPort, inVC := int(r.pos[i].port), int(r.pos[i].vc)
	outPort := int(r.inOutPort[i])

	if f.header() {
		// Equation 1: add the local residence time (through ST) to the
		// message's so-far delay, in common cycles regardless of this
		// router's own frequency.
		pkt.Age += now + r.div - f.routerEntry
		pkt.Hops++
	}

	r.flitsOut[outPort]++
	if outPort == PortLocal {
		if f.tail {
			// The port is free again for every VC waiting to eject.
			r.ejPkt = nil
			r.ejecting &^= bit
			r.saOK |= r.ejecting
		} else if f.header() {
			r.ejPkt = pkt
			r.saOK &^= r.ejecting &^ bit
		}
		r.eject(&f, now)
	} else {
		outVC := int(r.inOutVC[i])
		slot := r.vci(outPort, outVC)
		if r.outCredits[slot]--; r.outCredits[slot] == 0 {
			r.saOK &^= bit
		}
		// A cross-shard neighbor's state belongs to another worker: hand
		// the flit through the boundary queue instead of appending directly.
		// Same-shard appends keep the direct path — each arr[port]
		// queue has a single statically-known producer either way, so FIFO
		// order is preserved.
		inNb := opposite(outPort)
		if q := r.xq[outPort]; q != nil {
			q.push(boundaryItem{f: f, port: inNb, vc: outVC, at: now + r.div + 1})
		} else {
			nb := r.neighbor[outPort]
			nb.addArrival(inNb, arrival{f: f, vc: outVC, at: now + r.div + 1})
			r.net.wakeAt(nb, now+r.div+1, now)
		}
		if f.tail {
			r.outOwner[slot] = nil
			r.outHolder[slot] = -1
			r.outBusy &^= 1 << uint(slot)
		}
		r.sh.stats.FlitHops++
	}

	// Return a credit upstream for the freed buffer slot. Credit application
	// is commutative (each entry gates on its own at, then increments a
	// counter), so the boundary detour cannot change results.
	if inPort != PortLocal {
		if q := r.xq[inPort]; q != nil {
			q.push(boundaryItem{port: opposite(inPort), vc: inVC, at: now + 1})
		} else {
			up := r.neighbor[inPort]
			up.cr.push(creditMsg{slot: int(r.pos[i].up), at: now + 1})
			r.net.creditReturned(up, now)
		}
	}

	if f.tail {
		// Clear only the flag bits: the routed port/VC and timing fields
		// keep their stale values (and are checkpointed as such) until the
		// next header overwrites them.
		r.inFlags[i] &^= vcRouted | vcVADone | vcAdaptive
		r.routed &^= bit
		r.vaDone &^= bit
		r.saOK &^= bit
	}
	if r.cnt[i] > 0 {
		r.newFront(i, r.front(i), now)
	} else {
		r.occ &^= bit
	}
}

// eject delivers a flit to the local sink, completing the packet on its
// tail.
func (r *router) eject(f *flit, now int64) {
	pkt := f.pkt
	at := now + stEject*r.div
	if f.header() {
		pkt.headerEjectAt = at
	}
	pkt.ejectedFlits++
	if pkt.ejectedFlits > pkt.NumFlits {
		panic(fmt.Sprintf("noc: packet %d ejected %d of %d flits", pkt.ID, pkt.ejectedFlits, pkt.NumFlits))
	}
	if f.tail {
		// Count serialization at the destination in the so-far delay.
		pkt.Age += at - pkt.headerEjectAt
		pkt.EjectedAt = at
		r.net.complete(pkt, at)
	}
}
