package noc

import "nocmem/internal/snapshot"

// WalkPacketBody encodes or decodes one packet's fields; a decode fills p,
// which the caller allocates, and validates every index against the mesh
// size. payload walks the opaque Payload handle (the simulator interns its
// message structs there). The caller (the sim checkpoint layer) is
// responsible for interning: a packet referenced from several places is
// walked once and referred to by index everywhere else.
func WalkPacketBody(k *snapshot.Codec, p *Packet, nodes int, payload func(*any)) {
	k.U64(&p.ID)
	k.Int(&p.Src)
	k.Int(&p.Dst)
	k.Int(&p.NumFlits)
	k.U8((*uint8)(&p.VNet))
	k.U8((*uint8)(&p.Priority))
	k.I64(&p.Age)
	k.I64(&p.InjectedAt)
	k.I64(&p.EjectedAt)
	k.Int(&p.Hops)
	k.I64(&p.headerEjectAt)
	k.Int(&p.ejectedFlits)
	payload(&p.Payload)
	if !k.Decoding() || k.Err() != nil {
		return
	}
	if err := p.Validate(nodes); err != nil {
		k.Fail("%v", err)
		return
	}
	if p.Priority > High || p.Hops < 0 || p.ejectedFlits < 0 || p.ejectedFlits > p.NumFlits {
		k.Fail("packet %d has invalid priority/hops/ejection state", p.ID)
	}
}

// walkFlit encodes or decodes one flit; a decode overwrites *f.
func walkFlit(k *snapshot.Codec, f *flit, pktRef func(**Packet)) {
	if k.Decoding() {
		*f = flit{}
	}
	pktRef(&f.pkt)
	seq := int(f.seq)
	k.Int(&seq)
	k.Bool(&f.tail)
	k.I64(&f.routerEntry)
	if !k.Decoding() || k.Err() != nil {
		return
	}
	if f.pkt == nil || seq < 0 || seq >= f.pkt.NumFlits || f.tail != (seq == f.pkt.NumFlits-1) {
		k.Fail("flit sequence state inconsistent with its packet")
		return
	}
	f.seq = int32(seq) // in range: Packet.Validate bounds NumFlits
}

// walkBit walks one bit of *flags as a bool; a decode sets it in flags that
// start clear.
func walkBit(k *snapshot.Codec, flags *uint8, bit uint8) {
	set := *flags&bit != 0
	k.Bool(&set)
	if set {
		*flags |= bit
	}
}

// WalkState encodes or decodes the network: summed stats and, per router in
// ascending id order, the packet sequence counter, every input VC's buffer
// and pipeline state, output VC ownership and credits, in-flight arrivals
// and credits, outboxes, injection slots, link counters, and the ejection
// lock. pktRef walks one packet reference (interned by the caller).
//
// Encoding settles the deferred credits first, and boundary queues must be
// empty — they always are between Step calls, which is the only legal
// checkpoint boundary. A decode restores in place: all restored stats land in
// shard 0 (the per-shard split is an implementation detail; only sums are
// observable), every ring is refilled from slot 0 and the routers' derived
// masks and front caches are rebuilt from what was read.
//
// Scheduler state (per-shard active sets and router wake wheels) is
// deliberately NOT serialized: it is an over-approximation of "may have work"
// that restore re-derives by re-arming every router active (sim.Restore calls
// SetDenseStepping, whose event-mode switch runs applyEventMode), after which
// the first executed cycles shrink the sets back via nextWake. Keeping wakes
// out of the snapshot keeps the format stepper-agnostic and byte-stable
// regardless of which stepper produced the checkpoint.
func (n *Network) WalkState(k *snapshot.Codec, pktRef func(**Packet)) {
	var st Stats
	if !k.Decoding() {
		n.settleCredits()
		for _, sh := range n.shards {
			for _, q := range sh.edgesIn {
				if len(q.items) != 0 {
					k.Fail("checkpoint mid-cycle: %d boundary items undrained toward router %d", len(q.items), q.dst)
					return
				}
			}
		}
		st = n.Stats()
	}
	k.I64(&st.Injected)
	k.I64(&st.Delivered)
	k.I64(&st.FlitHops)
	k.I64(&st.LatencySum)
	k.I64(&st.HighInjected)
	k.I64(&st.InFlight)
	if k.Err() != nil {
		return
	}
	if k.Decoding() {
		for _, sh := range n.shards {
			sh.stats = Stats{}
		}
		n.shards[0].stats = st
	}
	for ri := range n.routers {
		if n.routers[ri].walk(k, pktRef); k.Err() != nil {
			return
		}
	}
}

// walk encodes or decodes one router's part of WalkState.
func (rt *router) walk(k *snapshot.Codec, pktRef func(**Packet)) {
	dec := k.Decoding()
	depth, vcs := rt.depth, rt.vcs
	k.U64(&rt.pktSeq)
	if dec {
		rt.buffered = 0
		rt.ejPkt = nil
	}
	for p := 0; p < NumPorts; p++ {
		for vc := 0; vc < vcs; vc++ {
			vi := rt.vci(p, vc)
			nf := k.Len(int(rt.cnt[vi]), 1)
			if k.Err() != nil {
				return
			}
			if dec && nf > depth {
				k.Fail("router %d vc buffer of %d flits exceeds depth %d", rt.id, nf, depth)
				return
			}
			if dec {
				rt.head[vi], rt.cnt[vi] = 0, uint8(nf)
				rt.buffered += nf
			}
			for j := 0; j < nf; j++ {
				f := rt.flitAt(vi, j)
				if walkFlit(k, f, pktRef); k.Err() != nil {
					return
				}
				if dec && f.pkt.VNet != rt.pos[vi].vnet {
					k.Fail("router %d holds a vnet-%d packet in a VC of the other class", rt.id, f.pkt.VNet)
					return
				}
			}
			flags := rt.inFlags[vi]
			if dec {
				flags = 0
			}
			outPort, outVC := int(rt.inOutPort[vi]), int(rt.inOutVC[vi])
			walkBit(k, &flags, vcRouted)
			walkBit(k, &flags, vcAdaptive)
			k.Int(&outPort)
			walkBit(k, &flags, vcVADone)
			k.Int(&outVC)
			k.I64(&rt.inVAAt[vi])
			k.I64(&rt.inSAAt[vi])
			k.I64(&rt.inAge[vi])
			if !dec {
				continue
			}
			if k.Err() != nil {
				return
			}
			if outPort < 0 || outPort >= NumPorts || outVC < 0 || outVC >= vcs {
				k.Fail("router %d vc pipeline indices out of range", rt.id)
				return
			}
			rt.inFlags[vi] = flags
			rt.inOutPort[vi] = int8(outPort)
			rt.inOutVC[vi] = int32(outVC)
			if flags&(vcRouted|vcVADone) != 0 && outPort != PortLocal && rt.neighbor[outPort] == nil {
				k.Fail("router %d routed toward a missing neighbor", rt.id)
				return
			}
			// VA takes its requesters from the flag bits alone.
			if flags&(vcRouted|vcVADone) == vcRouted && (nf == 0 || !rt.buf[vi*depth].header()) {
				k.Fail("router %d vc awaits allocation without a header at its front", rt.id)
				return
			}
		}
		for vc := 0; vc < vcs; vc++ {
			vi := rt.vci(p, vc)
			pktRef(&rt.outOwner[vi])
			c := int(rt.outCredits[vi])
			k.Int(&c)
			if !dec {
				continue
			}
			if k.Err() != nil {
				return
			}
			if c < 0 || c > depth {
				k.Fail("router %d credit count %d outside [0,%d]", rt.id, c, depth)
				return
			}
			rt.outCredits[vi] = int32(c)
		}
		q := &rt.arr[p]
		na := k.Len(q.len(), 8)
		if k.Err() != nil {
			return
		}
		if na > len(q.buf) {
			k.Fail("router %d holds %d arrivals on a link of %d slots", rt.id, na, len(q.buf))
			return
		}
		if dec {
			q.clear()
		}
		for j := 0; j < na; j++ {
			a := q.at(j) // decoding: the slot the next push fills
			walkFlit(k, &a.f, pktRef)
			k.Int(&a.vc)
			k.I64(&a.at)
			if !dec {
				continue
			}
			if k.Err() != nil {
				return
			}
			if a.vc < 0 || a.vc >= vcs || a.f.pkt.VNet != rt.pos[a.vc].vnet {
				k.Fail("arrival vc %d out of range or of the wrong class", a.vc)
				return
			}
			q.push(*a)
		}
	}
	nc := k.Len(rt.cr.len(), 8)
	if k.Err() != nil {
		return
	}
	if nc > len(rt.cr.buf) {
		k.Fail("router %d holds %d credit returns, its links have %d slots", rt.id, nc, len(rt.cr.buf))
		return
	}
	if dec {
		rt.cr.clear()
	}
	for j := 0; j < nc; j++ {
		var port, vc int
		var c creditMsg
		if !dec {
			c = *rt.cr.at(j)
			port, vc = int(rt.pos[c.slot].port), int(rt.pos[c.slot].vc)
		}
		k.Int(&port)
		k.Int(&vc)
		k.I64(&c.at)
		if !dec {
			continue
		}
		if k.Err() != nil {
			return
		}
		if port < 0 || port >= NumPorts || vc < 0 || vc >= vcs {
			k.Fail("credit indices out of range")
			return
		}
		c.slot = rt.vci(port, vc)
		rt.cr.push(c)
	}
	for vn := range rt.outbox {
		q := &rt.outbox[vn]
		nq := k.Len(q.len(), 4)
		if k.Err() != nil {
			return
		}
		if dec {
			q.q, q.head = q.q[:0], 0
		}
		for j := 0; j < nq; j++ {
			if dec {
				q.q = append(q.q, nil)
			}
			p := &q.q[q.head+j]
			pktRef(p)
			if !dec {
				continue
			}
			if k.Err() != nil {
				return
			}
			if *p == nil {
				k.Fail("nil packet in outbox")
				return
			}
		}
	}
	ni := k.Len(len(rt.inj), 4)
	if k.Err() != nil {
		return
	}
	if ni != len(rt.inj) {
		k.Fail("router %d has %d injection slots, snapshot %d", rt.id, len(rt.inj), ni)
		return
	}
	for i := range rt.inj {
		in := &rt.inj[i]
		pktRef(&in.pkt)
		k.Int(&in.next)
		if !dec {
			continue
		}
		if k.Err() != nil {
			return
		}
		if in.pkt != nil && (in.next < 0 || in.next > in.pkt.NumFlits) {
			k.Fail("injection cursor %d outside packet", in.next)
			return
		}
	}
	k.I64Array(rt.flitsOut[:])
	pktRef(&rt.ejPkt)
	if dec && k.Err() == nil {
		rt.rebuildDerived()
	}
}

// rebuildDerived recomputes the masks, the output-side index and the
// selection state from the rings, inFlags, the output VCs, the ejection lock
// and the front packets. An empty VC gets a clear high bit; push sets it again
// when the next flit of its packet arrives.
func (r *router) rebuildDerived() {
	r.occ, r.full, r.routed, r.vaDone, r.high, r.ejecting, r.saOK = 0, 0, 0, 0, 0, 0, 0
	r.outBusy, r.injBusy, r.arrMask, r.queued = 0, 0, 0, 0
	for p := range r.arr {
		if r.arr[p].len() > 0 {
			r.arrMask |= 1 << uint(p)
		}
	}
	for vn := range r.outbox {
		r.queued += r.outbox[vn].len()
	}
	for vc := range r.inj {
		if r.inj[vc].pkt != nil {
			r.injBusy |= 1 << uint(vc)
		}
	}
	for slot := 0; slot < r.nv(); slot++ {
		r.outHolder[slot] = -1
		if r.outOwner[slot] != nil {
			r.outBusy |= 1 << uint(slot)
		}
	}
	for i := 0; i < r.nv(); i++ {
		bit := uint64(1) << uint(i)
		if r.inFlags[i]&vcRouted != 0 {
			r.routed |= bit
		}
		header := false
		if r.cnt[i] > 0 {
			f := r.front(i)
			r.occ |= bit
			if int(r.cnt[i]) == r.depth {
				r.full |= bit
			}
			setBit(&r.high, bit, f.pkt.Priority == High)
			r.setKey(i, f)
			if header = f.header(); header {
				r.sel[i].saAt = r.inSAAt[i]
			} else {
				r.sel[i].saAt = f.routerEntry + r.bodyWait
			}
		}
		if r.inFlags[i]&vcVADone == 0 {
			continue
		}
		r.vaDone |= bit
		if p := int(r.inOutPort[i]); p != PortLocal {
			slot := r.vci(p, int(r.inOutVC[i]))
			r.outHolder[slot] = int8(i)
			setBit(&r.saOK, bit, r.outCredits[slot] > 0)
		} else {
			// A VC past VA whose header has left — the rest of the packet
			// behind it or still upstream — is mid-ejection: there is at most
			// one, and the lock is its own.
			r.ejecting |= bit
			setBit(&r.saOK, bit, r.ejPkt == nil || !header)
		}
	}
}
