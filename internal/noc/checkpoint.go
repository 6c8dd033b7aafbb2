package noc

import "nocmem/internal/snapshot"

// EncodePacketBody serializes one packet's fields. payload writes the
// opaque Payload handle (the simulator interns its message structs there).
// The caller (the sim checkpoint layer) is responsible for interning: a
// packet referenced from several places must be encoded once and referred
// to by index everywhere else.
func EncodePacketBody(w *snapshot.Writer, p *Packet, payload func(any)) {
	w.U64(p.ID)
	w.Int(p.Src)
	w.Int(p.Dst)
	w.Int(p.NumFlits)
	w.U8(uint8(p.VNet))
	w.U8(uint8(p.Priority))
	w.I64(p.Age)
	w.I64(p.InjectedAt)
	w.I64(p.EjectedAt)
	w.Int(p.Hops)
	w.I64(p.headerEjectAt)
	w.Int(p.ejectedFlits)
	payload(p.Payload)
}

// DecodePacketBody reads one packet's fields into a fresh Packet,
// validating every index against the mesh size.
func DecodePacketBody(r *snapshot.Reader, nodes int, payload func() any) *Packet {
	p := &Packet{}
	p.ID = r.U64()
	p.Src = r.Int()
	p.Dst = r.Int()
	p.NumFlits = r.Int()
	p.VNet = VNet(r.U8())
	p.Priority = Priority(r.U8())
	p.Age = r.I64()
	p.InjectedAt = r.I64()
	p.EjectedAt = r.I64()
	p.Hops = r.Int()
	p.headerEjectAt = r.I64()
	p.ejectedFlits = r.Int()
	p.Payload = payload()
	if r.Err() != nil {
		return p
	}
	if err := p.Validate(nodes); err != nil {
		r.Fail("%v", err)
		return p
	}
	if p.Priority > High || p.Hops < 0 || p.ejectedFlits < 0 || p.ejectedFlits > p.NumFlits {
		r.Fail("packet %d has invalid priority/hops/ejection state", p.ID)
	}
	return p
}

func encodeFlit(w *snapshot.Writer, f *flit, pktRef func(*Packet)) {
	pktRef(f.pkt)
	w.Int(int(f.seq))
	w.Bool(f.tail)
	w.I64(f.routerEntry)
}

func decodeFlit(r *snapshot.Reader, pktRef func() *Packet) flit {
	var f flit
	f.pkt = pktRef()
	seq := r.Int()
	f.tail = r.Bool()
	f.routerEntry = r.I64()
	if r.Err() != nil {
		return f
	}
	if f.pkt == nil || seq < 0 || seq >= f.pkt.NumFlits || f.tail != (seq == f.pkt.NumFlits-1) {
		r.Fail("flit sequence state inconsistent with its packet")
		return f
	}
	f.seq = int32(seq) // in range: Packet.Validate bounds NumFlits
	return f
}

// EncodeState serializes the network: summed stats and, per router in
// ascending id order, the packet sequence counter, every input VC's buffer
// and pipeline state, output VC ownership and credits, in-flight arrivals
// and credits, outboxes, injection slots, link counters, and the ejection
// lock. pktRef writes one packet reference (interned by the caller).
//
// Boundary queues must be empty — they always are between Step calls, which
// is the only legal checkpoint boundary.
//
// Scheduler state (per-shard active sets and router wake wheels) is
// deliberately NOT serialized: it is an over-approximation of "may have work"
// that restore re-derives by re-arming every router active (sim.Restore calls
// SetDenseStepping, whose event-mode switch runs applyEventMode), after which
// the first executed cycles shrink the sets back via nextWake. Keeping wakes
// out of the snapshot keeps the format stepper-agnostic and byte-stable
// regardless of which stepper produced the checkpoint.
func (n *Network) EncodeState(w *snapshot.Writer, pktRef func(*Packet)) {
	n.settleCredits()
	for _, sh := range n.shards {
		for _, q := range sh.edgesIn {
			if len(q.items) != 0 {
				w.Fail("checkpoint mid-cycle: %d boundary items undrained toward router %d", len(q.items), q.dst)
				return
			}
		}
	}
	st := n.Stats()
	w.I64(st.Injected)
	w.I64(st.Delivered)
	w.I64(st.FlitHops)
	w.I64(st.LatencySum)
	w.I64(st.HighInjected)
	w.I64(st.InFlight)
	for ri := range n.routers {
		r := &n.routers[ri]
		w.U64(r.pktSeq)
		for p := 0; p < NumPorts; p++ {
			for vc := 0; vc < r.vcs; vc++ {
				i := r.vci(p, vc)
				nf := int(r.cnt[i])
				w.Len(nf)
				for k := 0; k < nf; k++ {
					encodeFlit(w, r.flitAt(i, k), pktRef)
				}
				flags := r.inFlags[i]
				w.Bool(flags&vcRouted != 0)
				w.Bool(flags&vcAdaptive != 0)
				w.Int(int(r.inOutPort[i]))
				w.Bool(flags&vcVADone != 0)
				w.Int(int(r.inOutVC[i]))
				w.I64(r.inVAAt[i])
				w.I64(r.inSAAt[i])
				w.I64(r.inAge[i])
			}
			for vc := 0; vc < r.vcs; vc++ {
				i := r.vci(p, vc)
				pktRef(r.outOwner[i])
				w.Int(int(r.outCredits[i]))
			}
			w.Len(r.arr[p].len())
			for k := 0; k < r.arr[p].len(); k++ {
				a := r.arr[p].at(k)
				encodeFlit(w, &a.f, pktRef)
				w.Int(a.vc)
				w.I64(a.at)
			}
		}
		w.Len(r.cr.len())
		for k := 0; k < r.cr.len(); k++ {
			c := r.cr.at(k)
			w.Int(int(r.pos[c.slot].port))
			w.Int(int(r.pos[c.slot].vc))
			w.I64(c.at)
		}
		for vn := 0; vn < int(NumVNets); vn++ {
			q := &r.outbox[vn]
			w.Len(q.len())
			for i := q.head; i < len(q.q); i++ {
				pktRef(q.q[i])
			}
		}
		w.Len(len(r.inj))
		for i := range r.inj {
			pktRef(r.inj[i].pkt)
			w.Int(r.inj[i].next)
		}
		for p := 0; p < NumPorts; p++ {
			w.I64(r.flitsOut[p])
		}
		pktRef(r.ejPkt)
	}
}

// DecodeState restores the network in place from a snapshot produced by
// EncodeState. All restored stats land in shard 0 (the per-shard split is
// an implementation detail; only sums are observable). pktRef reads one
// packet reference. Every ring is refilled from slot 0 and the routers'
// derived masks and front caches are rebuilt from what was read.
func (n *Network) DecodeState(r *snapshot.Reader, pktRef func() *Packet) {
	var st Stats
	st.Injected = r.I64()
	st.Delivered = r.I64()
	st.FlitHops = r.I64()
	st.LatencySum = r.I64()
	st.HighInjected = r.I64()
	st.InFlight = r.I64()
	if r.Err() != nil {
		return
	}
	for _, sh := range n.shards {
		sh.stats = Stats{}
	}
	n.shards[0].stats = st
	depth := n.cfg.BufferDepth
	vcs := n.cfg.VCsPerPort
	for ri := range n.routers {
		rt := &n.routers[ri]
		rt.pktSeq = r.U64()
		rt.buffered = 0
		rt.ejPkt = nil
		for p := 0; p < NumPorts; p++ {
			for vc := 0; vc < vcs; vc++ {
				vi := rt.vci(p, vc)
				nf := r.Len(1)
				if r.Err() != nil {
					return
				}
				if nf > depth {
					r.Fail("router %d vc buffer of %d flits exceeds depth %d", rt.id, nf, depth)
					return
				}
				rt.head[vi], rt.cnt[vi] = 0, uint8(nf)
				rt.buffered += nf
				for k := 0; k < nf; k++ {
					f := decodeFlit(r, pktRef)
					if r.Err() != nil {
						return
					}
					if f.pkt.VNet != rt.pos[vi].vnet {
						r.Fail("router %d holds a vnet-%d packet in a VC of the other class", rt.id, f.pkt.VNet)
						return
					}
					rt.buf[vi*depth+k] = f
				}
				var flags uint8
				if r.Bool() {
					flags |= vcRouted
				}
				if r.Bool() {
					flags |= vcAdaptive
				}
				outPort := r.Int()
				if r.Bool() {
					flags |= vcVADone
				}
				outVC := r.Int()
				rt.inFlags[vi] = flags
				rt.inVAAt[vi] = r.I64()
				rt.inSAAt[vi] = r.I64()
				rt.inAge[vi] = r.I64()
				if r.Err() != nil {
					return
				}
				if outPort < 0 || outPort >= NumPorts || outVC < 0 || outVC >= vcs {
					r.Fail("router %d vc pipeline indices out of range", rt.id)
					return
				}
				rt.inOutPort[vi] = int8(outPort)
				rt.inOutVC[vi] = int32(outVC)
				if flags&(vcRouted|vcVADone) != 0 && outPort != PortLocal && rt.neighbor[outPort] == nil {
					r.Fail("router %d routed toward a missing neighbor", rt.id)
					return
				}
				// VA takes its requesters from the flag bits alone.
				if flags&(vcRouted|vcVADone) == vcRouted && (nf == 0 || !rt.buf[vi*depth].header()) {
					r.Fail("router %d vc awaits allocation without a header at its front", rt.id)
					return
				}
			}
			for vc := 0; vc < vcs; vc++ {
				vi := rt.vci(p, vc)
				rt.outOwner[vi] = pktRef()
				c := r.Int()
				if r.Err() != nil {
					return
				}
				if c < 0 || c > depth {
					r.Fail("router %d credit count %d outside [0,%d]", rt.id, c, depth)
					return
				}
				rt.outCredits[vi] = int32(c)
			}
			na := r.Len(8)
			if r.Err() != nil {
				return
			}
			if na > len(rt.arr[p].buf) {
				r.Fail("router %d holds %d arrivals on a link of %d slots", rt.id, na, len(rt.arr[p].buf))
				return
			}
			rt.arr[p].clear()
			for i := 0; i < na; i++ {
				f := decodeFlit(r, pktRef)
				vc := r.Int()
				at := r.I64()
				if r.Err() != nil {
					return
				}
				if vc < 0 || vc >= vcs || f.pkt.VNet != rt.pos[vc].vnet {
					r.Fail("arrival vc %d out of range or of the wrong class", vc)
					return
				}
				rt.arr[p].push(arrival{f: f, vc: vc, at: at})
			}
		}
		nc := r.Len(8)
		if r.Err() != nil {
			return
		}
		if nc > len(rt.cr.buf) {
			r.Fail("router %d holds %d credit returns, its links have %d slots", rt.id, nc, len(rt.cr.buf))
			return
		}
		rt.cr.clear()
		for i := 0; i < nc; i++ {
			port := r.Int()
			vc := r.Int()
			at := r.I64()
			if r.Err() != nil {
				return
			}
			if port < 0 || port >= NumPorts || vc < 0 || vc >= vcs {
				r.Fail("credit indices out of range")
				return
			}
			rt.cr.push(creditMsg{slot: rt.vci(port, vc), at: at})
		}
		for vn := 0; vn < int(NumVNets); vn++ {
			nq := r.Len(4)
			if r.Err() != nil {
				return
			}
			q := &rt.outbox[vn]
			q.q = q.q[:0]
			q.head = 0
			for i := 0; i < nq; i++ {
				p := pktRef()
				if r.Err() != nil {
					return
				}
				if p == nil {
					r.Fail("nil packet in outbox")
					return
				}
				q.q = append(q.q, p)
			}
		}
		ni := r.Len(4)
		if r.Err() != nil {
			return
		}
		if ni != len(rt.inj) {
			r.Fail("router %d has %d injection slots, snapshot %d", rt.id, len(rt.inj), ni)
			return
		}
		for i := range rt.inj {
			pkt := pktRef()
			next := r.Int()
			if r.Err() != nil {
				return
			}
			if pkt != nil && (next < 0 || next > pkt.NumFlits) {
				r.Fail("injection cursor %d outside packet", next)
				return
			}
			rt.inj[i] = injSlot{pkt: pkt, next: next}
		}
		for p := 0; p < NumPorts; p++ {
			rt.flitsOut[p] = r.I64()
		}
		rt.ejPkt = pktRef()
		if r.Err() != nil {
			return
		}
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
