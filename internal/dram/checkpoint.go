package dram

import "nocmem/internal/snapshot"

// Walk encodes or decodes the controller: bus and refresh timers, counters,
// and every bank's row/occupancy state and request queues in ascending bank
// order. payload walks one request's opaque Payload handle (the simulator
// interns its transaction pointers there). A decode restores in place.
func (c *Controller) Walk(k *snapshot.Codec, payload func(*any)) {
	k.I64(&c.busFreeAt)
	k.I64(&c.nextRefresh)
	k.I64(&c.nextSample)
	st := &c.stats
	k.I64(&st.Reads)
	k.I64(&st.Writes)
	k.I64(&st.RowHits)
	k.I64(&st.RowMisses)
	k.I64(&st.RowConflicts)
	k.I64(&st.QueueWait)
	k.I64(&st.Refreshes)
	k.I64(&st.BusBusy)
	k.I64(&st.QueueDepth)
	k.I64(&st.QueueSamples)
	n := k.Len(len(c.banks), 8)
	if k.Err() != nil {
		return
	}
	if n != len(c.banks) {
		k.Fail("bank count mismatch: snapshot %d, config %d", n, len(c.banks))
		return
	}
	if k.Decoding() && (c.nextRefresh < 0 || c.nextSample < 0) {
		k.Fail("negative controller timer")
		return
	}
	for i := range c.banks {
		b := &c.banks[i]
		k.I64(&b.openRow)
		k.I64(&b.busyUntil)
		k.I64(&b.idleSamples)
		k.I64(&b.idleHits)
		walkQueue(k, &b.reads, i, payload)
		walkQueue(k, &b.writes, i, payload)
		busy := b.inFlight != nil
		k.Bool(&busy)
		if k.Decoding() {
			b.inFlight = nil
			if busy {
				b.inFlight = &Request{}
			}
		}
		if busy {
			walkRequest(k, b.inFlight, i, payload)
		}
		if k.Err() != nil {
			return
		}
	}
}

// walkQueue walks a bank's queue; a decode refills it with fresh requests.
func walkQueue(k *snapshot.Codec, q *[]*Request, bank int, payload func(*any)) {
	n := k.Len(len(*q), 8)
	if k.Decoding() {
		*q = (*q)[:0]
	}
	for i := 0; i < n && k.Err() == nil; i++ {
		if k.Decoding() {
			*q = append(*q, &Request{})
		}
		walkRequest(k, (*q)[i], bank, payload)
	}
}

func walkRequest(k *snapshot.Codec, r *Request, bank int, payload func(*any)) {
	k.U64(&r.Addr)
	k.Bool(&r.IsWrite)
	k.Bool(&r.Sensitive)
	k.Int(&r.Bank)
	k.I64(&r.Row)
	k.I64(&r.EnqueuedAt)
	k.I64(&r.ScheduledAt)
	k.I64(&r.DoneAt)
	payload(&r.Payload)
	if k.Decoding() && k.Err() == nil && r.Bank != bank {
		k.Fail("request for bank %d queued at bank %d", r.Bank, bank)
	}
}
