package cache

import (
	"encoding/binary"
	"sort"

	"nocmem/internal/snapshot"
)

// encodedLine is the size of one way in a checkpoint: tag (u64), valid and
// dirty (one byte each, 0 or 1), LRU timestamp (u64), little-endian.
const encodedLine = 8 + 1 + 1 + 8

// Encode serializes the cache contents: LRU clock, every way of every set,
// and the event counters. Geometry (set/way counts) is derived from the
// configuration but encoded too, so Decode can reject a snapshot taken
// under a different cache shape. The ways are an array of fixed-size records
// and are written as one: a set at a time into space reserved in the writer.
func (c *Cache) Encode(w *snapshot.Writer) {
	w.U64(c.tick)
	w.Len(len(c.sets))
	if len(c.sets) == 0 {
		return
	}
	w.Len(len(c.sets[0]))
	for _, set := range c.sets {
		b := w.Reserve(len(set) * encodedLine)
		for i := range set {
			l, rec := &set[i], b[i*encodedLine:][:encodedLine]
			binary.LittleEndian.PutUint64(rec, l.tag)
			rec[8], rec[9] = 0, 0
			if l.valid {
				rec[8] = 1
			}
			if l.dirty {
				rec[9] = 1
			}
			binary.LittleEndian.PutUint64(rec[10:], l.used)
		}
	}
	st := c.stats
	w.I64(st.Hits)
	w.I64(st.Misses)
	w.I64(st.Fills)
	w.I64(st.Evictions)
	w.I64(st.Writebacks)
}

// Decode restores the cache contents in place, replacing every line, the LRU
// clock and the counters: nothing of what the cache held before survives. The
// ways are read from one bounds-checked view of the image; a truncated array
// and a valid or dirty byte other than 0 or 1 are format errors.
func (c *Cache) Decode(r *snapshot.Reader) {
	tick := r.U64()
	nsets := r.Len(1)
	if r.Err() != nil {
		return
	}
	if nsets != len(c.sets) {
		r.Fail("cache set count mismatch: snapshot %d, config %d", nsets, len(c.sets))
		return
	}
	if nsets == 0 {
		c.tick = tick
		return
	}
	ways := r.Len(1)
	if r.Err() != nil {
		return
	}
	if ways != len(c.sets[0]) {
		r.Fail("cache way count mismatch: snapshot %d, config %d", ways, len(c.sets[0]))
		return
	}
	b := r.Next(nsets * ways * encodedLine)
	if b == nil {
		return
	}
	c.tick = tick
	for _, set := range c.sets {
		for i := range set {
			rec := b[:encodedLine]
			b = b[encodedLine:]
			if rec[8]|rec[9] > 1 {
				r.Fail("invalid bool byte in a cache line")
				return
			}
			set[i] = line{
				tag:   binary.LittleEndian.Uint64(rec),
				valid: rec[8] == 1,
				dirty: rec[9] == 1,
				used:  binary.LittleEndian.Uint64(rec[10:]),
			}
		}
	}
	c.stats.Hits = r.I64()
	c.stats.Misses = r.I64()
	c.stats.Fills = r.I64()
	c.stats.Evictions = r.I64()
	c.stats.Writebacks = r.I64()
}

// EncodeMSHRs serializes the outstanding misses of a table in ascending
// line-address order (the map itself has no stable order). enc writes one
// waiter token.
func EncodeMSHRs[W any](w *snapshot.Writer, t *MSHRTable[W], enc func(W)) {
	lines := t.Lines()
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.Len(len(lines))
	for _, line := range lines {
		m, _ := t.Entry(line)
		w.U64(m.LineAddr)
		w.Bool(m.Dirty)
		w.Len(len(m.Waiters))
		for _, wt := range m.Waiters {
			enc(wt)
		}
	}
}

// DecodeMSHRs drops the table's current entries and rebuilds them from the
// snapshot. dec reads one waiter token.
func DecodeMSHRs[W any](r *snapshot.Reader, t *MSHRTable[W], dec func() W) {
	t.Reset()
	n := r.Len(8)
	if r.Err() != nil {
		return
	}
	if n > t.Cap() {
		r.Fail("%d MSHR entries exceed capacity %d", n, t.Cap())
		return
	}
	for i := 0; i < n; i++ {
		line := r.U64()
		dirty := r.Bool()
		nw := r.Len(1)
		if r.Err() != nil {
			return
		}
		if nw < 1 {
			r.Fail("MSHR entry for line %#x has no waiters", line)
			return
		}
		for j := 0; j < nw; j++ {
			wt := dec()
			if r.Err() != nil {
				return
			}
			primary, ok := t.Allocate(line, dirty && j == 0, wt)
			if !ok || (primary != (j == 0)) {
				r.Fail("duplicate or unallocatable MSHR line %#x", line)
				return
			}
		}
	}
}
