package cache

import (
	"encoding/binary"
	"math"
	"sort"

	"nocmem/internal/snapshot"
)

// encodedLine is the size of one way in a checkpoint: tag (u64), valid and
// dirty (one byte each, 0 or 1), LRU timestamp (u64), little-endian. The
// image keeps 64-bit stamps and clock although the cache holds 32-bit ones: a
// cache that never renumbered writes the bytes of the 64-bit model, and every
// image written before still decodes.
const encodedLine = 8 + 1 + 1 + 8

// Encode serializes the cache contents: LRU clock, every way of every set,
// and the event counters. Geometry (set/way counts) is derived from the
// configuration but encoded too, so Decode can reject a snapshot taken
// under a different cache shape. The ways are an array of fixed-size records
// and are written as one: a set at a time into space reserved in the writer
// (a reservation is bounded by the writer's buffer).
func (c *Cache) Encode(w *snapshot.Writer) {
	w.U64(c.tick)
	w.Len(len(c.keys) / c.ways)
	w.Len(c.ways)
	for base := 0; base < len(c.keys); base += c.ways {
		b := w.Reserve(c.ways * encodedLine)
		for i := base; i < base+c.ways; i++ {
			rec := b[(i-base)*encodedLine:][:encodedLine]
			binary.LittleEndian.PutUint64(rec, c.keys[i]>>1)
			rec[8], rec[9] = byte(c.keys[i]&1), 0
			if c.dirty.Has(i) {
				rec[9] = 1
			}
			binary.LittleEndian.PutUint64(rec[10:], uint64(c.used[i]))
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
// ways are read from one bounds-checked view of the image; a truncated array,
// a valid or dirty byte other than 0 or 1 and a tag of 2^63 or more (no line
// address has one, and the valid bit is packed above it) are format errors.
// An image whose clock or stamps pass 2^32-1 is renumbered as the clock's own
// wrap renumbers (Cache): its hits and victims are the image's as long as no
// stamp exceeds the clock, which no encoder writes.
func (c *Cache) Decode(r *snapshot.Reader) {
	tick := r.U64()
	nsets := r.Len(1)
	if r.Err() != nil {
		return
	}
	if want := len(c.keys) / c.ways; nsets != want {
		r.Fail("cache set count mismatch: snapshot %d, config %d", nsets, want)
		return
	}
	ways := r.Len(1)
	if r.Err() != nil {
		return
	}
	if ways != c.ways {
		r.Fail("cache way count mismatch: snapshot %d, config %d", ways, c.ways)
		return
	}
	b := r.Next(len(c.keys) * encodedLine)
	if b == nil {
		return
	}
	c.tick = tick
	c.dirty.Clear()
	wide := tick > math.MaxUint32
	for i := range c.keys {
		rec := b[i*encodedLine:][:encodedLine]
		if rec[8]|rec[9] > 1 {
			r.Fail("invalid bool byte in a cache line")
			return
		}
		tag := binary.LittleEndian.Uint64(rec)
		if tag>>63 != 0 {
			r.Fail("cache tag %#x does not fit beside the valid bit", tag)
			return
		}
		c.keys[i] = tag<<1 | uint64(rec[8])
		if rec[9] == 1 {
			c.dirty.Add(i)
		}
		used := binary.LittleEndian.Uint64(rec[10:])
		wide = wide || used > math.MaxUint32
		c.used[i] = uint32(used)
	}
	if wide {
		c.renumber(b)
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
