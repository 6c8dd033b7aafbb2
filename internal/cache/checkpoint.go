package cache

import (
	"math"
	"sort"

	"nocmem/internal/snapshot"
)

// Walk encodes or decodes the cache contents: LRU clock, every way of every
// set, and the event counters. Geometry (set/way counts) is derived from the
// configuration but encoded too, so a decode can reject a snapshot taken under
// a different cache shape. The ways move as the cache holds them, one column
// at a time: the keys (tag<<1 | valid, 8 bytes a way), the 16-bit LRU stamps
// and the dirty bitset's words — 10.125 bytes a line. A decode restores in
// place, replacing every line, the LRU clock and the counters: nothing of what
// the cache held before survives. A clock past 2^16-1 (the cache renumbers
// before its clock gets there) and a dirty bit past the last way are format
// errors.
func (c *Cache) Walk(k *snapshot.Codec) {
	dec := k.Decoding()
	tick := c.tick
	k.U64(&tick)
	nsets := k.Len(len(c.keys)/c.ways, 1)
	if k.Err() != nil {
		return
	}
	if want := len(c.keys) / c.ways; nsets != want {
		k.Fail("cache set count mismatch: snapshot %d, config %d", nsets, want)
		return
	}
	ways := k.Len(c.ways, 1)
	if k.Err() != nil {
		return
	}
	if ways != c.ways {
		k.Fail("cache way count mismatch: snapshot %d, config %d", ways, c.ways)
		return
	}
	if dec {
		if tick > math.MaxUint16 {
			k.Fail("cache clock %d past 2^16-1", tick)
			return
		}
		c.tick = tick
	}
	k.U64Array(c.keys)
	k.U16Array(c.used)
	k.U64Array(c.dirty)
	if dec && k.Err() == nil {
		if tail := len(c.keys) % 64; tail != 0 && c.dirty[len(c.dirty)-1]>>tail != 0 {
			k.Fail("dirty bits past the last of %d ways", len(c.keys))
			return
		}
	}
	st := &c.stats
	k.I64(&st.Hits)
	k.I64(&st.Misses)
	k.I64(&st.Fills)
	k.I64(&st.Evictions)
	k.I64(&st.Writebacks)
}

// WalkMSHRs encodes or decodes the outstanding misses of a table, in
// ascending line-address order (the table itself has no stable order).
// waiter walks one waiter token. A decode drops the table's current entries
// and rebuilds them from the image.
func WalkMSHRs[W any](k *snapshot.Codec, t *MSHRTable[W], waiter func(*W)) {
	var lines []uint64
	if k.Decoding() {
		t.Reset()
	} else {
		lines = t.Lines()
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	}
	n := k.Len(len(lines), 8)
	if k.Err() != nil {
		return
	}
	if n > t.Cap() {
		k.Fail("%d MSHR entries exceed capacity %d", n, t.Cap())
		return
	}
	var wt W // one waiter at a time
	for i := 0; i < n; i++ {
		var m MSHR[W]
		if !k.Decoding() {
			e, _ := t.Entry(lines[i])
			m = *e
		}
		k.U64(&m.LineAddr)
		k.Bool(&m.Dirty)
		nw := k.Len(len(m.Waiters), 1)
		if k.Err() != nil {
			return
		}
		if k.Decoding() && nw < 1 {
			k.Fail("MSHR entry for line %#x has no waiters", m.LineAddr)
			return
		}
		for j := 0; j < nw && k.Err() == nil; j++ {
			if j < len(m.Waiters) { // encoding
				wt = m.Waiters[j]
			}
			waiter(&wt)
			if !k.Decoding() || k.Err() != nil {
				continue
			}
			if primary, ok := t.Allocate(m.LineAddr, m.Dirty && j == 0, wt); !ok || primary != (j == 0) {
				k.Fail("duplicate or unallocatable MSHR line %#x", m.LineAddr)
				return
			}
		}
	}
}
