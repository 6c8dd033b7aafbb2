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

// Walk encodes or decodes the cache contents: LRU clock, every way of every
// set, and the event counters. Geometry (set/way counts) is derived from the
// configuration but encoded too, so a decode can reject a snapshot taken under
// a different cache shape. The ways are an array of fixed-size records and
// move as one (encodeLines, decodeLines). A decode restores in place,
// replacing every line, the LRU clock and the counters: nothing of what the
// cache held before survives.
func (c *Cache) Walk(k *snapshot.Codec) {
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
	if k.Decoding() {
		c.decodeLines(k, tick)
	} else {
		c.encodeLines(k)
	}
	st := &c.stats
	k.I64(&st.Hits)
	k.I64(&st.Misses)
	k.I64(&st.Fills)
	k.I64(&st.Evictions)
	k.I64(&st.Writebacks)
}

// encodeLines writes the ways a set at a time into space reserved in the
// writer (a reservation is bounded by the writer's buffer).
func (c *Cache) encodeLines(k *snapshot.Codec) {
	for base := 0; base < len(c.keys); base += c.ways {
		b := k.Reserve(c.ways * encodedLine)
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
}

// decodeLines reads the ways from one bounds-checked view of the image and
// installs tick as the clock; a truncated array, a valid or dirty byte other
// than 0 or 1 and a tag of 2^63 or more (no line address has one, and the
// valid bit is packed above it) are format errors. An image whose clock or
// stamps pass 2^32-1 is renumbered as the clock's own wrap renumbers (Cache):
// its hits and victims are the image's as long as no stamp exceeds the clock,
// which no encoder writes.
func (c *Cache) decodeLines(k *snapshot.Codec, tick uint64) {
	b := k.Next(len(c.keys) * encodedLine)
	if b == nil {
		return
	}
	c.tick = tick
	c.dirty.Clear()
	wide := tick > math.MaxUint32
	for i := range c.keys {
		rec := b[i*encodedLine:][:encodedLine]
		if rec[8]|rec[9] > 1 {
			k.Fail("invalid bool byte in a cache line")
			return
		}
		tag := binary.LittleEndian.Uint64(rec)
		if tag>>63 != 0 {
			k.Fail("cache tag %#x does not fit beside the valid bit", tag)
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
