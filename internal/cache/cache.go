// Package cache implements the on-chip cache substrate: a generic
// set-associative write-back cache with LRU replacement, MSHRs with miss
// coalescing, and the S-NUCA bank mapping used by the shared L2.
package cache

import (
	"fmt"
	"math"
	"slices"

	"nocmem/internal/bitset"
)

// Stats counts cache events since construction.
type Stats struct {
	Hits       int64
	Misses     int64
	Fills      int64
	Evictions  int64
	Writebacks int64 // dirty evictions
}

// Cache is a set-associative write-back cache. It tracks tags only (no
// data), which is all a performance model needs. Not safe for concurrent
// use.
//
// The tag array is three flat per-way arrays indexed set*ways+way. keys holds
// tag<<1 | valid, so a lookup is one compare per way and the eight ways of an
// L2 set share one 64-byte host cache line; used holds the 16-bit LRU
// timestamps and dirty one bit per way: 10.125 host bytes per line. An invalid
// way keeps whatever tag, timestamp and dirty bit it last held (zeros after
// Invalidate): the checkpoint carries them as they are.
// The clock tick is 64-bit; advance keeps the stamps within 16 bits.
type Cache struct {
	keys      []uint64
	used      []uint16 // LRU timestamp per way
	dirty     bitset.Set
	byStamp   []uint64 // renumber's scratch: one set's stamp<<32 | way
	ways      int
	lineShift uint
	setShift  uint // log2 of the set count: where the tag starts in a line number
	setMask   uint64
	tick      uint64
	lip       bool
	stats     Stats
}

// New constructs a cache. Size, line size and way count must describe a
// power-of-two number of sets; it panics otherwise (configurations are
// validated up front by the config package). A cache of one one-byte line is
// refused too: its tags would span all 64 address bits and leave none for the
// valid bit packed beside them.
func New(sizeBytes, lineBytes, ways int) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: bad shape size=%d line=%d ways=%d", sizeBytes, lineBytes, ways))
	}
	nsets := sizeBytes / (lineBytes * ways)
	if nsets <= 0 || nsets&(nsets-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: non-power-of-two geometry sets=%d line=%d", nsets, lineBytes))
	}
	if nsets*lineBytes < 2 {
		panic("cache: a single one-byte line leaves no room for the valid bit")
	}
	return &Cache{
		keys:      make([]uint64, nsets*ways),
		used:      make([]uint16, nsets*ways),
		dirty:     bitset.New(nsets * ways),
		byStamp:   make([]uint64, ways),
		ways:      ways,
		lineShift: log2(uint64(lineBytes)),
		setShift:  log2(uint64(nsets)),
		setMask:   uint64(nsets) - 1,
	}
}

func log2(v uint64) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

// SetLIPInsertion switches the replacement policy to LRU-Insertion (LIP):
// newly filled lines enter at the LRU position and are promoted to MRU only
// on a subsequent hit, so no-reuse streaming fills churn through one way of
// a set instead of flushing the reused working set. Used by the shared L2.
func (c *Cache) SetLIPInsertion(on bool) { c.lip = on }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ ((1 << c.lineShift) - 1) }

// lookup returns the first way of addr's set in the flat arrays, the line's
// valid key (tag<<1 | 1), and the way holding it, -1 when absent.
func (c *Cache) lookup(addr uint64) (base int, key uint64, way int) {
	lineNum := addr >> c.lineShift
	base = int(lineNum&c.setMask) * c.ways
	key = lineNum>>c.setShift<<1 | 1
	for i, k := range c.keys[base : base+c.ways] {
		if k == key {
			return base, key, base + i
		}
	}
	return base, key, -1
}

// advance moves the LRU clock k steps, renumbering every set first if it
// would pass 2^16-1, and returns the clock as a stamp.
func (c *Cache) advance(k uint64) uint16 {
	c.tick += k
	if c.tick > math.MaxUint16 {
		c.renumber()
	}
	return uint16(c.tick)
}

// renumber sets each way's stamp to the dense rank of its old stamp within
// its set (0 stays 0, where LIP inserts; ties stay tied; order is kept) and
// restarts the clock one above the largest rank. Victim choice compares
// stamps of one set only, and every stamp written later exceeds the clock,
// so every hit, victim and writeback stays what an unbounded clock gives.
// A busy cache renumbers every 2^16 accesses or so, so it sorts each set's
// stamps, packed above their way index, in one scratch slice it keeps.
func (c *Cache) renumber() {
	var top uint16
	byStamp := c.byStamp
	for base := 0; base < len(c.used); base += c.ways {
		set := c.used[base : base+c.ways]
		for i, v := range set {
			byStamp[i] = uint64(v)<<32 | uint64(i)
		}
		slices.Sort(byStamp)
		var rank uint16
		if byStamp[0]>>32 != 0 {
			rank = 1
		}
		for i, k := range byStamp {
			if i > 0 && k>>32 != byStamp[i-1]>>32 {
				rank++
			}
			set[uint32(k)] = rank
		}
		top = max(top, rank)
	}
	c.tick = uint64(top) + 1
}

// Access looks up addr, updating LRU state and the hit/miss counters.
// On a write hit the line is marked dirty. Returns whether it hit.
func (c *Cache) Access(addr uint64, isWrite bool) bool {
	now := c.advance(1)
	if _, _, w := c.lookup(addr); w >= 0 {
		c.used[w] = now
		if isWrite {
			c.dirty.Add(w)
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// ReplayMisses accounts k lookups that each would have missed, without
// performing them: the LRU clock and the miss counter advance exactly as k
// missing Access calls would move them, and nothing else changes (a miss
// touches no line). The simulator uses it to replay, in closed form, the
// retries of an access that an exhausted MSHR table keeps refusing.
func (c *Cache) ReplayMisses(k int64) {
	c.advance(uint64(k))
	c.stats.Misses += k
}

// WritebackHit marks the line containing addr dirty if present, without
// promoting its replacement state: a writeback is not a demand reuse, so it
// must not keep a dead line alive. Returns whether the line was present.
func (c *Cache) WritebackHit(addr uint64) bool {
	if _, _, w := c.lookup(addr); w >= 0 {
		c.dirty.Add(w)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Contains probes for addr without disturbing LRU state or counters.
func (c *Cache) Contains(addr uint64) bool {
	_, _, w := c.lookup(addr)
	return w >= 0
}

// Victim describes a line displaced by a Fill.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// Fill installs the line containing addr (marking it dirty if requested) and
// returns the evicted victim, if any. Filling an already-present line only
// refreshes its LRU position (and dirtiness). The victim is the set's first
// invalid way, else its first way with the oldest timestamp.
func (c *Cache) Fill(addr uint64, dirty bool) (Victim, bool) {
	now := c.advance(1)
	base, key, w := c.lookup(addr)
	// Already present (e.g. a second fill racing a prefetch): refresh.
	if w >= 0 {
		c.used[w] = now
		if dirty {
			c.dirty.Add(w)
		}
		return Victim{}, false
	}
	victim := base
	for i := base; i < base+c.ways; i++ {
		if c.keys[i]&1 == 0 {
			victim = i
			break
		}
		if c.used[i] < c.used[victim] {
			victim = i
		}
	}
	var ev Victim
	evicted := c.keys[victim]&1 != 0
	if evicted {
		ev = Victim{Addr: c.addrOf(uint64(base/c.ways), c.keys[victim]>>1), Dirty: c.dirty.Has(victim)}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	if c.lip {
		now = 0 // LRU insertion: next victim unless re-referenced
	}
	c.keys[victim], c.used[victim] = key, now
	if dirty {
		c.dirty.Add(victim)
	} else {
		c.dirty.Remove(victim)
	}
	c.stats.Fills++
	return ev, evicted
}

// Invalidate drops the line containing addr if present, returning whether it
// was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty bool) {
	_, _, w := c.lookup(addr)
	if w < 0 {
		return false
	}
	wasDirty = c.dirty.Has(w)
	c.keys[w], c.used[w] = 0, 0
	c.dirty.Remove(w)
	return wasDirty
}

func (c *Cache) addrOf(set, tag uint64) uint64 {
	return (tag<<c.setShift | set) << c.lineShift
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters (used at the warmup/measurement
// boundary).
func (c *Cache) ResetStats() { c.stats = Stats{} }
