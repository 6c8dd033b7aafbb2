// Package cache implements the on-chip cache substrate: a generic
// set-associative write-back cache with LRU replacement, MSHRs with miss
// coalescing, and the S-NUCA bank mapping used by the shared L2.
package cache

import "fmt"

// Stats counts cache events since construction.
type Stats struct {
	Hits       int64
	Misses     int64
	Fills      int64
	Evictions  int64
	Writebacks int64 // dirty evictions
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is a set-associative write-back cache. It tracks tags only (no
// data), which is all a performance model needs. Not safe for concurrent
// use.
type Cache struct {
	sets      [][]line
	lineShift uint
	setShift  uint // log2 of the set count: where the tag starts in a line number
	setMask   uint64
	tick      uint64
	lip       bool
	stats     Stats
}

// New constructs a cache. Size, line size and way count must describe a
// power-of-two number of sets; it panics otherwise (configurations are
// validated up front by the config package).
func New(sizeBytes, lineBytes, ways int) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: bad shape size=%d line=%d ways=%d", sizeBytes, lineBytes, ways))
	}
	nsets := sizeBytes / (lineBytes * ways)
	if nsets <= 0 || nsets&(nsets-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: non-power-of-two geometry sets=%d line=%d", nsets, lineBytes))
	}
	c := &Cache{
		sets:      make([][]line, nsets),
		lineShift: log2(uint64(lineBytes)),
		setShift:  log2(uint64(nsets)),
		setMask:   uint64(nsets) - 1,
	}
	backing := make([]line, nsets*ways)
	for i := range c.sets {
		c.sets[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return c
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

func (c *Cache) index(addr uint64) (setIdx uint64, tag uint64) {
	lineNum := addr >> c.lineShift
	return lineNum & c.setMask, lineNum >> c.setShift
}

// Access looks up addr, updating LRU state and the hit/miss counters.
// On a write hit the line is marked dirty. Returns whether it hit.
func (c *Cache) Access(addr uint64, isWrite bool) bool {
	set, tag := c.index(addr)
	c.tick++
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.used = c.tick
			if isWrite {
				l.dirty = true
			}
			c.stats.Hits++
			return true
		}
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
	c.tick += uint64(k)
	c.stats.Misses += k
}

// WritebackHit marks the line containing addr dirty if present, without
// promoting its replacement state: a writeback is not a demand reuse, so it
// must not keep a dead line alive. Returns whether the line was present.
func (c *Cache) WritebackHit(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.dirty = true
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Contains probes for addr without disturbing LRU state or counters.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Victim describes a line displaced by a Fill.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// Fill installs the line containing addr (marking it dirty if requested) and
// returns the evicted victim, if any. Filling an already-present line only
// refreshes its LRU position (and dirtiness).
func (c *Cache) Fill(addr uint64, dirty bool) (Victim, bool) {
	set, tag := c.index(addr)
	c.tick++
	ways := c.sets[set]
	// Already present (e.g. a second fill racing a prefetch): refresh.
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].used = c.tick
			ways[i].dirty = ways[i].dirty || dirty
			return Victim{}, false
		}
	}
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	var ev Victim
	evicted := ways[victim].valid
	if evicted {
		ev = Victim{Addr: c.addrOf(set, ways[victim].tag), Dirty: ways[victim].dirty}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	used := c.tick
	if c.lip {
		used = 0 // LRU insertion: next victim unless re-referenced
	}
	ways[victim] = line{tag: tag, valid: true, dirty: dirty, used: used}
	c.stats.Fills++
	return ev, evicted
}

// Invalidate drops the line containing addr if present, returning whether it
// was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty bool) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			wasDirty = l.dirty
			*l = line{}
			return wasDirty
		}
	}
	return false
}

func (c *Cache) addrOf(set, tag uint64) uint64 {
	return (tag<<c.setShift | set) << c.lineShift
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters (used at the warmup/measurement
// boundary).
func (c *Cache) ResetStats() { c.stats = Stats{} }
