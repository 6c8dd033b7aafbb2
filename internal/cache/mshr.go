package cache

import "fmt"

// MSHR is one miss-status holding register: an outstanding line fetch plus
// every access coalesced onto it. The waiter type W is plain data (the L1
// tables carry ROB slot indices, the L2 tables carry transaction pointers),
// which keeps outstanding misses serializable for checkpointing.
type MSHR[W any] struct {
	LineAddr uint64
	Dirty    bool // a store is among the waiters; fill installs dirty
	Waiters  []W  // per-access tokens, completed together on fill
}

// MSHRTable tracks outstanding misses with coalescing. The zero value is
// unusable; construct with NewMSHRTable.
//
// Capacities are a few dozen entries, so the table is a pair of parallel
// slices scanned linearly: lines holds the outstanding addresses contiguously
// (a lookup touches a few cache lines and hashes nothing), entries the
// matching registers. Completion swap-removes, so the order is unspecified.
type MSHRTable[W any] struct {
	cap     int
	lines   []uint64
	entries []*MSHR[W]
	// free recycles completed entries (and their Waiters backing arrays) so
	// steady-state miss traffic allocates nothing. Not safe for concurrent
	// use, like the table itself.
	free []*MSHR[W]
	// gen counts the events that can turn a refused Allocate into an accepted
	// one: see Gen.
	gen uint64
}

// NewMSHRTable returns a table with capacity for n outstanding lines.
func NewMSHRTable[W any](n int) *MSHRTable[W] {
	if n < 1 {
		panic(fmt.Sprintf("cache: MSHR capacity %d", n))
	}
	return &MSHRTable[W]{cap: n, lines: make([]uint64, 0, n), entries: make([]*MSHR[W], 0, n), gen: 1}
}

// find returns the index of lineAddr's entry, or -1.
func (t *MSHRTable[W]) find(lineAddr uint64) int {
	for i, l := range t.lines {
		if l == lineAddr {
			return i
		}
	}
	return -1
}

// Allocate registers a miss on lineAddr carrying the given waiter token.
// primary is true when this miss must actually fetch the line (first miss);
// a secondary miss coalesces onto the in-flight fetch. ok is false when the
// table is full and the miss cannot be accepted this cycle.
func (t *MSHRTable[W]) Allocate(lineAddr uint64, isWrite bool, waiter W) (primary, ok bool) {
	if i := t.find(lineAddr); i >= 0 {
		m := t.entries[i]
		m.Waiters = append(m.Waiters, waiter)
		m.Dirty = m.Dirty || isWrite
		return false, true
	}
	if len(t.lines) >= t.cap {
		return false, false
	}
	var m *MSHR[W]
	if l := len(t.free); l > 0 {
		m = t.free[l-1]
		t.free[l-1] = nil
		t.free = t.free[:l-1]
		m.LineAddr, m.Dirty = lineAddr, isWrite
		m.Waiters = append(m.Waiters, waiter)
	} else {
		m = &MSHR[W]{LineAddr: lineAddr, Dirty: isWrite, Waiters: []W{waiter}}
	}
	t.lines = append(t.lines, lineAddr)
	t.entries = append(t.entries, m)
	return true, true
}

// Complete removes and returns the entry for lineAddr; ok is false when no
// miss was outstanding for that line.
func (t *MSHRTable[W]) Complete(lineAddr uint64) (*MSHR[W], bool) {
	i := t.find(lineAddr)
	if i < 0 {
		return nil, false
	}
	m := t.entries[i]
	last := len(t.lines) - 1
	t.lines[i], t.entries[i] = t.lines[last], t.entries[last]
	t.entries[last] = nil
	t.lines, t.entries = t.lines[:last], t.entries[:last]
	t.gen++
	return m, true
}

// Release returns a completed entry to the table's free list. The caller
// must be done with m and its Waiters; releasing an entry still in the
// table, or twice, corrupts the free list.
func (t *MSHRTable[W]) Release(m *MSHR[W]) {
	clear(m.Waiters)
	m.Waiters = m.Waiters[:0]
	m.LineAddr, m.Dirty = 0, false
	t.free = append(t.free, m)
}

// Pending reports whether a fetch of lineAddr is in flight.
func (t *MSHRTable[W]) Pending(lineAddr uint64) bool { return t.find(lineAddr) >= 0 }

// Len returns the number of outstanding lines.
func (t *MSHRTable[W]) Len() int { return len(t.lines) }

// Cap returns the table capacity.
func (t *MSHRTable[W]) Cap() int { return t.cap }

// Full reports whether no further primary miss can be accepted.
func (t *MSHRTable[W]) Full() bool { return len(t.lines) >= t.cap }

// Gen returns the table's generation, which advances whenever an entry leaves
// (Complete, Reset). An Allocate refused at generation g is refused again for
// as long as Gen still returns g: a refusal means the table is full and the
// line absent from it, a full table admits no new line, and only a departure
// makes room. Callers use it to skip retries that cannot succeed.
func (t *MSHRTable[W]) Gen() uint64 { return t.gen }

// Lines returns the outstanding line addresses in unspecified order; the
// checkpoint layer sorts them to make encoding deterministic.
func (t *MSHRTable[W]) Lines() []uint64 {
	return append(make([]uint64, 0, len(t.lines)), t.lines...)
}

// Entry returns the live entry for lineAddr without removing it, for
// checkpoint encoding.
func (t *MSHRTable[W]) Entry(lineAddr uint64) (*MSHR[W], bool) {
	if i := t.find(lineAddr); i >= 0 {
		return t.entries[i], true
	}
	return nil, false
}

// Reset drops every outstanding entry, returning the table to its
// post-construction state; the checkpoint layer rebuilds entries from a
// snapshot afterwards via Allocate.
func (t *MSHRTable[W]) Reset() {
	for i, m := range t.entries {
		t.entries[i] = nil
		t.Release(m)
	}
	t.lines, t.entries = t.lines[:0], t.entries[:0]
	t.gen++
}
