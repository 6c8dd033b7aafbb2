// Package timerwheel provides a hierarchical timing wheel for the event
// schedulers in internal/sim and internal/noc. The wake traffic there is
// dominated by short horizons — DRAM completions a few hundred cycles out,
// idleness samples every 100 cycles, router arrivals a handful of cycles
// ahead — where a binary heap pays O(log n) sifts (and their branchy element
// swaps) on every push and pop. The wheel makes push and pop O(1)
// amortized over that short range and keeps a small (at, seq) min-heap only
// as an overflow level for far-future deadlines (refresh periods, policy
// pushes), which are rare enough that their log factor never shows.
//
// Layout: numLevels levels of numSlots slots each, slot width numSlots^L
// cycles, so the in-wheel horizon is numSlots^numLevels cycles from the
// current base. Slots are indexed by the deadline's absolute time (level L
// uses bits [slotBits*L, slotBits*(L+1)) of the cycle number), so an entry's
// slot never changes while the base advances within a window; crossing a
// window boundary cascades the corresponding higher-level slot down. A
// per-level occupancy bitmap makes "earliest occupied slot" a couple of bit
// operations.
//
// The base tracks delivered time: it advances only up to deadlines PopDue has
// delivered (never past the caller's now), so a later Push may target any
// still-future cycle. Min is a read-only scan — one bitmap probe per level
// plus at most one slot's entries — rather than a cascade, for the same
// reason.
//
// Delivery order is globally (at, seq) — deadline, then push order — exactly
// the order a stable min-heap would produce. Cascading between levels can
// physically reorder same-deadline entries, so each delivered slot (which
// holds exactly one tick's live entries) is sorted by seq; slots are tiny, so
// this costs nothing measurable.
//
// The wheel is not safe for concurrent use; in the simulator each shard owns
// its wheels outright. PopDue visitors must not call back into the wheel
// being drained (the schedulers never do — due wakes only set active bits).
package timerwheel

import (
	"math/bits"
	"slices"
)

const (
	slotBits  = 6
	numSlots  = 1 << slotBits // 64 slots per level
	slotMask  = numSlots - 1
	numLevels = 3
	// span is the in-wheel horizon: deadlines at least this far beyond the
	// base live in the overflow heap until the base catches up.
	span = int64(1) << (slotBits * numLevels)
)

// Due is one delivered entry: the deadline it was pushed with and its value.
type Due[T any] struct {
	At  int64
	Val T
}

type entry[T any] struct {
	at  int64
	seq uint64
	val T
}

// Wheel is a hierarchical timing wheel over int64 cycle deadlines.
// The zero base is cycle 0; deadlines before the base clamp up to it
// (a late push becomes due immediately, never lost).
type Wheel[T any] struct {
	base int64  // all live entries have at >= base
	seq  uint64 // monotonic push counter: the tie-break of delivery order
	n    int    // stored entries

	slots [numLevels][numSlots][]entry[T]
	occ   [numLevels]uint64 // per-level slot occupancy bitmaps

	// ovf holds entries with at-base >= span: a min-heap on (at, seq).
	ovf []entry[T]

	scratch []entry[T] // delivery buffer, reused across PopDue calls
}

// New returns an empty wheel based at cycle 0.
func New[T any]() *Wheel[T] { return &Wheel[T]{} }

// Len returns the number of pending entries.
func (w *Wheel[T]) Len() int { return w.n }

// Push schedules v at cycle at (clamped up to the wheel base if in the past).
// There is no cancel: the schedulers' wakes are allowed to be spurious.
func (w *Wheel[T]) Push(at int64, v T) {
	if at < w.base {
		at = w.base
	}
	w.seq++
	w.place(entry[T]{at: at, seq: w.seq, val: v})
	w.n++
}

// Reset discards every entry and rebases the wheel at cycle 0. Slot and
// buffer capacity is kept so a reset wheel re-fills without allocating.
func (w *Wheel[T]) Reset() {
	for l := 0; l < numLevels; l++ {
		for occ := w.occ[l]; occ != 0; occ &= occ - 1 {
			s := bits.TrailingZeros64(occ)
			clearEntries(w.slots[l][s])
			w.slots[l][s] = w.slots[l][s][:0]
		}
		w.occ[l] = 0
	}
	clearEntries(w.ovf)
	w.ovf = w.ovf[:0]
	w.n = 0
	w.base = 0
}

// place files an entry at the level matching its distance from the base.
// Precondition: e.at >= w.base.
func (w *Wheel[T]) place(e entry[T]) {
	d := e.at - w.base
	if d >= span {
		w.ovfPush(e)
		return
	}
	l := 0
	for d >= int64(numSlots)<<(slotBits*l) {
		l++
	}
	s := int(e.at>>(slotBits*l)) & slotMask
	w.slots[l][s] = append(w.slots[l][s], e)
	w.occ[l] |= 1 << s
}

// advanceTo moves the base forward to nb, cascading every higher-level slot
// whose window the move crosses and refilling from the overflow heap.
// Precondition: no live entry has at < nb (callers only advance past
// delivered deadlines or provably-empty time).
func (w *Wheel[T]) advanceTo(nb int64) {
	old := w.base
	if nb <= old {
		return
	}
	w.base = nb
	for l := 1; l < numLevels; l++ {
		shift := uint(slotBits * l)
		oldw, neww := old>>shift, nb>>shift
		if oldw == neww {
			break // higher-level windows are unchanged too
		}
		if neww-oldw >= numSlots {
			// Every slot's window lies in (oldw, oldw+numSlots] <= neww.
			for occ := w.occ[l]; occ != 0; occ &= occ - 1 {
				w.flush(l, bits.TrailingZeros64(occ))
			}
			continue
		}
		for occ := w.occ[l]; occ != 0; occ &= occ - 1 {
			s := bits.TrailingZeros64(occ)
			// The slot's window is the unique w in (oldw, oldw+numSlots]
			// congruent to s mod numSlots.
			d := (int64(s) - oldw) & slotMask
			if d == 0 {
				d = numSlots
			}
			if oldw+d <= neww {
				w.flush(l, s)
			}
		}
	}
	for len(w.ovf) > 0 && w.ovf[0].at-nb < span {
		w.place(w.ovfPop())
	}
}

// flush re-files every entry of a higher-level slot. Entries always move
// to a strictly lower level (their window has become current), so place never
// appends back into the slot being drained.
func (w *Wheel[T]) flush(l, s int) {
	es := w.slots[l][s]
	w.occ[l] &^= 1 << s
	for _, e := range es {
		w.place(e)
	}
	clearEntries(es)
	w.slots[l][s] = es[:0]
}

// Min returns the earliest pending deadline; ok is false when empty. It never
// advances the base: per level it probes the occupancy bitmap for the
// earliest-window slot and takes that slot's minimum (sufficient, since any
// other slot's window starts after this one ends), plus the overflow head.
func (w *Wheel[T]) Min() (at int64, ok bool) {
	best := int64(1)<<62 - 1
	any := false

	// Level 0: slots hold exactly one tick each, at offsets 0..63 from the
	// base; the earliest occupied slot in circular order is the level min.
	if w.occ[0] != 0 {
		cur := int(w.base) & slotMask
		rot := bits.RotateLeft64(w.occ[0], -cur)
		s := (cur + bits.TrailingZeros64(rot)) & slotMask
		best, any = w.slots[0][s][0].at, true
	}

	for l := 1; l < numLevels; l++ {
		if w.occ[l] == 0 {
			continue
		}
		// Slot windows sit at offsets 1..64 after the base's window
		// (offset 0 would have cascaded), so rotate past cur itself.
		cur := int(w.base>>uint(slotBits*l)) & slotMask
		rot := bits.RotateLeft64(w.occ[l], -(cur + 1))
		s := (cur + 1 + bits.TrailingZeros64(rot)) & slotMask
		for _, e := range w.slots[l][s] {
			if e.at < best {
				best, any = e.at, true
			}
		}
	}

	if len(w.ovf) > 0 && w.ovf[0].at < best {
		best, any = w.ovf[0].at, true
	}
	return best, any
}

// PopDue appends every entry with deadline <= now to out in (at, seq) order
// and returns the extended slice. The base ends at now+1 — never further, so
// subsequent pushes may target any cycle past now.
func (w *Wheel[T]) PopDue(now int64, out []Due[T]) []Due[T] {
	for {
		at, ok := w.Min()
		if !ok || at > now {
			break
		}
		// Advancing to the due deadline cascades its window down, so every
		// at-deadline entry now sits in the level-0 slot for that tick.
		w.advanceTo(at)
		s := int(at) & slotMask
		es := w.slots[0][s]
		w.scratch = append(w.scratch[:0], es...)
		clearEntries(es)
		w.slots[0][s] = es[:0]
		w.occ[0] &^= 1 << s
		w.n -= len(w.scratch)
		// Cascading can disorder same-tick entries; restore push order.
		slices.SortFunc(w.scratch, func(a, b entry[T]) int {
			switch {
			case a.seq < b.seq:
				return -1
			case a.seq > b.seq:
				return 1
			}
			return 0
		})
		for _, e := range w.scratch {
			out = append(out, Due[T]{At: e.at, Val: e.val})
		}
		clearEntries(w.scratch)
	}
	if w.base <= now {
		w.advanceTo(now + 1)
	}
	return out
}

// clearEntries zeroes a drained slice so stale values don't pin T's pointers.
func clearEntries[T any](es []entry[T]) {
	for i := range es {
		es[i] = entry[T]{}
	}
}

// Overflow min-heap on (at, seq).

func ovfLess[T any](a, b entry[T]) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (w *Wheel[T]) ovfPush(e entry[T]) {
	w.ovf = append(w.ovf, e)
	for i := len(w.ovf) - 1; i > 0; {
		p := (i - 1) / 2
		if !ovfLess(w.ovf[i], w.ovf[p]) {
			break
		}
		w.ovf[p], w.ovf[i] = w.ovf[i], w.ovf[p]
		i = p
	}
}

func (w *Wheel[T]) ovfPop() entry[T] {
	e := w.ovf[0]
	last := len(w.ovf) - 1
	w.ovf[0] = w.ovf[last]
	w.ovf[last] = entry[T]{}
	w.ovf = w.ovf[:last]
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < len(w.ovf) && ovfLess(w.ovf[l], w.ovf[small]) {
			small = l
		}
		if r := 2*i + 2; r < len(w.ovf) && ovfLess(w.ovf[r], w.ovf[small]) {
			small = r
		}
		if small == i {
			return e
		}
		w.ovf[i], w.ovf[small] = w.ovf[small], w.ovf[i]
		i = small
	}
}
