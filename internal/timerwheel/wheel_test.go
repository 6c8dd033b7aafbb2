package timerwheel

import (
	"math/rand"
	"sort"
	"testing"
)

// refHeap is the reference model: a plain sorted list delivering entries in
// (at, seq) order. Everything the wheel does must match it operation for
// operation.
type refEntry struct {
	at  int64
	seq uint64
	val int
}

type refHeap struct {
	pending []refEntry
}

func (h *refHeap) push(at int64, seq uint64, val int, base int64) {
	if at < base {
		at = base
	}
	h.pending = append(h.pending, refEntry{at, seq, val})
}

func (h *refHeap) min() (int64, bool) {
	ok := false
	var at int64
	for _, e := range h.pending {
		if !ok || e.at < at {
			at, ok = e.at, true
		}
	}
	return at, ok
}

func (h *refHeap) popDue(now int64) []refEntry {
	var due []refEntry
	kept := h.pending[:0]
	for _, e := range h.pending {
		if e.at <= now {
			due = append(due, e)
		} else {
			kept = append(kept, e)
		}
	}
	h.pending = kept
	sort.Slice(due, func(i, j int) bool {
		if due[i].at != due[j].at {
			return due[i].at < due[j].at
		}
		return due[i].seq < due[j].seq
	})
	return due
}

// TestWheelPropertyVsReferenceHeap drives random push/advance
// sequences through the wheel and the reference model simultaneously and
// requires identical Min values and identical pop order at every step. The
// deadline distribution is weighted toward the short horizons the simulator
// generates but regularly lands beyond every wheel level (including the
// overflow heap) and directly on window boundaries.
func TestWheelPropertyVsReferenceHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := New[int]()
			ref := &refHeap{}
			var now int64
			var base int64 // mirrors the wheel base: last PopDue now + 1

			for op := 0; op < 20_000; op++ {
				switch r := rng.Intn(100); {
				case r < 55: // push
					var d int64
					switch rng.Intn(10) {
					case 0, 1, 2, 3: // short horizon (level 0)
						d = rng.Int63n(64)
					case 4, 5, 6: // level 1
						d = 64 + rng.Int63n(4096-64)
					case 7, 8: // level 2
						d = 4096 + rng.Int63n(262144-4096)
					default: // overflow
						d = 262144 + rng.Int63n(1<<22)
					}
					if rng.Intn(8) == 0 {
						// Land exactly on a rollover boundary relative to now.
						d = []int64{0, 1, 63, 64, 4095, 4096, 262143, 262144}[rng.Intn(8)]
					}
					at := now + d
					if rng.Intn(16) == 0 {
						at = now - rng.Int63n(10) // past deadline: clamps to base
					}
					w.Push(at, op)
					ref.push(at, uint64(op), op, base) // op orders pushes as the wheel's counter does
				default: // advance time and pop everything due
					now += rng.Int63n(300)
					if rng.Intn(10) == 0 {
						now += rng.Int63n(1 << 19) // long jump across levels
					}
					got := w.PopDue(now, nil)
					want := ref.popDue(now)
					base = now + 1
					if len(got) != len(want) {
						t.Fatalf("op %d: PopDue(%d) returned %d entries, reference %d",
							op, now, len(got), len(want))
					}
					for i := range got {
						if got[i].At != want[i].at || got[i].Val != want[i].val {
							t.Fatalf("op %d: PopDue(%d)[%d] = (at=%d val=%d), reference (at=%d val=%d)",
								op, now, i, got[i].At, got[i].Val, want[i].at, want[i].val)
						}
					}
				}
				if wAt, wOK := w.Min(); true {
					rAt, rOK := ref.min()
					if wOK != rOK || (wOK && wAt != rAt) {
						t.Fatalf("op %d: Min = (%d,%v), reference (%d,%v)", op, wAt, wOK, rAt, rOK)
					}
				}
				if w.Len() != len(ref.pending) {
					t.Fatalf("op %d: Len = %d, reference %d", op, w.Len(), len(ref.pending))
				}
			}
		})
	}
}

// TestWheelLevelRollover pins behavior at the exact wheel-level boundaries:
// entries at distance 63/64 (level 0/1 edge), 4095/4096 (level 1/2 edge) and
// 262143/262144 (in-wheel/overflow edge) from a mid-window base must all pop
// in deadline order, including when one advance crosses several windows.
func TestWheelLevelRollover(t *testing.T) {
	for _, base := range []int64{0, 1, 63, 64, 100, 4095, 4097, 262200} {
		w := New[int]()
		// Establish a mid-window base without delivering anything.
		w.PopDue(base-1, nil)
		deadlines := []int64{
			base, base + 1, base + 63, base + 64, base + 65,
			base + 4095, base + 4096, base + 4097,
			base + 262143, base + 262144, base + 262145,
		}
		for i, at := range deadlines {
			w.Push(at, i)
		}
		if at, ok := w.Min(); !ok || at != base {
			t.Fatalf("base %d: Min = (%d,%v), want (%d,true)", base, at, ok, base)
		}
		// One giant advance across every level boundary at once.
		got := w.PopDue(base+262145, nil)
		if len(got) != len(deadlines) {
			t.Fatalf("base %d: popped %d of %d entries", base, len(got), len(deadlines))
		}
		for i, d := range got {
			if d.At != deadlines[i] || d.Val != i {
				t.Fatalf("base %d: pop[%d] = (at=%d val=%d), want (at=%d val=%d)",
					base, i, d.At, d.Val, deadlines[i], i)
			}
		}
		if w.Len() != 0 {
			t.Fatalf("base %d: %d entries left after full drain", base, w.Len())
		}
	}
}

// TestWheelRolloverStepwise crosses the level-0 and level-1 boundaries one
// tick at a time, popping at every step — the cadence the simulator's
// executed-cycle loop produces — so cascade-on-boundary can't hide behind
// bulk advances.
func TestWheelRolloverStepwise(t *testing.T) {
	w := New[int]()
	ref := &refHeap{}
	var seq int
	for at := int64(1); at < 130; at += 3 {
		w.Push(at, seq)
		ref.push(at, uint64(seq), seq, 0)
		seq++
	}
	for at := int64(4090); at < 4105; at++ {
		w.Push(at, seq)
		ref.push(at, uint64(seq), seq, 0)
		seq++
	}
	for now := int64(0); now < 4200; now++ {
		got := w.PopDue(now, nil)
		want := ref.popDue(now)
		if len(got) != len(want) {
			t.Fatalf("now %d: popped %d, reference %d", now, len(got), len(want))
		}
		for i := range got {
			if got[i].At != want[i].at || got[i].Val != want[i].val {
				t.Fatalf("now %d: pop[%d] mismatch", now, i)
			}
		}
	}
	if w.Len() != 0 {
		t.Fatalf("%d entries left", w.Len())
	}
}

// TestWheelReset proves Reset drops everything and the wheel is reusable
// from cycle 0, the activateAll/applyEventMode contract.
func TestWheelReset(t *testing.T) {
	w := New[int]()
	w.Push(10, 1)
	w.Push(500, 2)
	w.Push(1_000_000, 3)
	w.PopDue(200, nil)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len = %d after Reset", w.Len())
	}
	if _, ok := w.Min(); ok {
		t.Fatal("Min reported an entry after Reset")
	}
	w.Push(5, 9)
	got := w.PopDue(5, nil)
	if len(got) != 1 || got[0].At != 5 || got[0].Val != 9 {
		t.Fatalf("post-Reset pop = %v", got)
	}
}
