package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicHitMiss(t *testing.T) {
	c := New(1024, 64, 2) // 8 sets, 2 ways
	addr := uint64(0x1000)
	if c.Access(addr, false) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(addr, false)
	if !c.Access(addr, false) {
		t.Fatal("miss after fill")
	}
	if !c.Access(addr+63, false) {
		t.Fatal("miss within the same line")
	}
	if c.Access(addr+64, false) {
		t.Fatal("hit on the neighbouring line")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2*64, 64, 2) // one set, 2 ways
	a, b, d := uint64(0), uint64(1<<20), uint64(2<<20)
	c.Fill(a, false)
	c.Fill(b, false)
	c.Access(a, false) // a is now MRU
	v, evicted := c.Fill(d, false)
	if !evicted || v.Addr != b {
		t.Fatalf("evicted %+v, want line b (LRU)", v)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatal("wrong post-eviction contents")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(2*64, 64, 2)
	a, b, d := uint64(0), uint64(1<<20), uint64(2<<20)
	c.Fill(a, false)
	c.Access(a, true) // dirty a
	c.Fill(b, false)
	c.Access(b, false)
	v, evicted := c.Fill(d, false)
	if !evicted || v.Addr != a || !v.Dirty {
		t.Fatalf("evicted %+v, want dirty line a", v)
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks %d, want 1", got)
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	c := New(2*64, 64, 2)
	a := uint64(0)
	c.Fill(a, false)
	if _, evicted := c.Fill(a, true); evicted {
		t.Fatal("refilling a present line must not evict")
	}
	// The refill marked it dirty.
	b, d := uint64(1<<20), uint64(2<<20)
	c.Fill(b, false)
	c.Access(b, false)
	if v, _ := c.Fill(d, false); !v.Dirty || v.Addr != a {
		t.Fatalf("evicted %+v, want dirty a", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1024, 64, 2)
	a := uint64(0x40)
	c.Fill(a, true)
	if !c.Invalidate(a) {
		t.Fatal("invalidate should report dirty")
	}
	if c.Contains(a) {
		t.Fatal("line survived invalidation")
	}
	if c.Invalidate(a) {
		t.Fatal("second invalidate found the line")
	}
}

func TestLIPStreamingResistance(t *testing.T) {
	c := New(8*64, 64, 8) // one set, 8 ways
	c.SetLIPInsertion(true)
	// Install and promote a 7-line working set.
	for i := uint64(0); i < 7; i++ {
		addr := i << 20
		c.Fill(addr, false)
		c.Access(addr, false)
	}
	// Stream 100 no-reuse lines through: with LIP they churn one way.
	for i := uint64(100); i < 200; i++ {
		c.Fill(i<<20, false)
	}
	for i := uint64(0); i < 7; i++ {
		if !c.Contains(i << 20) {
			t.Fatalf("working-set line %d flushed by the stream", i)
		}
	}
}

func TestLRUWithoutLIPIsFlushedByStream(t *testing.T) {
	c := New(8*64, 64, 8)
	for i := uint64(0); i < 7; i++ {
		c.Fill(i<<20, false)
		c.Access(i<<20, false)
	}
	for i := uint64(100); i < 200; i++ {
		c.Fill(i<<20, false)
	}
	survivors := 0
	for i := uint64(0); i < 7; i++ {
		if c.Contains(i << 20) {
			survivors++
		}
	}
	if survivors != 0 {
		t.Fatalf("%d working-set lines survived a long stream under plain LRU", survivors)
	}
}

func TestWritebackHitDoesNotPromote(t *testing.T) {
	c := New(2*64, 64, 2)
	c.SetLIPInsertion(true)
	warm := uint64(1 << 20)
	c.Fill(warm, false)
	c.Access(warm, false) // promoted
	cold := uint64(2 << 20)
	c.Fill(cold, false) // LIP: inserted at LRU
	if !c.WritebackHit(cold) {
		t.Fatal("writeback missed a present line")
	}
	// A new fill must evict the cold line despite its recent writeback.
	v, evicted := c.Fill(3<<20, false)
	if !evicted || v.Addr != cold {
		t.Fatalf("evicted %+v, want the written-back cold line", v)
	}
	if !v.Dirty {
		t.Error("writeback should have marked the line dirty")
	}
}

func TestVictimSameSetProperty(t *testing.T) {
	c := New(32<<10, 64, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(1<<22)) &^ 63
		v, evicted := c.Fill(addr, rng.Intn(2) == 0)
		if evicted {
			// Victim must map to the same set as the new line.
			if (v.Addr>>6)&127 != (addr>>6)&127 {
				t.Fatalf("victim %#x not in the set of %#x", v.Addr, addr)
			}
			if c.Contains(v.Addr) {
				t.Fatalf("victim %#x still present", v.Addr)
			}
		}
		if !c.Contains(addr) {
			t.Fatalf("filled %#x absent", addr)
		}
	}
}

func TestMSHRCoalescing(t *testing.T) {
	m := NewMSHRTable[string](2)
	p1, ok := m.Allocate(0x100, false, "a")
	if !p1 || !ok {
		t.Fatal("first allocation should be a primary miss")
	}
	p2, ok := m.Allocate(0x100, true, "b")
	if p2 || !ok {
		t.Fatal("second allocation should coalesce")
	}
	if !m.Pending(0x100) || m.Len() != 1 {
		t.Fatal("pending state wrong")
	}
	e, ok := m.Complete(0x100)
	if !ok || len(e.Waiters) != 2 || !e.Dirty {
		t.Fatalf("completed entry %+v", e)
	}
	if _, ok := m.Complete(0x100); ok {
		t.Fatal("double completion")
	}
}

// TestMSHRCapacity drives a table at the capacities the simulator uses (16
// per L2 bank, 32 per L1) through the life cycle an exhausted table sees:
// refusal when full, coalescing while full, Complete -> Release -> reuse of
// the freed slot, and Reset. Gen must move exactly when an entry leaves.
func TestMSHRCapacity(t *testing.T) {
	for _, capacity := range []int{3, 16, 32} {
		m := NewMSHRTable[int](capacity)
		line := func(i int) uint64 { return uint64(i+1) * 0x100 }
		for i := 0; i < capacity; i++ {
			if primary, ok := m.Allocate(line(i), false, i); !primary || !ok {
				t.Fatalf("cap %d: allocation %d = (%v, %v), want a primary miss", capacity, i, primary, ok)
			}
		}
		if !m.Full() || m.Len() != capacity || m.Cap() != capacity {
			t.Fatalf("cap %d: full=%v len=%d cap=%d after filling", capacity, m.Full(), m.Len(), m.Cap())
		}
		gen := m.Gen()
		if _, ok := m.Allocate(line(capacity), false, 0); ok {
			t.Fatalf("cap %d: allocation beyond capacity accepted", capacity)
		}
		if m.Pending(line(capacity)) {
			t.Fatalf("cap %d: refused line reported pending", capacity)
		}
		// Coalescing is still allowed when full, onto any entry.
		for _, i := range []int{0, capacity - 1} {
			if primary, ok := m.Allocate(line(i), true, 100+i); primary || !ok {
				t.Fatalf("cap %d: coalescing onto entry %d while full = (%v, %v)", capacity, i, primary, ok)
			}
		}
		if m.Gen() != gen {
			t.Fatalf("cap %d: generation moved without an entry leaving", capacity)
		}
		// Completing an entry in the middle frees one slot; the others stay.
		mid := capacity / 2
		e, ok := m.Complete(line(mid))
		if !ok || e.LineAddr != line(mid) || len(e.Waiters) != 1 || e.Waiters[0] != mid {
			t.Fatalf("cap %d: completed entry %+v", capacity, e)
		}
		if m.Gen() == gen {
			t.Fatalf("cap %d: generation did not move on Complete", capacity)
		}
		if m.Full() || m.Pending(line(mid)) || m.Len() != capacity-1 {
			t.Fatalf("cap %d: table did not shrink on Complete", capacity)
		}
		m.Release(e)
		if primary, ok := m.Allocate(line(capacity), true, 7); !primary || !ok {
			t.Fatalf("cap %d: freed slot not reusable", capacity)
		}
		if got, ok := m.Entry(line(capacity)); !ok || !got.Dirty || len(got.Waiters) != 1 || got.Waiters[0] != 7 {
			t.Fatalf("cap %d: recycled entry carries stale state: %+v", capacity, got)
		}
		for i := 0; i <= capacity; i++ {
			if want := i != mid; m.Pending(line(i)) != want {
				t.Fatalf("cap %d: line %d pending = %v, want %v", capacity, i, !want, want)
			}
		}
		if got, ok := m.Entry(line(0)); !ok || !got.Dirty || len(got.Waiters) != 2 {
			t.Fatalf("cap %d: coalesced entry %+v", capacity, got)
		}
		if lines := m.Lines(); len(lines) != capacity {
			t.Fatalf("cap %d: Lines returned %d addresses", capacity, len(lines))
		}
		gen = m.Gen()
		m.Reset()
		if m.Len() != 0 || m.Full() || m.Pending(line(0)) || len(m.Lines()) != 0 || m.Gen() == gen {
			t.Fatalf("cap %d: Reset left len=%d full=%v", capacity, m.Len(), m.Full())
		}
		if primary, ok := m.Allocate(line(0), false, 1); !primary || !ok {
			t.Fatalf("cap %d: table unusable after Reset", capacity)
		}
		if got, _ := m.Entry(line(0)); got.Dirty || len(got.Waiters) != 1 {
			t.Fatalf("cap %d: entry recycled by Reset carries stale state: %+v", capacity, got)
		}
	}
}

// TestReplayMisses pins the closed-form retry replay to the lookups it stands
// for: k missing Access calls and ReplayMisses(k) leave identical caches.
func TestReplayMisses(t *testing.T) {
	polled, replayed := New(1024, 64, 2), New(1024, 64, 2)
	for _, c := range []*Cache{polled, replayed} {
		c.Fill(0x000, false)
		c.Fill(0x400, true)
	}
	const k = 5
	for i := 0; i < k; i++ {
		if polled.Access(0x800, false) {
			t.Fatal("absent line hit")
		}
	}
	replayed.ReplayMisses(k)
	// A later touch stamps the same LRU time on both, so the next victim
	// agrees too.
	for _, c := range []*Cache{polled, replayed} {
		c.Access(0x000, false)
	}
	if polled.Stats() != replayed.Stats() || polled.tick != replayed.tick {
		t.Fatalf("polled %+v tick %d, replayed %+v tick %d", polled.Stats(), polled.tick, replayed.Stats(), replayed.tick)
	}
	vp, _ := polled.Fill(0x800, false)
	vr, _ := replayed.Fill(0x800, false)
	if vp != vr {
		t.Fatalf("victims differ: polled %+v, replayed %+v", vp, vr)
	}
}

func TestSNUCABankMapping(t *testing.T) {
	s := NewSNUCA(32, 64)
	if s.Banks() != 32 {
		t.Fatalf("banks %d", s.Banks())
	}
	for i := uint64(0); i < 64; i++ {
		if got, want := s.Bank(i*64), int(i%32); got != want {
			t.Fatalf("line %d bank %d, want %d", i, got, want)
		}
	}
}

func TestSNUCALocalGlobalRoundTrip(t *testing.T) {
	s := NewSNUCA(32, 64)
	f := func(a uint32) bool {
		addr := uint64(a)
		bank := s.Bank(addr)
		return s.Global(s.Local(addr), bank) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSNUCALocalDensity(t *testing.T) {
	// Bank-local line numbers of a bank's lines must be consecutive:
	// line k*banks+b maps to local line k.
	s := NewSNUCA(32, 64)
	for k := uint64(0); k < 100; k++ {
		addr := (k*32 + 5) * 64 // lines of bank 5
		if got := s.Local(addr) >> 6; got != k {
			t.Fatalf("local line %d, want %d", got, k)
		}
	}
}

func TestCacheStatsReset(t *testing.T) {
	c := New(1024, 64, 2)
	c.Access(0, false)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("stats not zeroed")
	}
}
