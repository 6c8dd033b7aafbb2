package bitset

import (
	"math/bits"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := New(256)
	if len(s) != 4 {
		t.Fatalf("256-element set has %d words, want 4", len(s))
	}
	if s.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	// Exercise both sides of every word boundary — exactly the indices the
	// old uint64 masks silently dropped.
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 200, 255} {
		if s.Has(i) {
			t.Fatalf("Has(%d) before Add", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) false after Add", i)
		}
	}
	if s.Count() != 9 {
		t.Fatalf("Count = %d, want 9", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 8 {
		t.Fatal("Remove(64) did not stick")
	}
	s.Add(64)
	s.Add(64) // idempotent
	if s.Count() != 9 {
		t.Fatalf("double Add changed Count to %d", s.Count())
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatal("Clear left elements behind")
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(64) on a 64-capacity set did not panic")
		}
	}()
	New(64).Add(64)
}

// TestIterationMatchesMembership pins the word-snapshot iteration idiom used
// by the schedulers.
func TestIterationMatchesMembership(t *testing.T) {
	s := New(130)
	want := []int{3, 63, 64, 100, 129}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	for wi := range s {
		w := s[wi]
		for w != 0 {
			got = append(got, wi*64+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iterated %v, want %v", got, want)
		}
	}
}
