// Package bitset provides a small fixed-capacity bit set backed by []uint64,
// used for the simulator's per-class active sets. A Set carries as many words
// as its capacity needs and panics on out-of-range indices instead of wrapping.
//
// The hot loops that consume these sets iterate word by word at the call site
// (snapshot one word, then bits.TrailingZeros64 over it) so membership changes
// made while iterating a word — a component removing itself, for example —
// do not affect the word being walked.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a bit set over [0, 64*len(s)). The zero value has capacity 0;
// construct with New.
type Set []uint64

// New returns a set with capacity for n elements, all absent.
func New(n int) Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return make(Set, (n+63)/64)
}

// Add inserts i.
func (s Set) Add(i int) { s[i>>6] |= 1 << uint(i&63) }

// Remove deletes i.
func (s Set) Remove(i int) { s[i>>6] &^= 1 << uint(i&63) }

// Has reports whether i is present.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

// Clear removes every element.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Count returns the number of elements present.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}
