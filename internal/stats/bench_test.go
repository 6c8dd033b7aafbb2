package stats

import (
	"math/rand"
	"testing"
)

// BenchmarkHistogramAdd measures one op = one Add into a histogram of the
// collector's round-trip shape (400 buckets of 25 cycles), starting empty so
// its growth is timed too, over a seeded stream shaped like round trips: a
// 150-cycle floor and an exponential tail that rarely passes 1 400 cycles.
func BenchmarkHistogramAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	stream := make([]int64, 1<<12)
	for i := range stream {
		stream[i] = 150 + int64(rng.ExpFloat64()*150)
	}
	h := NewHistogram(25, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(stream[i&(len(stream)-1)])
	}
}
