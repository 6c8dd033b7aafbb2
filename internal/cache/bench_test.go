package cache

import "testing"

// BenchmarkCacheAccess measures one op = one lookup on the L2 bank shape
// (512 KB, 64-byte lines, 8 ways, LIP), filling the line on a miss, over a
// xorshift stream of lines from a footprint twice the capacity, so hits,
// fills and evictions mix. Every eighth access is a write.
func BenchmarkCacheAccess(b *testing.B) {
	const size, line = 512 << 10, 64
	c := New(size, line, 8)
	c.SetLIPInsertion(true)
	lines := uint64(2 * size / line)
	var x uint64 = 88172645463325252
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := (x % lines) * line
		if !c.Access(addr, i&7 == 0) {
			c.Fill(addr, false)
		}
	}
}
