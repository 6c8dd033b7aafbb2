package trace

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesStdlib holds the in-package source to the stdlib's: a
// *rand.Rand over newSource(seed) and one over rand.NewSource(seed) must
// return the same value on every call of a mixed stream of a million draws,
// for the edge seeds of the stdlib's seed reduction and the per-core seeds
// the generators run under.
func TestSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, math.MaxInt32, math.MaxInt32 + 1, math.MinInt64, math.MaxInt64}
	for _, run := range []int64{1, 7} {
		for core := range 4 {
			seeds = append(seeds, coreSeed(run, core))
		}
	}
	const draws = 1_000_000
	for _, seed := range seeds {
		got, want := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
		for i := range draws {
			var g, w uint64
			// The bounds cover Intn's 31-bit path and Int63n's power-of-two
			// and rejection paths.
			switch i % 7 {
			case 0:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2, 3:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 4:
				n := 1 + i%4096
				g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
			case 5:
				g, w = uint64(got.Int63n(1<<17)), uint64(want.Int63n(1<<17))
			case 6:
				n := int64(3)<<40 + int64(i)
				g, w = uint64(got.Int63n(n)), uint64(want.Int63n(n))
			}
			if g != w {
				t.Fatalf("seed %d, draw %d: %#x, stdlib %#x", seed, i, g, w)
			}
		}
	}
}
