package trace

import "math/rand"

// The shape of math/rand's additive lagged-Fibonacci generator: 607 words of
// feedback register, the second tap 273 words behind the first.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// source is the generator behind rand.NewSource — the same recurrence, the
// same seeding, the same stream — with its state in the package's reach, so
// a checkpoint can carry the state instead of the draws that led to it. A
// *rand.Rand over a source draws exactly what one over rand.NewSource of the
// same seed draws: Rand keeps no state of its own outside Read.
type source struct {
	tap  int // index into vec
	feed int // index into vec; always (tap+rngLen-rngTap) % rngLen
	vec  [rngLen]uint64
}

// newSource returns a source seeded as rand.NewSource(seed).
func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed resets s to the state rand.NewSource(seed) starts in, without a copy
// of the stdlib's seeding table: the first rngLen draws of rand.NewSource
// overwrite every slot of the register (each writes the slot feed has just
// moved to), and the taps are back where they started. Those draws, placed
// where they were written, are that source's state after them; running the
// recurrence backwards rngLen steps recovers its state before them.
func (s *source) Seed(seed int64) {
	std := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed = 0, rngLen-rngTap
	for range rngLen {
		_, feed := s.step()
		s.vec[feed] = std.Uint64()
	}
	for range rngLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%rngLen, (s.feed+1)%rngLen
	}
}

// step moves both taps one word back and returns them.
func (s *source) step() (tap, feed int) {
	tap, feed = s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	return tap, feed
}

// Uint64 returns the next word of the stream.
func (s *source) Uint64() uint64 {
	tap, feed := s.step()
	x := s.vec[feed] + s.vec[tap]
	s.vec[feed] = x
	return x
}

// Int63 returns the next word without its top bit.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

var _ rand.Source64 = (*source)(nil)
