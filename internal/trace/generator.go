package trace

import (
	"fmt"
	"math/rand"
)

// Instr is one synthetic instruction.
type Instr struct {
	IsMem   bool
	IsStore bool
	Addr    uint64 // byte address; meaningful only when IsMem
}

// Region sizes, in cache lines, of each core's private address space.
// The cold region is large enough that the stream never re-touches a line
// within any realistic simulation length.
const (
	coldRegionLines = 1 << 24 // 1 GiB of 64-byte lines
	maxSkipRows     = 1 << 10 // max random jump between cold bursts, in rows of 128 lines
)

// Generator produces the deterministic instruction stream of one core.
// It is not safe for concurrent use.
type Generator struct {
	p         Profile
	src       *source // the state behind rng, which a checkpoint carries
	rng       *rand.Rand
	lineBytes uint64

	hotBase  uint64
	warmBase uint64
	coldBase uint64

	cold     []coldStream
	nextCStr int // round-robin cursor over the cold streams

	pCold, pWarm float64

	issued uint64 // total instructions produced
}

// NewGenerator returns a generator for profile p bound to the given core.
// Streams are deterministic in (p, coreID, seed) and each core's addresses
// live in a disjoint region (multiprogrammed workloads share nothing).
func NewGenerator(p Profile, coreID int, lineBytes int, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if coreID < 0 {
		return nil, fmt.Errorf("trace: negative core id %d", coreID)
	}
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("trace: line size %d must be a power of two", lineBytes)
	}
	base := (uint64(coreID) + 1) << 36
	src := newSource(coreSeed(seed, coreID))
	g := &Generator{
		p:         p,
		src:       src,
		rng:       rand.New(src),
		lineBytes: uint64(lineBytes),
		pCold:     p.coldProb(),
		pWarm:     p.warmProb(),
	}
	// Randomize the region bases (row-aligned) the way an OS's physical
	// page allocator would: without this, every core's regions start at
	// the same power-of-two boundary and alias onto the same DRAM banks.
	rowLines := uint64(128)
	g.hotBase = base + uint64(g.rng.Int63n(1<<16))*rowLines*g.lineBytes              // within [base, base+512MiB)
	g.warmBase = base + (1 << 30) + uint64(g.rng.Int63n(1<<17))*rowLines*g.lineBytes // within [base+1GiB, base+2GiB)
	g.coldBase = base + (1 << 32)
	g.cold = make([]coldStream, p.Streams)
	for i := range g.cold {
		// Each stream walks its own slice of the cold region.
		span := uint64(coldRegionLines / len(g.cold))
		g.cold[i].lo = uint64(i) * span
		g.cold[i].span = span
		g.cold[i].ptr = g.cold[i].lo + uint64(g.rng.Int63n(int64(span/2)))
	}
	return g, nil
}

// coreSeed is the PRNG seed of core coreID's stream under the run's seed.
func coreSeed(seed int64, coreID int) int64 {
	return seed ^ int64(uint64(coreID+1)*0x9e3779b97f4a7c15>>1)
}

// PrewarmLines returns the line addresses of the application's resident
// working sets, for functional cache warming: hot lines belong in the L1
// (and L2), warm lines in the L2. This removes the cold-start transient that
// would otherwise dominate short simulations.
func (g *Generator) PrewarmLines() (hot, warm []uint64) {
	hot = make([]uint64, g.p.HotLines)
	for i := range hot {
		hot[i] = g.hotBase + uint64(i)*g.lineBytes
	}
	warm = make([]uint64, g.p.WarmLines)
	for i := range warm {
		warm[i] = g.warmBase + uint64(i)*g.lineBytes
	}
	return hot, warm
}

// coldStream is one of the application's concurrent streaming walks.
type coldStream struct {
	lo, span  uint64 // line range [lo, lo+span) of the cold region
	ptr       uint64 // current line offset
	burstLeft int
}

// Next produces the next instruction of the stream.
func (g *Generator) Next() Instr {
	g.issued++
	if g.rng.Float64() >= g.p.MemFrac {
		return Instr{}
	}
	in := Instr{IsMem: true, IsStore: g.rng.Float64() < g.p.StoreFrac}
	r := g.rng.Float64()
	switch {
	case r < g.pCold:
		in.Addr = g.nextCold()
	case r < g.pCold+g.pWarm:
		in.Addr = g.warmBase + uint64(g.rng.Intn(g.p.WarmLines))*g.lineBytes
	default:
		in.Addr = g.hotBase + uint64(g.rng.Intn(g.p.HotLines))*g.lineBytes
	}
	// Touch a random word within the line so addresses look realistic
	// without changing cache behaviour.
	in.Addr += uint64(g.rng.Intn(int(g.lineBytes/8))) * 8
	return in
}

// nextCold advances one of the concurrent streaming pointers (round-robin):
// RowBurst consecutive lines, then a random forward jump. Pointers are
// monotonic modulo huge disjoint regions, so lines are effectively never
// reused (pure off-chip misses).
func (g *Generator) nextCold() uint64 {
	st := &g.cold[g.nextCStr]
	g.nextCStr = (g.nextCStr + 1) % len(g.cold)
	if st.burstLeft == 0 {
		skip := uint64(1+g.rng.Intn(maxSkipRows)) * 128 // jump whole rows
		st.ptr = st.lo + (st.ptr-st.lo+skip)%st.span
		st.burstLeft = g.p.RowBurst
	}
	addr := g.coldBase + st.ptr*g.lineBytes
	st.ptr = st.lo + (st.ptr-st.lo+1)%st.span
	st.burstLeft--
	return addr
}
