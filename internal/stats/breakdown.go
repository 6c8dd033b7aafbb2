package stats

// Leg identifies one of the five components of an off-chip round trip
// (Figure 2 in the paper).
type Leg int

const (
	LegL1ToL2 Leg = iota // path 1: network, L1 to L2 bank
	LegL2ToMC            // path 2: network, L2 bank to memory controller
	LegMemory            // path 3: MC queueing + DRAM service
	LegMCToL2            // path 4: network, MC back to L2 bank
	LegL2ToL1            // path 5: network, L2 bank back to L1
	NumLegs
)

// String returns the label the paper uses for the leg.
func (l Leg) String() string {
	switch l {
	case LegL1ToL2:
		return "L1 to L2"
	case LegL2ToMC:
		return "L2 to Mem"
	case LegMemory:
		return "Mem"
	case LegMCToL2:
		return "Mem to L2"
	case LegL2ToL1:
		return "L2 to L1"
	}
	return "unknown"
}

// Breakdown accumulates per-leg delays of off-chip accesses grouped by
// total-delay range, reproducing Figure 4: each range (bucket) reports the
// average contribution of each leg for the accesses whose total round-trip
// delay fell in that range. Like Histogram it stores only the ranges up to
// the highest one used and grows on demand.
type Breakdown struct {
	width   int64
	n       int       // logical range count
	ranges  []bdRange // stored prefix of the n ranges
	overall [NumLegs]int64
	total   int64
}

// bdRange is one total-delay range: its access count and per-leg sums.
type bdRange struct {
	count int64
	sums  [NumLegs]int64
}

// rangeBytes is the size of a bdRange, in memory and in a checkpoint.
const rangeBytes = 8 * (1 + int(NumLegs))

// NewBreakdown returns a breakdown with n total-delay ranges of the given
// width in cycles.
func NewBreakdown(width int64, n int) *Breakdown {
	if width <= 0 || n <= 0 {
		panic("stats: invalid breakdown shape")
	}
	return &Breakdown{width: width, n: n}
}

// Add records one off-chip access with the given per-leg delays.
func (b *Breakdown) Add(legs [NumLegs]int64) {
	var total int64
	for _, v := range legs {
		total += v
	}
	i := total / b.width
	if i >= int64(b.n) {
		i = int64(b.n) - 1
	}
	if i < 0 {
		i = 0
	}
	if i >= int64(len(b.ranges)) {
		b.ranges = grow(b.ranges, int(i)+1)
	}
	r := &b.ranges[i]
	r.count++
	b.total++
	for l, v := range legs {
		r.sums[l] += v
		b.overall[l] += v
	}
}

// Merge folds the accesses of o (same width and range count) into b.
// Purely integer counters, so the result is exact regardless of merge order.
func (b *Breakdown) Merge(o *Breakdown) {
	if b.width != o.width || b.n != o.n {
		panic("stats: merging mismatched breakdowns")
	}
	if len(o.ranges) > len(b.ranges) {
		b.ranges = grow(b.ranges, len(o.ranges))
	}
	for i, or := range o.ranges {
		r := &b.ranges[i]
		r.count += or.count
		for l := Leg(0); l < NumLegs; l++ {
			r.sums[l] += or.sums[l]
		}
	}
	b.total += o.total
	for l := Leg(0); l < NumLegs; l++ {
		b.overall[l] += o.overall[l]
	}
}

// HostBytes returns the bytes of range storage b holds.
func (b *Breakdown) HostBytes() int { return rangeBytes * cap(b.ranges) }

// Row is the average per-leg delay of one total-delay range.
type Row struct {
	Lo, Hi int64 // range of total delays covered, [Lo, Hi)
	Count  int64
	Avg    [NumLegs]float64
}

// Rows returns one row per non-empty range, in increasing delay order.
func (b *Breakdown) Rows() []Row {
	var out []Row
	for i, br := range b.ranges {
		if br.count == 0 {
			continue
		}
		r := Row{Lo: int64(i) * b.width, Hi: int64(i+1) * b.width, Count: br.count}
		for l := Leg(0); l < NumLegs; l++ {
			r.Avg[l] = float64(br.sums[l]) / float64(br.count)
		}
		out = append(out, r)
	}
	return out
}

// Count returns the number of accesses recorded.
func (b *Breakdown) Count() int64 { return b.total }

// OverallAvg returns the average per-leg delay across all accesses.
func (b *Breakdown) OverallAvg() [NumLegs]float64 {
	var out [NumLegs]float64
	if b.total == 0 {
		return out
	}
	for l := Leg(0); l < NumLegs; l++ {
		out[l] = float64(b.overall[l]) / float64(b.total)
	}
	return out
}
