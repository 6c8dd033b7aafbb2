package sim

import (
	"nocmem/internal/noc"
	"nocmem/internal/stats"
)

// Histogram shapes. Round-trip latencies rarely exceed 10k cycles even under
// heavy congestion; values beyond clamp into the last bucket. A histogram or
// breakdown stores only the buckets up to the highest one a sample reached,
// so the long tail of the range costs no host memory until it is used.
const (
	histBucket  = 25
	histBuckets = 400
	bdBucket    = 100
	bdBuckets   = 100
)

// Collector accumulates the per-core measurements during the measurement
// window.
type Collector struct {
	measuring bool

	RoundTrip []*stats.Histogram // per tile: end-to-end off-chip latency
	SoFar     []*stats.Histogram // per tile: so-far delay right after the MC
	Breakdown []*stats.Breakdown // per tile: per-leg averages by delay range

	OffChip  []int64 // off-chip demand transactions completed
	L2Hits   []int64 // demand transactions served by the L2
	AvgDelay []stats.RunningMean

	// Return-path (MemDone..Done) latency split by the response priority
	// Scheme-1 assigned, quantifying how much tagged messages gain.
	RetHigh   stats.RunningMean
	RetNormal stats.RunningMean

	// Invalidations counts inclusive-L2 back-invalidations sent.
	Invalidations int64
}

// newCollector builds a collector for n tiles.
func newCollector(n int) *Collector {
	c := &Collector{
		RoundTrip: make([]*stats.Histogram, n),
		SoFar:     make([]*stats.Histogram, n),
		Breakdown: make([]*stats.Breakdown, n),
		OffChip:   make([]int64, n),
		L2Hits:    make([]int64, n),
		AvgDelay:  make([]stats.RunningMean, n),
	}
	for i := 0; i < n; i++ {
		c.RoundTrip[i] = stats.NewHistogram(histBucket, histBuckets)
		c.SoFar[i] = stats.NewHistogram(histBucket, histBuckets)
		c.Breakdown[i] = stats.NewBreakdown(bdBucket, bdBuckets)
	}
	return c
}

// done records a completed demand transaction.
func (c *Collector) done(t *Txn) {
	if !c.measuring {
		return
	}
	if !t.OffChip {
		c.L2Hits[t.Core]++
		return
	}
	c.OffChip[t.Core]++
	c.RoundTrip[t.Core].Add(t.Total())
	c.AvgDelay[t.Core].Add(float64(t.Total()))
	c.Breakdown[t.Core].Add(t.Legs())
	ret := float64(t.Done - t.MemDone)
	if t.RespPriority == noc.High {
		c.RetHigh.Add(ret)
	} else {
		c.RetNormal.Add(ret)
	}
}

// Merge folds another collector of the same shape into this one. Every
// merged quantity is an integer counter or a float64 sum of integer-valued
// samples far below 2^53, so the merge is exact and the combined result is
// independent of the number of shards the measurements were split across.
func (c *Collector) Merge(o *Collector) {
	for i := range c.RoundTrip {
		c.RoundTrip[i].Merge(o.RoundTrip[i])
		c.SoFar[i].Merge(o.SoFar[i])
		c.Breakdown[i].Merge(o.Breakdown[i])
		c.OffChip[i] += o.OffChip[i]
		c.L2Hits[i] += o.L2Hits[i]
		c.AvgDelay[i].Merge(o.AvgDelay[i])
	}
	c.RetHigh.Merge(o.RetHigh)
	c.RetNormal.Merge(o.RetNormal)
	c.Invalidations += o.Invalidations
}

// soFar records the so-far delay of a response at MC injection time.
func (c *Collector) soFar(coreID int, age int64) {
	if !c.measuring {
		return
	}
	c.SoFar[coreID].Add(age)
}
