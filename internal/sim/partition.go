package sim

// Cost-model shard partitioning. The parallel stepper splits the tile range
// into contiguous chunks whose per-tile costs balance, instead of fixed
// rectangular quadrants: a skewed workload (all traffic aimed at one MC
// corner, the regime the paper's hotspot traffic creates) concentrates almost
// all work in a few tiles, and an even geometric split leaves most workers
// idle every cycle.
//
// Costs are estimates, not semantics: the results are partition-independent
// by the boundary-queue construction (see shard.go), so a bad estimate only
// wastes wall-clock time. The weights are static (a tile with a core or a
// memory controller is busier than an empty one) and the partition is built
// once, at construction (buildShards).

// Static per-tile cost weights: every tile pays for its router, an
// application core dominates an idle tile, and an MC tile also runs the DRAM
// controller plus the ejection/injection traffic of every request it serves.
const (
	costRouter     = 1
	costActiveCore = 4
	costMCTile     = 8
)

// staticCosts estimates per-tile stepping cost from the configuration alone.
func (s *Simulator) staticCosts() []int64 {
	costs := make([]int64, len(s.nodes))
	for i, n := range s.nodes {
		c := int64(costRouter)
		if n.core != nil {
			c += costActiveCore
		}
		if s.mcAt[i] != nil {
			c += costMCTile
		}
		costs[i] = c
	}
	return costs
}

// linearPartition splits costs into exactly k contiguous non-empty ranges
// minimizing the maximum range sum, and returns the exclusive end index of
// each range (the last is len(costs)). k is clamped to [1, len(costs)].
// Deterministic: a pure function of its inputs.
//
// Binary search on the max-sum cap with a greedy feasibility check — O(n log
// sum) — then splits oversized ranges until exactly k remain (splitting never
// increases the max, and every cost is >= 0 so empty padding ranges are never
// needed while k <= n).
func linearPartition(costs []int64, k int) []int {
	n := len(costs)
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	var lo, hi int64
	for _, c := range costs {
		if c > lo {
			lo = c
		}
		hi += c
	}
	// fit returns the greedy range ends under the given max-sum limit, or nil
	// when more than k ranges would be needed.
	fit := func(limit int64) []int {
		ends := make([]int, 0, k)
		var sum int64
		for i, c := range costs {
			if sum+c > limit && sum > 0 {
				if len(ends) == k-1 {
					return nil
				}
				ends = append(ends, i)
				sum = 0
			}
			sum += c
		}
		return append(ends, n)
	}
	best := fit(hi)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if e := fit(mid); e != nil {
			best, hi = e, mid
		} else {
			lo = mid + 1
		}
	}
	// Exactly k ranges: repeatedly halve the widest range (ties: lowest
	// index) until the count matches. Only reached when the cost mass
	// concentrates in fewer than k greedy ranges.
	for len(best) < k {
		widest, width, start := -1, 0, 0
		for i, end := range best {
			if w := end - start; w > width {
				widest, width = i, w
			}
			start = end
		}
		start = 0
		if widest > 0 {
			start = best[widest-1]
		}
		mid := start + width/2
		best = append(best, 0)
		copy(best[widest+1:], best[widest:])
		best[widest] = mid
	}
	return best
}
