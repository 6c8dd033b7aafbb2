package stats

import "fmt"

// WeightedSpeedup computes the weighted speedup metric of Section 4.1:
//
//	WS = sum_i IPC_i(shared) / IPC_i(alone)
//
// It panics if the slices differ in length and returns an error if any alone
// IPC is non-positive (which would make the metric undefined).
func WeightedSpeedup(shared, alone []float64) (float64, error) {
	if len(shared) != len(alone) {
		panic(fmt.Sprintf("stats: weighted speedup over %d shared vs %d alone IPCs", len(shared), len(alone)))
	}
	var ws float64
	for i := range shared {
		if alone[i] <= 0 {
			return 0, fmt.Errorf("stats: application %d has alone IPC %v", i, alone[i])
		}
		ws += shared[i] / alone[i]
	}
	return ws, nil
}

// NormalizedSpeedup returns ws/base, the normalized weighted speedup the
// paper's Figure 11 reports (1.0 = no change over the unprioritized base).
func NormalizedSpeedup(ws, base float64) (float64, error) {
	if base <= 0 {
		return 0, fmt.Errorf("stats: base weighted speedup %v", base)
	}
	return ws / base, nil
}

// MaxSlowdown returns max_i IPC_i(alone)/IPC_i(shared), the unfairness
// metric commonly reported alongside weighted speedup.
func MaxSlowdown(shared, alone []float64) (float64, error) {
	if len(shared) != len(alone) {
		panic(fmt.Sprintf("stats: max slowdown over %d shared vs %d alone IPCs", len(shared), len(alone)))
	}
	var worst float64
	for i := range shared {
		if shared[i] <= 0 {
			return 0, fmt.Errorf("stats: application %d has shared IPC %v", i, shared[i])
		}
		if s := alone[i] / shared[i]; s > worst {
			worst = s
		}
	}
	return worst, nil
}

// HarmonicSpeedup returns n / sum_i IPC_i(alone)/IPC_i(shared), which
// balances fairness and throughput.
func HarmonicSpeedup(shared, alone []float64) (float64, error) {
	if len(shared) != len(alone) {
		panic(fmt.Sprintf("stats: harmonic speedup over %d shared vs %d alone IPCs", len(shared), len(alone)))
	}
	if len(shared) == 0 {
		return 0, fmt.Errorf("stats: harmonic speedup of zero applications")
	}
	var sum float64
	for i := range shared {
		if shared[i] <= 0 {
			return 0, fmt.Errorf("stats: application %d has shared IPC %v", i, shared[i])
		}
		sum += alone[i] / shared[i]
	}
	return float64(len(shared)) / sum, nil
}
