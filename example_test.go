package nocmem_test

import (
	"fmt"
	"log"

	"nocmem"
)

// quick shortens a configuration's windows so the examples run in a second;
// the defaults (100k warmup + 300k measured cycles) are what results/ uses.
func quick(cfg nocmem.Config) nocmem.Config {
	cfg.Run.WarmupCycles = 2_000
	cfg.Run.MeasureCycles = 6_000
	cfg.S1.UpdatePeriod = 400 // thresholds reach the controllers 15 times
	return cfg
}

// Running one of the paper's Table 2 workloads under the baseline network,
// Scheme-1, and Scheme-1+2, and reading the headline metric.
func ExampleSpeedupFor() {
	cfg := quick(nocmem.Baseline32()) // Table 1 configuration
	w, _ := nocmem.GetWorkload(7)     // Table 2, memory-intensive
	row, err := nocmem.SpeedupFor(cfg, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.4f %.4f\n", row.NormS1, row.NormS1S2) // normalized weighted speedups
	// Output: 1.0235 0.9946
}

// The same question answered by the closed-form model, without simulating.
func ExampleEstimateWorkload() {
	cfg := quick(nocmem.Baseline32())
	w, _ := nocmem.GetWorkload(7)
	est, err := nocmem.EstimateWorkload(cfg, w) // closed-form, no simulation
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.3f %.1f\n", est.Apps[0].IPC, est.NetLatency)
	// Output: 0.199 104.0
}

// Building a custom system: a 16-core mesh with the two schemes enabled and
// four copies of one application (the remaining tiles stay idle).
func ExampleRunApps() {
	cfg := quick(nocmem.Baseline16()).WithSchemes(true, true)
	mcf, err := nocmem.LookupApp("mcf")
	if err != nil {
		log.Fatal(err)
	}
	res, err := nocmem.RunApps(cfg, []nocmem.Profile{mcf, mcf, mcf, mcf})
	if err != nil {
		log.Fatal(err)
	}
	for _, tile := range res.ActiveTiles() {
		h := res.Collector.RoundTrip[tile]
		fmt.Printf("tile %d: IPC %.3f, off-chip p99 %d cycles\n", tile, res.IPC[tile], h.Percentile(99))
	}
	// Output:
	// tile 0: IPC 0.419, off-chip p99 525 cycles
	// tile 1: IPC 0.417, off-chip p99 725 cycles
	// tile 2: IPC 0.444, off-chip p99 525 cycles
	// tile 3: IPC 0.411, off-chip p99 725 cycles
}

// Inspecting the five-leg latency anatomy of Figure 2/4 for one application.
func ExampleResult_breakdown() {
	cfg := quick(nocmem.Baseline32())
	w, _ := nocmem.GetWorkload(2)
	res, err := nocmem.RunWorkload(cfg, w)
	if err != nil {
		log.Fatal(err)
	}
	tile := res.ActiveTiles()[0]
	for _, row := range res.Collector.Breakdown[tile].Rows() {
		fmt.Printf("%d-%d cycles: %.0f\n", row.Lo, row.Hi, row.Avg)
	}
	// Output:
	// 200-300 cycles: [30 34 140 13 30]
	// 300-400 cycles: [76 64 140 25 53]
	// 400-500 cycles: [117 68 145 54 73]
	// 500-600 cycles: [150 100 163 71 69]
	// 600-700 cycles: [181 137 191 64 74]
	// 700-800 cycles: [171 167 195 150 57]
	// 800-900 cycles: [266 143 221 118 124]
	// 900-1000 cycles: [150 58 480 152 108]
}
