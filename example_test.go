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

// A custom application: a latency-sensitive pointer chaser in the middle of
// the 32-core mesh, surrounded by streamers, measured against its IPC alone.
func ExampleAloneIPC() {
	cfg := quick(nocmem.Baseline32())
	victim := nocmem.Profile{Name: "pointer-chaser", MPKI: 12, WarmAPKI: 90, MemFrac: 0.33,
		StoreFrac: 0.10, RowBurst: 1, Streams: 1, HotLines: 128, WarmLines: 2048}
	stream := nocmem.Profile{Name: "streamer", MPKI: 35, WarmAPKI: 60, MemFrac: 0.30,
		StoreFrac: 0.40, RowBurst: 512, Streams: 8, HotLines: 128, WarmLines: 1024}
	apps := make([]nocmem.Profile, cfg.Mesh.Nodes())
	for i := range apps {
		apps[i] = stream
	}
	const tile = 11 // (x=3, y=1): central, far from every controller corner
	apps[tile] = victim
	alone, err := nocmem.AloneIPC(cfg, victim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alone: IPC %.3f\n", alone)
	for _, v := range []struct {
		name   string
		s1, s2 bool
	}{{"base", false, false}, {"scheme-1", true, false}, {"scheme-1+2", true, true}} {
		res, err := nocmem.RunApps(cfg.WithSchemes(v.s1, v.s2), apps)
		if err != nil {
			log.Fatal(err)
		}
		h := res.Collector.RoundTrip[tile]
		fmt.Printf("%s: IPC %.3f (%.0f%% of alone), latency mean %.0f p99 %d\n",
			v.name, res.IPC[tile], 100*res.IPC[tile]/alone, h.Mean(), h.Percentile(99))
	}
	// Output:
	// alone: IPC 0.659
	// base: IPC 0.412 (63% of alone), latency mean 452 p99 775
	// scheme-1: IPC 0.430 (65% of alone), latency mean 435 p99 725
	// scheme-1+2: IPC 0.462 (70% of alone), latency mean 418 p99 625
}

// Fairness beside weighted speedup: a memory-intensive mix halved onto the
// 16-core machine, under the base network and under Scheme-1+2.
func ExampleFairness() {
	cfg := quick(nocmem.Baseline16())
	w8, _ := nocmem.GetWorkload(8)
	w, err := w8.Halve()
	if err != nil {
		log.Fatal(err)
	}
	row, err := nocmem.SpeedupFor(cfg, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("normalized WS: scheme-1 %.4f, scheme-1+2 %.4f\n", row.NormS1, row.NormS1S2)
	for _, sys := range []struct {
		name string
		res  *nocmem.Result
	}{{"base", row.Base}, {"scheme-1+2", row.S1S2}} {
		slowdown, harmonic, err := nocmem.Fairness(cfg, sys.res)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: max slowdown %.2f, harmonic speedup %.4f, net latency %.1f\n",
			sys.name, slowdown, harmonic, sys.res.Net.AvgLatency())
	}
	// Output:
	// normalized WS: scheme-1 1.0324, scheme-1+2 1.0445
	// base: max slowdown 2.62, harmonic speedup 0.4818, net latency 69.1
	// scheme-1+2: max slowdown 2.33, harmonic speedup 0.5053, net latency 70.6
}

// Equation 1 normalizes each router's residence time by its own clock, so
// ages stay comparable when a column of routers runs at a third of the speed.
func ExampleWeightedSpeedup() {
	w, _ := nocmem.GetWorkload(8)
	base := quick(nocmem.Baseline32())
	slow := base
	slow.NoC.ClockDivisors = map[int]int{4: 3, 12: 3, 20: 3, 28: 3} // column x=4 at f/3
	for _, sys := range []struct {
		name string
		cfg  nocmem.Config
	}{{"homogeneous", base}, {"slow column", slow}} {
		var ws [2]float64
		for i, schemes := range []bool{false, true} {
			res, err := nocmem.RunWorkload(sys.cfg.WithSchemes(schemes, schemes), w)
			if err != nil {
				log.Fatal(err)
			}
			if ws[i], err = nocmem.WeightedSpeedup(sys.cfg, res); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%s: WS %.3f -> %.3f with scheme-1+2 (%.4fx)\n", sys.name, ws[0], ws[1], ws[1]/ws[0])
	}
	// Output:
	// homogeneous: WS 13.377 -> 13.383 with scheme-1+2 (1.0005x)
	// slow column: WS 6.155 -> 6.321 with scheme-1+2 (1.0271x)
}
