package main

// The benchmark's vocabulary: every workload and metric name a later issue may
// cite is declared here, once. BENCHMARK.json at the repository root carries
// the subset the driver's schema allows (names, units, directions, bounds);
// the fields it has no room for — a workload's size, loop kind and client
// count, a per-layer metric's layer, home workload and the end-to-end metric
// it is predicted to move — live only here and in README.md, and the package
// test keeps the two files in step.

// nominalSeconds is the timed-region length the nominal sizes below were
// measured at on the 2-CPU sizing box. -seconds S scales every cycle and
// request count by S/nominalSeconds, the one common factor the sizes share.
const nominalSeconds = 16

// miniFactor shrinks a workload's traced pipeline when it runs only to
// supply another workload's traced pass with the per-layer metrics it is
// home to (see runTraced).
const miniFactor = 1.0 / 16

type workloadSpec struct {
	Name string
	Why  string
	// Size, Loop and Clients describe the nominal (-seconds 16) shape.
	Size    string
	Loop    string
	Clients int
	// Ops names the unit of ops_per_s on this workload.
	Ops string
	run func(*env)
}

var workloads = []workloadSpec{
	{
		Name:    "sat32",
		Why:     "Paper's 4x8 machine saturated by workload 7 with S1+S2: component ticks do nearly all the work, the scheduler skips nothing, orchestration and service are absent.",
		Size:    "32 tiles, warmup 20k, timed 700k cycles (Run() over the first eighth, then 24 Step batches), sequential event stepper",
		Loop:    "fixed work, no clients",
		Clients: 0,
		Ops:     "simulated cycles",
		run:     runSat32,
	},
	{
		Name:    "bursty256",
		Why:     "16x16 mesh with bursty sources on every 7th tile and three slow routers: 219 idle tiles and phases of drain and quiet, the load the scheduler's active sets, timer wheel and timed wakes exist for.",
		Size:    "256 tiles (37 active), warmup 20k, timed 650k cycles (Run() over the first eighth, then 24 Step batches), sequential event stepper",
		Loop:    "fixed work, no clients",
		Clients: 0,
		Ops:     "simulated cycles",
		run:     runBursty256,
	},
	{
		Name:    "par256",
		Why:     "16x16 mesh with mcf on every other tile stepped by min(nproc,2) workers with stealing: partition, barrier, stealing and boundary drain are all that separate it from a sequential run.",
		Size:    "256 tiles (128 active), warmup 10k, timed 250k cycles (Run() over the first 50k, then 24 Step batches), Run.Shards = min(nproc,2)",
		Loop:    "fixed work, no clients",
		Clients: 0,
		Ops:     "simulated cycles",
		run:     runPar256,
	},
	{
		Name:    "fig11",
		Why:     "Time-to-figure on the paper-exact local path: exp.Runner.Speedups over workloads 1, 7 and 13 is 36 simulations behind singleflight, alone-IPC reuse and the worker pool, no service layer.",
		Size:    "five sweeps on fresh runners, each 9 shared + 27 alone Baseline32 simulations, warmup 6k, measure 18k, 2-wide pool",
		Loop:    "fixed work, no clients",
		Clients: 0,
		Ops:     "executed simulations",
		run:     runFig11,
	},
	{
		Name:    "svc_mixed",
		Why:     "The daemon as users drive it over loopback HTTP: a cold phase of forked policy points that persist results and snapshots beside a hit phase of store reads, estimates and result fetches.",
		Size:    "80 cold Baseline32 points (warmup 20k, measure 10k), then 4000 store hits, 1000 estimates, 1000 result GETs; job polling capped at 20 ms",
		Loop:    "closed loop",
		Clients: 2,
		Ops:     "cold points",
		run:     runSvcMixed,
	},
	{
		Name:    "dist_small",
		Why:     "A coordinator leasing hundreds of tiny Baseline16 points to two workers: lease and complete RPCs, idle polling and per-worker re-warm decide throughput, which fig11's large points would hide.",
		Size:    "one job of 360 Baseline16 points (warmup 5k, measure 5k), LeaseBatch 4, two 1-wide workers",
		Loop:    "closed loop",
		Clients: 2,
		Ops:     "merged points",
		run:     runDistSmall,
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type e2eSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	What   string
}

// Every workload reports every end-to-end metric: the driver's contract
// requires it, so the issue's per-workload columns (sim_cycles_per_s,
// points_per_s, wall_s) are folded into wall_s and ops_per_s, whose unit of
// work workloadSpec.Ops names, and hit_p50_ms — which only svc_mixed could
// report — is the per-layer metric simd.hit_p50_ms.
//
// Both timed metrics are read off the timed region's median pace (medianPace
// in report.go): the region is cut into chunks of known work, and the weighted
// median of their seconds per op stands for the whole. The issue's
// peak_rss_mb (VmHWM) is the per-layer host.peak_rss_mb; end to end the
// resident set is the median of samples, rss_mb.
//
// The issue asked for 10 % bounds. On the 2-CPU sizing box the host's own
// speed moves by more than that within minutes (README.md, "Noise"), and the
// driver's host by more again, so the bounds are the widest the driver allows.
var endToEnd = []e2eSpec{
	{"wall_s", "s", "lower", 0.25, "host seconds the timed region's work takes at its median pace (one sweep, the time-to-figure, on fig11; cold plus hit phase on svc_mixed)"},
	{"ops_per_s", "1/s", "higher", 0.25, "the workload's unit of work (workloadSpec.Ops) per host second at the timed region's median pace; the cold phase alone on svc_mixed"},
	{"rss_mb", "MB", "lower", 0.25, "median of the workload process's VmRSS, sampled every 20 ms over the timed region"},
	{"setup_s", "s", "lower", 0.25, "median of the repeated set-ups that precede the timed region"},
}

type move struct {
	Metric   string // end-to-end metric predicted to move
	Workload string // on this workload
	Not      string // and predicted not to move on this one ("" = no prediction)
}

type layerSpec struct {
	Name   string
	Unit   string
	Better string
	Layer  string // module name, the prefix of Name
	// Exact marks simulated-domain or provenance counts that must repeat
	// exactly for a (seed, seconds) pair — the "=" metrics of the issue.
	Exact bool
	// Home is the workload whose traced pipeline measures the metric, or
	// "kernels" for the fixed-iteration component loops every traced pass
	// runs at full size, or "host" for the traced process itself.
	Home  string
	Moves []move
	What  string
}

const (
	homeKernels = "kernels"
	homeHost    = "host"
)

func mv(metric, workload, not string) []move { return []move{{metric, workload, not}} }

var perLayer = []layerSpec{
	// Component kernels: fixed-iteration loops, median of 5 repeats.
	{"trace.next_ns", "ns", "lower", "trace", false, homeKernels, mv("ops_per_s", "sat32", "bursty256"), "one Generator.Next of mcf"},
	{"cache.access_ns", "ns", "lower", "cache", false, homeKernels, mv("ops_per_s", "sat32", ""), "one L2-bank-shaped Access (+Fill on miss) over a 2x-capacity footprint"},
	{"cpu.tick_ns", "ns", "lower", "cpu", false, homeKernels, mv("ops_per_s", "sat32", "bursty256"), "one Core.Tick fed by an mcf generator behind a fixed-latency IssueFunc"},
	{"noc.tick_loaded_ns", "ns", "lower", "noc", false, homeKernels, []move{{"ops_per_s", "sat32", ""}, {"ops_per_s", "par256", ""}, {"wall_s", "fig11", ""}}, "one Tick of a 4x8 mesh under cmd/bench's network_tick_4x8 injection pattern"},
	{"noc.tick_drained_ns", "ns", "lower", "noc", false, homeKernels, mv("ops_per_s", "bursty256", ""), "one Tick of an empty 4x8 mesh in event mode"},
	{"dram.tick_loaded_ns", "ns", "lower", "dram", false, homeKernels, mv("ops_per_s", "sat32", ""), "one Controller.Tick with all 16 banks kept queued"},
	{"timerwheel.push_pop_ns", "ns", "lower", "timerwheel", false, homeKernels, mv("ops_per_s", "bursty256", "sat32"), "one Push plus its share of PopDue, deadlines 1..300 cycles ahead"},
	{"par.barrier_round_ns", "ns", "lower", "par", false, homeKernels, mv("ops_per_s", "par256", ""), "one Barrier.Wait round of 2 goroutines with an empty serial section"},
	{"config.key_us", "us", "lower", "config", false, homeKernels, []move{{"wall_s", "svc_mixed", ""}, {"wall_s", "fig11", ""}}, "one Config.Key of Baseline32"},
	{"config.validate_us", "us", "lower", "config", false, homeKernels, mv("wall_s", "svc_mixed", ""), "one Config.Validate of Baseline32"},
	{"analytic.predict_us", "us", "lower", "analytic", false, homeKernels, mv("wall_s", "svc_mixed", ""), "one analytic.Predict of Baseline32 + workload 7 (S1+S2)"},
	{"snapshot.entry_encode_mb_per_s", "MB/s", "higher", "snapshot", false, homeKernels, mv("ops_per_s", "svc_mixed", "fig11"), "EncodeEntry over a 4 MB payload"},
	{"snapshot.entry_decode_mb_per_s", "MB/s", "higher", "snapshot", false, homeKernels, mv("ops_per_s", "svc_mixed", "fig11"), "DecodeEntry over the same frame"},
	{"simd.resolve_spec_us", "us", "lower", "simd", false, homeKernels, mv("wall_s", "svc_mixed", ""), "one ResolveSpec of a Baseline32 workload point"},
	{"simd.store_save_result_us", "us", "lower", "simd", false, homeKernels, mv("ops_per_s", "svc_mixed", ""), "Store.SaveResult of a 12 kB summary (temp file + rename)"},
	{"simd.store_load_result_us", "us", "lower", "simd", false, homeKernels, mv("wall_s", "svc_mixed", ""), "Store.LoadResult of the same entry"},
	{"simd.store_save_snapshot_ms", "ms", "lower", "simd", false, homeKernels, mv("ops_per_s", "svc_mixed", ""), "Store.SaveSnapshot of a 4 MB image"},
	{"simd.store_load_snapshot_ms", "ms", "lower", "simd", false, homeKernels, mv("ops_per_s", "svc_mixed", ""), "Store.LoadSnapshot of the same image"},
	{"simd.handler_hit_us", "us", "lower", "simd", false, homeKernels, mv("wall_s", "svc_mixed", ""), "POST /run store hit through Handler().ServeHTTP plus the job poll, no TCP"},

	// sat32's traced pipeline: new -> warmup -> checkpoint -> restore ->
	// Run() over half the window -> 10k-cycle Step batches -> summarize.
	{"sim.new_ms", "ms", "lower", "sim", false, "sat32", []move{{"setup_s", "sat32", ""}, {"wall_s", "fig11", ""}}, "sim.New of the 32-tile machine"},
	{"sim.warmup_s", "s", "lower", "sim", false, "sat32", mv("setup_s", "sat32", ""), "the warmup Step"},
	{"sim.measure_s", "s", "lower", "sim", false, "sat32", mv("ops_per_s", "sat32", ""), "Run() plus the Step batches: the measurement window"},
	{"sim.step_us_per_cycle", "us", "lower", "sim", false, "sat32", mv("ops_per_s", "sat32", ""), "sim.measure_s per simulated cycle"},
	{"sim.step_batch_p50_ms", "ms", "lower", "sim", false, "sat32", mv("ops_per_s", "sat32", ""), "median 10k-cycle Step span"},
	{"sim.step_batch_p90_ms", "ms", "lower", "sim", false, "sat32", mv("ops_per_s", "sat32", ""), "90th percentile 10k-cycle Step span"},
	{"sim.allocs_per_cycle", "count", "lower", "sim", false, "sat32", mv("ops_per_s", "sat32", ""), "heap allocations per simulated cycle over the Step batches"},
	{"sim.ipc_sum", "count", "higher", "sim", true, "sat32", nil, "sum of per-tile IPC of the Run() window"},
	{"sim.offchip_latency_avg_cycles", "cycles", "lower", "sim", true, "sat32", nil, "off-chip-weighted mean round trip of the Run() window"},
	{"sim.checkpoint_ms", "ms", "lower", "sim", false, "sat32", mv("ops_per_s", "svc_mixed", "fig11"), "Checkpoint of the warmed 32-tile machine"},
	{"sim.checkpoint_bytes", "bytes", "lower", "sim", true, "sat32", mv("ops_per_s", "svc_mixed", "fig11"), "size of that image"},
	{"sim.restore_ms", "ms", "lower", "sim", false, "sat32", []move{{"ops_per_s", "svc_mixed", "fig11"}, {"ops_per_s", "dist_small", ""}}, "Restore of that image (includes a sim.New)"},
	{"noc.flit_hops_per_cycle", "hops/cycle", "higher", "noc", true, "sat32", nil, "flit hops per cycle of the Run() window"},
	{"noc.avg_latency_cycles", "cycles", "lower", "noc", true, "sat32", nil, "mean packet network latency of the Run() window"},
	{"dram.row_hit_rate", "frac", "higher", "dram", true, "sat32", nil, "row hits over accesses, all controllers"},
	{"dram.queue_wait_cycles_per_req", "cycles", "lower", "dram", true, "sat32", nil, "queueing cycles per DRAM request"},
	{"analytic.max_leg_rel_err", "frac", "lower", "analytic", true, "sat32", nil, "worst per-leg relative error of analytic.Predict against this run; the simulator itself has no hardware reference"},

	// bursty256's traced pipeline.
	{"sim.ticked_frac", "frac", "lower", "sim", true, "bursty256", mv("ops_per_s", "bursty256", "sat32"), "DebugTickedCycles over cycles: the share of cycles the scheduler executed"},
	{"sim.dense_over_event", "ratio", "higher", "sim", false, "bursty256", mv("ops_per_s", "bursty256", "sat32"), "dense ns/cycle over event ns/cycle on a 50k-cycle window (base: the event stepper)"},
	{"dram.ticks_per_cycle", "count", "lower", "dram", true, "bursty256", mv("ops_per_s", "bursty256", ""), "controller Ticks executed (not fast-forwarded) per cycle, from DebugDRAMTicks"},
	{"dram.ff_frac", "frac", "higher", "dram", true, "bursty256", mv("ops_per_s", "bursty256", ""), "share of controller Ticks absorbed by FastForward"},

	// par256's traced pipeline.
	{"sim.workers", "count", "higher", "sim", true, "par256", nil, "Run.Shards of the timed run"},
	{"sim.par_speedup", "ratio", "higher", "sim", false, "par256", mv("ops_per_s", "par256", "sat32"), "sequential over 2-worker host time on a 50k-cycle reference (base: sequential)"},
	{"sim.par_speedup_valid", "bool", "higher", "sim", true, "par256", nil, "1 when nproc >= 2, so the ratio measures parallelism"},
	{"sim.nosteal_over_steal", "ratio", "higher", "sim", false, "par256", mv("ops_per_s", "par256", ""), "Run.NoSteal host time over stealing host time, same reference (base: stealing on)"},

	// fig11's traced pipeline.
	{"exp.runs", "count", "lower", "exp", true, "fig11", nil, "Runner.Stats().Runs after Speedups"},
	{"exp.executed", "count", "lower", "exp", true, "fig11", mv("wall_s", "fig11", ""), "fresh simulations"},
	{"exp.cache_hits", "count", "higher", "exp", true, "fig11", nil, "recalls and coalesced requests"},
	{"exp.hit_us", "us", "lower", "exp", false, "fig11", mv("wall_s", "fig11", ""), "recall of a finished key: a second Speedups over its request count"},
	{"exp.pool_speedup", "ratio", "higher", "exp", false, "fig11", mv("wall_s", "fig11", ""), "1-wide over 2-wide pool on a copy of the sweep (base: 1-wide)"},
	{"exp.pool_speedup_valid", "bool", "higher", "exp", true, "fig11", nil, "1 when nproc >= 2"},
	{"exp.overhead_frac", "frac", "lower", "exp", false, "fig11", mv("wall_s", "fig11", ""), "(Speedups wall - hand-driven per-point sim.* spans / workers) / Speedups wall"},
	{"exp.norm_ws_s1s2_w1", "ratio", "higher", "exp", true, "fig11", nil, "normalized weighted speedup of S1+S2 on workload 1"},
	{"exp.norm_ws_s1s2_w7", "ratio", "higher", "exp", true, "fig11", nil, "the same on workload 7"},
	{"exp.norm_ws_s1s2_w13", "ratio", "higher", "exp", true, "fig11", nil, "the same on workload 13"},

	// svc_mixed's traced pipeline.
	{"forkrun.run_ms", "ms", "lower", "forkrun", false, "svc_mixed", mv("ops_per_s", "svc_mixed", ""), "median forked Cache.Run (restore + measure) of the 8-config Baseline16 sweep"},
	{"forkrun.amortization", "ratio", "higher", "forkrun", false, "svc_mixed", mv("ops_per_s", "svc_mixed", ""), "8-config cold host time over forked host time (base: cold)"},
	{"forkrun.amortization_ideal", "ratio", "higher", "forkrun", true, "svc_mixed", nil, "the same ratio in simulated cycles"},
	{"forkrun.warmups", "count", "lower", "forkrun", true, "svc_mixed", mv("ops_per_s", "svc_mixed", ""), "warmups the daemon executed (/statsz)"},
	{"forkrun.forked", "count", "higher", "forkrun", true, "svc_mixed", nil, "points the daemon forked from a warm image"},
	{"forkrun.mem_hits", "count", "higher", "forkrun", true, "svc_mixed", nil, "snapshot requests served from memory"},
	{"simd.cold_points_per_s", "1/s", "higher", "simd", false, "svc_mixed", mv("ops_per_s", "svc_mixed", ""), "cold-phase points per second of the traced pass"},
	{"simd.hit_requests_per_s", "1/s", "higher", "simd", false, "svc_mixed", mv("wall_s", "svc_mixed", ""), "hit-phase requests (hits, estimates, GETs) per second"},
	{"simd.hit_p50_ms", "ms", "lower", "simd", false, "svc_mixed", mv("wall_s", "svc_mixed", ""), "median store-hit simdclient.Run round trip over TCP"},
	{"simd.hit_p99_ms", "ms", "lower", "simd", false, "svc_mixed", mv("wall_s", "svc_mixed", ""), "its 99th percentile"},
	{"simd.get_result_p50_us", "us", "lower", "simd", false, "svc_mixed", mv("wall_s", "svc_mixed", ""), "median GET /results/{key}"},
	{"simd.estimate_p50_ms", "ms", "lower", "simd", false, "svc_mixed", mv("wall_s", "svc_mixed", ""), "median estimate point round trip"},
	{"simd.store_result_hits", "count", "higher", "simd", true, "svc_mixed", nil, "/statsz store.result_hits at the end"},
	{"simd.store_result_misses", "count", "lower", "simd", true, "svc_mixed", nil, "/statsz store.result_misses at the end"},
	{"simd.executed", "count", "lower", "simd", true, "svc_mixed", nil, "/statsz runner.executed at the end"},
	{"simd.execute_spec_ms", "ms", "lower", "simd", false, "svc_mixed", mv("ops_per_s", "svc_mixed", ""), "median hand-driven ExecuteSpec of a sampled point on a warm runner"},
	{"simdclient.submit_p50_ms", "ms", "lower", "simdclient", false, "svc_mixed", mv("wall_s", "svc_mixed", ""), "median Submit of a hit"},
	{"simdclient.wait_p50_ms", "ms", "lower", "simdclient", false, "svc_mixed", mv("wall_s", "svc_mixed", ""), "median Wait of a hit"},
	{"simdclient.wait_p99_ms", "ms", "lower", "simdclient", false, "svc_mixed", mv("wall_s", "svc_mixed", ""), "its 99th percentile: the 10 ms poll step is the suspected tail"},

	// dist_small's traced pipeline: a hand-driven worker loop.
	{"simd.lease_rpc_p50_ms", "ms", "lower", "simd", false, "dist_small", mv("ops_per_s", "dist_small", "fig11"), "median non-empty /dist/lease round trip"},
	{"simd.complete_rpc_p50_ms", "ms", "lower", "simd", false, "dist_small", mv("ops_per_s", "dist_small", "fig11"), "median /dist/complete round trip"},
	{"simd.rpcs_per_point", "count", "lower", "simd", false, "dist_small", mv("ops_per_s", "dist_small", ""), "HTTP round trips of workers and submitter per merged point"},
	{"simd.rpc_bytes_per_point", "bytes", "lower", "simd", false, "dist_small", mv("ops_per_s", "dist_small", ""), "request plus response body bytes per merged point"},
	{"simd.leases_granted", "count", "lower", "simd", true, "dist_small", nil, "/statsz runner.leases_granted"},
	{"simd.leases_expired", "count", "lower", "simd", false, "dist_small", nil, "/statsz runner.leases_expired (0 on a healthy run)"},
	{"simd.duplicate_completions", "count", "lower", "simd", false, "dist_small", nil, "/statsz runner.duplicate_completions"},
	{"simd.dist_over_local", "ratio", "lower", "simd", false, "dist_small", mv("ops_per_s", "dist_small", ""), "distributed host time over the same grid on a non-distributed 2-wide daemon (base: local daemon)"},
	{"simdclient.worker_idle_frac", "frac", "lower", "simdclient", false, "dist_small", mv("ops_per_s", "dist_small", ""), "1 - sum of execute spans / (workers x wall)"},

	// The traced process itself.
	{"host.gc_pause_ms", "ms", "lower", "host", false, homeHost, nil, "GC stop-the-world total over the traced workload"},
	{"host.num_gc", "count", "lower", "host", false, homeHost, nil, "GC cycles over the traced workload"},
	{"host.heap_peak_mb", "MB", "lower", "host", false, homeHost, nil, "HeapSys after the traced workload"},
	{"host.peak_rss_mb", "MB", "lower", "host", false, homeHost, nil, "VmHWM after the traced workload: set-up, timed region and checks (the issue's peak_rss_mb; a maximum over a collected heap, it spread 9-20 % on svc_mixed, so it is not end to end)"},
	{"bench.traced_wall_s", "s", "lower", "bench", false, homeHost, nil, "timed region of the traced workload; against wall_s it gives bench.trace_overhead_frac"},
	{"bench.unattributed_frac", "frac", "lower", "bench", false, homeHost, nil, "share of the traced workload's root span no layer span covers"},
	{"bench.spans", "count", "lower", "bench", false, homeHost, nil, "spans recorded by the traced workload"},
}

func layerByName(name string) *layerSpec {
	for i := range perLayer {
		if perLayer[i].Name == name {
			return &perLayer[i]
		}
	}
	return nil
}
