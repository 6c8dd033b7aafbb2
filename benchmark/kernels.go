package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nocmem/internal/analytic"
	"nocmem/internal/cache"
	"nocmem/internal/config"
	"nocmem/internal/cpu"
	"nocmem/internal/dram"
	"nocmem/internal/noc"
	"nocmem/internal/par"
	"nocmem/internal/simd"
	"nocmem/internal/snapshot"
	"nocmem/internal/timerwheel"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// kernelRepeats is how often each fixed-iteration loop is timed; the metric
// is the median, reported with its quartiles.
const kernelRepeats = 5

// timeLoop times kernelRepeats runs of body(iters) and returns the host time
// per iteration of each, in the unit perIter names (1e9 = ns, 1e6 = us, ...).
func timeLoop(iters int, perIter float64, body func(n int)) []float64 {
	samples := make([]float64, 0, kernelRepeats)
	for r := 0; r < kernelRepeats; r++ {
		start := time.Now()
		body(iters)
		samples = append(samples, time.Since(start).Seconds()*perIter/float64(iters))
	}
	return samples
}

// runKernels measures the component layers in isolation: fixed iteration
// counts, independent of -seconds and of the workload being traced, so the
// numbers compare across every traced pass of a commit.
func runKernels(e *env) {
	kernelTrace(e)
	kernelCache(e)
	kernelCPU(e)
	kernelNoC(e)
	kernelDRAM(e)
	kernelWheel(e)
	kernelBarrier(e)
	kernelConfig(e)
	kernelSnapshot(e)
	kernelStore(e)
	kernelHandler(e)
}

var sink uint64 // keeps kernel results live

func kernelTrace(e *env) {
	g, err := trace.NewGenerator(trace.MustLookup("mcf"), 0, 64, e.seed)
	if !e.must(err, "trace kernel") {
		return
	}
	e.setLayerSamples("trace.next_ns", timeLoop(2_000_000, 1e9, func(n int) {
		for i := 0; i < n; i++ {
			sink += g.Next().Addr
		}
	}))
}

func kernelCache(e *env) {
	l2 := config.Baseline32().L2
	c := cache.New(l2.SizeBytes, l2.LineBytes, l2.Ways)
	c.SetLIPInsertion(l2.LIPInsertion)
	lines := uint64(2 * l2.SizeBytes / l2.LineBytes)
	var x uint64 = 88172645463325252 // xorshift: a footprint twice the bank, so hits and fills mix
	e.setLayerSamples("cache.access_ns", timeLoop(2_000_000, 1e9, func(n int) {
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			addr := (x % lines) * uint64(l2.LineBytes)
			if !c.Access(addr, i&7 == 0) {
				c.Fill(addr, false)
			}
		}
	}))
}

func kernelCPU(e *env) {
	cfg := config.Baseline32().CPU
	g, err := trace.NewGenerator(trace.MustLookup("mcf"), 0, 64, e.seed)
	if !e.must(err, "cpu kernel") {
		return
	}
	// A fixed-latency memory: every access completes 40 cycles after issue.
	const lat = 40
	type done struct {
		slot int
		at   int64
	}
	var now int64
	var pending []done // FIFO: the latency is fixed, so issue order is completion order
	head := 0
	core := cpu.New(0, cfg, g, func(addr uint64, isWrite bool, slot int) bool {
		pending = append(pending, done{slot, now + lat})
		return true
	})
	e.setLayerSamples("cpu.tick_ns", timeLoop(1_000_000, 1e9, func(n int) {
		for i := 0; i < n; i++ {
			for head < len(pending) && pending[head].at <= now {
				core.Complete(pending[head].slot, pending[head].at)
				head++
			}
			if head > cfg.WindowSize {
				pending = pending[:copy(pending, pending[head:])]
				head = 0
			}
			core.Tick(now)
			now++
		}
	}))
	sink += uint64(core.Stats().Retired)
}

func kernelNoC(e *env) {
	cfg := config.Baseline32()
	loaded, err := noc.New(cfg.Mesh, cfg.NoC)
	if !e.must(err, "noc kernel") {
		return
	}
	var pool noc.PacketPool
	nodes := loaded.Nodes()
	for i := 0; i < nodes; i++ {
		loaded.SetSink(i, func(p *noc.Packet, at int64) { pool.Put(p) })
	}
	// The injection pattern of cmd/bench's network_tick_4x8.
	var injectErr error
	inject := func(now int64) {
		for src := 0; src < nodes; src++ {
			if (now+int64(src))%16 != 0 {
				continue
			}
			dst := nodes - 1 - src
			if dst == src {
				dst = (src + 1) % nodes
			}
			p := pool.Get()
			p.Src, p.Dst, p.NumFlits = src, dst, 1
			p.VNet, p.Priority = noc.VNetRequest, noc.Normal
			if src%4 == 0 {
				p.NumFlits = 5
				p.VNet = noc.VNetResponse
			}
			if err := loaded.Inject(p, now); err != nil {
				injectErr = err
			}
		}
	}
	var now int64
	for ; now < 4_000; now++ {
		inject(now)
		loaded.Tick(now)
	}
	e.setLayerSamples("noc.tick_loaded_ns", timeLoop(100_000, 1e9, func(n int) {
		for i := 0; i < n; i++ {
			inject(now)
			loaded.Tick(now)
			now++
		}
	}))
	e.must(injectErr, "noc kernel injection")

	drained, err := noc.New(cfg.Mesh, cfg.NoC)
	if !e.must(err, "noc kernel") {
		return
	}
	drained.SetEventDriven(true)
	var t int64
	for ; t < 100; t++ { // every router starts active; let the sets empty
		drained.Tick(t)
	}
	e.setLayerSamples("noc.tick_drained_ns", timeLoop(2_000_000, 1e9, func(n int) {
		for i := 0; i < n; i++ {
			drained.Tick(t)
			t++
		}
	}))
}

func kernelDRAM(e *env) {
	cfg := config.Baseline32().DRAM
	var ctl *dram.Controller
	var enqueueErr error
	free := make([]*dram.Request, 0, 64)
	rows := make([]int64, cfg.BanksPerCtl)
	issue := func(bank int, now int64) {
		var r *dram.Request
		if n := len(free); n > 0 {
			r, free = free[n-1], free[:n-1]
		} else {
			r = new(dram.Request)
		}
		// Three accesses per row, then the next: hits and conflicts mix.
		rows[bank]++
		*r = dram.Request{Bank: bank, Row: rows[bank] / 3, IsWrite: rows[bank]%5 == 0}
		if err := ctl.Enqueue(r, now); err != nil {
			enqueueErr = err
		}
	}
	// Every completion is replaced at once, so all 16 banks stay queued.
	ctl = dram.NewController(cfg, 0, func(r *dram.Request, now int64) {
		bank := r.Bank
		free = append(free, r)
		issue(bank, now)
	})
	for b := 0; b < cfg.BanksPerCtl; b++ {
		for k := 0; k < 4; k++ {
			issue(b, 0)
		}
	}
	var now int64
	for ; now < 5_000; now++ {
		ctl.Tick(now)
	}
	e.setLayerSamples("dram.tick_loaded_ns", timeLoop(1_000_000, 1e9, func(n int) {
		for i := 0; i < n; i++ {
			ctl.Tick(now)
			now++
		}
	}))
	e.must(enqueueErr, "dram kernel enqueue")
}

func kernelWheel(e *env) {
	w := timerwheel.New[int32]()
	var now int64
	var due []timerwheel.Due[int32]
	var x uint32 = 2463534242
	e.setLayerSamples("timerwheel.push_pop_ns", timeLoop(2_000_000, 1e9, func(n int) {
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			w.Push(now+1+int64(x%300), int32(i))
			due = w.PopDue(now, due[:0])
			sink += uint64(len(due))
			now++
		}
	}))
}

func kernelBarrier(e *env) {
	const workers = 2
	e.setLayerSamples("par.barrier_round_ns", timeLoop(200_000, 1e9, func(n int) {
		b := par.NewBarrier(workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					b.Wait(func() {})
				}
			}()
		}
		wg.Wait()
	}))
	if runtime.NumCPU() < workers {
		e.setValid("par.barrier_round_ns", false, "nproc < 2: the round includes a goroutine switch")
	}
}

// kernelPoint is the Baseline32 workload-7 point the config, analytic and
// simd kernels share.
func kernelPoint(e *env) (config.Config, []trace.Profile, simd.RunSpec, error) {
	cfg := config.Baseline32().WithSchemes(true, true)
	cfg.Run.Seed = e.seed
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = 20_000, 10_000
	w, err := workload.Get(7)
	if err != nil {
		return cfg, nil, simd.RunSpec{}, err
	}
	apps, err := w.Profiles()
	return cfg, apps, simd.RunSpec{Config: cfg, Workload: 7}, err
}

func kernelConfig(e *env) {
	cfg, apps, spec, err := kernelPoint(e)
	if !e.must(err, "config kernel") {
		return
	}
	e.setLayerSamples("config.key_us", timeLoop(20_000, 1e6, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(cfg.Key()))
		}
	}))
	var vErr error
	e.setLayerSamples("config.validate_us", timeLoop(200_000, 1e6, func(n int) {
		for i := 0; i < n; i++ {
			if err := cfg.Validate(); err != nil {
				vErr = err
			}
		}
	}))
	e.must(vErr, "config kernel Validate")
	var pErr error
	e.setLayerSamples("analytic.predict_us", timeLoop(200, 1e6, func(n int) {
		for i := 0; i < n; i++ {
			est, err := analytic.Predict(cfg, apps)
			if err != nil {
				pErr = err
				continue
			}
			sink += uint64(est.Iterations)
		}
	}))
	e.must(pErr, "analytic kernel Predict")
	var rErr error
	e.setLayerSamples("simd.resolve_spec_us", timeLoop(10_000, 1e6, func(n int) {
		for i := 0; i < n; i++ {
			rp, err := simd.ResolveSpec(spec)
			if err != nil {
				rErr = err
			}
			sink += uint64(len(rp.Key))
		}
	}))
	e.must(rErr, "simd kernel ResolveSpec")
}

// kernelImage is a 4 MB deterministic payload standing in for a warm
// checkpoint (a 32-tile image is 6 MB, a 16-tile one 3 MB).
func kernelImage() []byte {
	img := make([]byte, 4<<20)
	var x uint32 = 1
	for i := range img {
		x = x*1664525 + 1013904223
		img[i] = byte(x >> 24)
	}
	return img
}

func kernelSnapshot(e *env) {
	img := kernelImage()
	mb := float64(len(img)) / (1 << 20)
	var frame []byte
	var err error
	enc := timeLoop(4, 1, func(n int) {
		for i := 0; i < n; i++ {
			frame, err = snapshot.EncodeEntry("kernel|image", img)
		}
	})
	if !e.must(err, "snapshot kernel EncodeEntry") {
		return
	}
	dec := timeLoop(4, 1, func(n int) {
		for i := 0; i < n; i++ {
			_, _, err = snapshot.DecodeEntry(frame)
		}
	})
	e.must(err, "snapshot kernel DecodeEntry")
	rate := func(secPerOp []float64) []float64 {
		out := make([]float64, len(secPerOp))
		for i, s := range secPerOp {
			out[i] = mb / s
		}
		return out
	}
	e.setLayerSamples("snapshot.entry_encode_mb_per_s", rate(enc))
	e.setLayerSamples("snapshot.entry_decode_mb_per_s", rate(dec))
}

// kernelSummary is a summary-sized (12 kB) JSON payload.
func kernelSummary() []byte {
	var b bytes.Buffer
	b.WriteString(`{"cycles":10000,"apps":[`)
	for i := 0; b.Len() < 12<<10; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"tile":"0 (0,0)","app":"mcf","ipc":0.123456789,"mlp":3.25,"mpki":41.5,"offchip_accesses":1234,"mean_latency":412.5}`)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

func kernelStore(e *env) {
	st, err := simd.OpenStore(filepath.Join(e.tmp, "kernel-store"), nil)
	if !e.must(err, "store kernel") {
		return
	}
	summary, img := kernelSummary(), kernelImage()
	const keys = 64
	key := func(i int) string { return "kernel|result|" + string(rune('a'+i%26)) + string(rune('a'+i/26)) }
	e.setLayerSamples("simd.store_save_result_us", timeLoop(keys, 1e6, func(n int) {
		for i := 0; i < n; i++ {
			st.SaveResult(key(i), summary)
		}
	}))
	ok := true
	e.setLayerSamples("simd.store_load_result_us", timeLoop(keys, 1e6, func(n int) {
		for i := 0; i < n; i++ {
			_, hit := st.LoadResult(key(i))
			ok = ok && hit
		}
	}))
	e.check(ok, "store kernel: a saved result did not load")
	e.setLayerSamples("simd.store_save_snapshot_ms", timeLoop(3, 1e3, func(n int) {
		for i := 0; i < n; i++ {
			st.SaveSnapshot("kernel|image", img)
		}
	}))
	e.setLayerSamples("simd.store_load_snapshot_ms", timeLoop(3, 1e3, func(n int) {
		for i := 0; i < n; i++ {
			got, hit := st.LoadSnapshot("kernel|image")
			ok = ok && hit && len(got) == len(img)
		}
	}))
	e.check(ok, "store kernel: the saved image did not load")
}

// kernelHandler times a store hit through the daemon's handler with no TCP
// underneath: POST /run of a stored key, then polling the job until done.
func kernelHandler(e *env) {
	_, _, spec, err := kernelPoint(e)
	if !e.must(err, "handler kernel") {
		return
	}
	srv, err := simd.New(simd.Options{StoreDir: filepath.Join(e.tmp, "kernel-handler"), Parallelism: 1})
	if !e.must(err, "handler kernel server") {
		return
	}
	rp, err := simd.ResolveSpec(spec)
	if !e.must(err, "handler kernel spec") {
		return
	}
	srv.Store().SaveResult(rp.Key, kernelSummary())
	body, err := json.Marshal(simd.RunRequest{Points: []simd.RunSpec{spec}})
	if !e.must(err, "handler kernel request") {
		return
	}
	h := srv.Handler()
	ok := true
	e.setLayerSamples("simd.handler_hit_us", timeLoop(500, 1e6, func(n int) {
		for i := 0; i < n; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
			var sub simd.SubmitResponse
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sub) != nil {
				ok = false
				continue
			}
			for {
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+sub.ID, nil))
				var js simd.JobStatus
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &js) != nil {
					ok = false
					break
				}
				if js.Done() {
					ok = ok && len(js.Results) == 1 && js.Results[0].Source == simd.SourceStore
					break
				}
				runtime.Gosched()
			}
		}
	}))
	e.check(ok, "handler kernel: a store hit did not come back from the store")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.must(srv.Drain(ctx), "handler kernel drain")
}
