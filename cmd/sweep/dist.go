package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"

	"nocmem/internal/sim"
	"nocmem/internal/simd"
	"nocmem/internal/simdclient"
	"nocmem/internal/workload"
)

// The distributed executor: the planned specs are submitted as one job to a
// coordinator daemon, which leases the simulation points to workers and
// answers store hits and estimates itself. The summaries come back as the
// same canonical JSON simd.ExecuteSpec produces locally, so the table does
// not depend on worker count, completion order, duplicated completions, or
// worker deaths mid-sweep.

type distOptions struct {
	coordinator string // external coordinator base URL ("" = boot one in-process)
	workers     int    // in-process workers to contribute
	jobs        int    // simulation parallelism budget across local workers
	fork        bool   // warmup forking on workers (must match the mode being compared against)
	verbose     bool
}

// distributedSweep prints the table of points through a coordinator: the one
// at o.coordinator (joined by o.workers in-process workers), or one booted
// in-process for the life of the sweep.
func distributedSweep(out io.Writer, logger *log.Logger, o distOptions, points []point, w workload.Workload) error {
	logf := func(string, ...any) {}
	if o.verbose {
		logf = logger.Printf
	}
	base, shutdown := o.coordinator, func() {}
	if base == "" {
		var err error
		if base, shutdown, err = bootLocalCoordinator(o, logf); err != nil {
			return err
		}
	} else if o.workers > 0 {
		shutdown = bootLocalWorkers(base, o, logf)
	}
	defer shutdown()
	cl := simdclient.New(base)
	defer cl.Close()

	if err := sweep(out, logger, points, w, false, 0, coordinatorExecutor(cl, logf)); err != nil {
		return err
	}
	if !o.verbose {
		return nil
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		return err
	}
	logger.Printf("provenance: %d leases granted, %d expired, %d re-leased; %d worker completions, %d duplicates absorbed",
		st.Runner.LeasesGranted, st.Runner.LeasesExpired, st.Runner.LeasesRelayed,
		st.Runner.RemoteCompletions, st.Runner.DuplicateCompletions)
	if st.Dist != nil {
		for _, ws := range st.Dist.Workers {
			logger.Printf("provenance: worker %s: %d granted, %d completed", ws.ID, ws.Granted, ws.Completed)
		}
	}
	return nil
}

// coordinatorExecutor executes specs as one job on the daemon behind cl. The
// answer is outside input: it must hold one result per spec, each under the
// key the spec resolves to, before any of it reaches the table.
func coordinatorExecutor(cl *simdclient.Client, logf func(string, ...any)) executor {
	return func(specs []simd.RunSpec) ([]sim.Summary, error) {
		ctx := context.Background()
		sub, err := cl.Submit(ctx, simd.RunRequest{Points: specs})
		if err != nil {
			return nil, err
		}
		logf("submitted %d unique runs as job %s", len(specs), sub.ID)
		js, err := cl.Wait(ctx, sub.ID, func(e simd.Event) { logf("%s", e.Msg) })
		if err != nil {
			return nil, err
		}
		if e := js.Err(); e != "" {
			return nil, fmt.Errorf("distributed sweep failed: %s", e)
		}
		if len(js.Results) != len(specs) {
			return nil, fmt.Errorf("job %s answered %d results for %d runs", sub.ID, len(js.Results), len(specs))
		}
		sums := make([]sim.Summary, len(specs))
		for i, pr := range js.Results {
			rp, err := simd.ResolveSpec(specs[i])
			if err != nil {
				return nil, err
			}
			if pr.Key != rp.Key {
				return nil, fmt.Errorf("job %s: result %d is %s, want %s", sub.ID, i, pr.Key, rp.Key)
			}
			if err := json.Unmarshal(pr.Summary, &sums[i]); err != nil {
				return nil, fmt.Errorf("result %s: %w", pr.Key, err)
			}
		}
		return sums, nil
	}
}

// bootLocalCoordinator starts an in-process coordinator daemon on a loopback
// port plus o.workers in-process workers, dividing the simulation
// parallelism budget between them. The store lives in a temp dir for the
// life of the sweep — distribution here buys process-fault isolation and the
// exact execution semantics of a real cluster, not cross-run caching.
func bootLocalCoordinator(o distOptions, logf func(string, ...any)) (string, func(), error) {
	if o.workers <= 0 {
		return "", nil, fmt.Errorf("distributed sweep without -coordinator needs -workers >= 1")
	}
	dir, err := os.MkdirTemp("", "sweep-dist-*")
	if err != nil {
		return "", nil, err
	}
	srv, err := simd.New(simd.Options{
		StoreDir:    dir,
		ShareWarmup: o.fork,
		Logf:        logf,
		Distributed: true,
	})
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	logf("coordinator on %s (store %s)", base, dir)
	stopWorkers := bootLocalWorkers(base, o, logf)
	return base, func() {
		stopWorkers()
		hs.Close()
		os.RemoveAll(dir)
	}, nil
}

// bootLocalWorkers joins o.workers in-process workers to the coordinator at
// base and returns a stop function.
func bootLocalWorkers(base string, o distOptions, logf func(string, ...any)) func() {
	total := o.jobs
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	per := total / o.workers
	if per < 1 {
		per = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < o.workers; i++ {
		c := simdclient.New(base)
		name := fmt.Sprintf("local%d", i)
		go func() {
			defer c.Close()
			simdclient.RunWorker(ctx, c, simdclient.WorkerOptions{
				Name:        name,
				Parallelism: per,
				ShareWarmup: o.fork,
				Logf: func(format string, args ...any) {
					logf(name+": "+format, args...)
				},
			})
		}()
	}
	return cancel
}
