// Command nocsimd is the simulation-as-a-service daemon: a long-running
// HTTP/JSON server that accepts run and sweep requests, coalesces identical
// requests across clients (singleflight by config key), executes them on a
// bounded worker pool through the shared experiment runner, and backs both
// result summaries and golden warm checkpoints with an on-disk store — so
// the dedup and warmup amortization that cmd/sweep gets within one process
// survive across clients and restarts.
//
// Usage:
//
//	nocsimd -store /var/lib/nocsim -addr :8347
//	curl -s localhost:8347/healthz
//	curl -s -X POST localhost:8347/run -d '{"points":[{"workload":7,"config":{...}}]}'
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// jobs run to completion (landing in the store), then the process exits.
// See docs/ARCHITECTURE.md ("Simulation service") and docs/SERVICE.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nocmem/internal/config"
	"nocmem/internal/simd"
	"nocmem/internal/simdclient"
)

func main() {
	log.SetFlags(log.Ltime)
	log.SetPrefix("nocsimd: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:8347", "listen address")
		store    = flag.String("store", "nocsimd-store", "on-disk store directory (results + warm and threshold-prefix checkpoints)")
		jobs     = flag.Int("j", 0, "max concurrently executing simulations (0 = all CPUs)")
		fork     = flag.Bool("fork", true, "share one baseline warmup checkpoint across compatible configs, and a threshold sweep's common prefix per group (both persisted in the store)")
		drainFor = flag.Duration("drain-timeout", 10*time.Minute, "how long a SIGTERM drain waits for in-flight jobs")
		printCfg = flag.Int("print-config", 0, "print the 16- or 32-core baseline config as JSON (for use in /run requests) and exit")

		coord      = flag.Bool("coordinator", false, "run as a distributed-sweep coordinator: lease simulation points of submitted jobs to joined workers instead of executing them locally")
		leaseTTL   = flag.Duration("lease-ttl", 2*time.Minute, "coordinator: re-lease a point whose worker has not completed it within this TTL")
		leaseBatch = flag.Int("lease-batch", 4, "coordinator: max points handed out per lease grant; worker mode: points requested per lease poll (0 = parallelism)")
		join       = flag.String("join", "", "worker mode: join the coordinator daemon at this base URL (e.g. http://10.0.0.1:8347), execute leased points, exit on SIGINT/SIGTERM")
		workerName = flag.String("worker-name", "", "worker mode: label on the coordinator's /statsz (default hostname-pid)")
	)
	flag.Parse()

	if *printCfg != 0 {
		var cfg config.Config
		switch *printCfg {
		case 16:
			cfg = config.Baseline16()
		case 32:
			cfg = config.Baseline32()
		default:
			log.Fatalf("-print-config %d: want 16 or 32", *printCfg)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cfg); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *join != "" {
		if err := runWorkerMode(*join, *workerName, *jobs, *leaseBatch, *fork); err != nil {
			log.Fatal(err)
		}
		return
	}

	srv, err := simd.New(simd.Options{
		StoreDir:    *store,
		Parallelism: *jobs,
		ShareWarmup: *fork,
		Logf:        log.Printf,
		Distributed: *coord,
		LeaseTTL:    *leaseTTL,
		LeaseBatch:  *leaseBatch,
	})
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if *coord {
		log.Printf("serving on %s as coordinator (store %s, fork=%v, lease ttl %s)", *addr, *store, *fork, *leaseTTL)
	} else {
		log.Printf("serving on %s (store %s, fork=%v)", *addr, *store, *fork)
	}

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Print("signal received, draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	// Drain releases held job polls as it starts; Shutdown waits for every
	// active request, so it runs beside the drain rather than before it.
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(dctx) }()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := <-drained; err != nil {
		log.Fatal(err)
	}
	st := srv.Stats()
	log.Printf("drained clean: %d jobs, %d points, %d simulations executed, %d warmups",
		st.Jobs, st.Points, st.Runner.Executed, st.Runner.Warmups)
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		log.Printf("listener: %v", err)
	}
}

// runWorkerMode joins a coordinator and executes leased sweep points until
// SIGINT/SIGTERM. A worker holds no listener and no store of its own — the
// coordinator owns the merged results; the worker only computes.
func runWorkerMode(base, name string, jobs, batch int, fork bool) error {
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := simdclient.New(base)
	defer c.Close()
	log.Printf("joining coordinator %s as %q (fork=%v)", base, name, fork)
	err := simdclient.RunWorker(ctx, c, simdclient.WorkerOptions{
		Name:        name,
		Parallelism: jobs,
		MaxBatch:    batch,
		ShareWarmup: fork,
		Logf:        log.Printf,
	})
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	log.Print("worker: signal received, exiting")
	return nil
}
