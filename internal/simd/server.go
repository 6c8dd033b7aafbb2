package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nocmem/internal/exp"
	"nocmem/internal/par"
)

// Options configures a Server. The zero value is not usable: StoreDir is
// required.
type Options struct {
	// StoreDir roots the on-disk result/checkpoint store.
	StoreDir string
	// Parallelism bounds concurrently executing simulations (0 =
	// GOMAXPROCS), shared across all jobs and clients.
	Parallelism int
	// ShareWarmup turns on warmup forking (see internal/forkrun): one
	// golden warm checkpoint per compatible group, persisted in the store
	// so it survives restarts. The daemon defaults this on.
	ShareWarmup bool
	// Logf receives server diagnostics; nil silences them.
	Logf func(format string, args ...any)

	// Distributed runs the server as a sweep coordinator: simulation points
	// of submitted jobs are leased to joined workers (POST /dist/lease)
	// instead of executing locally. Estimates and store hits still answer
	// locally — they are cheaper than a network round trip. A coordinator
	// with no joined workers holds jobs until one joins.
	Distributed bool
	// LeaseTTL bounds how long a worker may sit on a leased point before
	// the coordinator re-leases it to another worker (0 = 2 minutes).
	LeaseTTL time.Duration
	// LeaseBatch caps how many points one /dist/lease call may grant
	// (0 = 4).
	LeaseBatch int

	// JobTTL bounds how long a terminal job's in-memory record (events +
	// per-point results) outlives its completion once a client has fetched
	// it (0 = 15 minutes). Jobs nobody ever polled after completion are
	// retained 10x longer, then dropped too — results stay fetchable
	// forever via GET /results/{key}; only the job's event log expires.
	JobTTL time.Duration
}

// Server owns the job registry, the worker pool (via exp.Runner's semaphore)
// and the store. Create with New, expose with Handler, stop with Drain.
type Server struct {
	opts   Options
	store  *Store
	runner *exp.Runner
	mux    *http.ServeMux
	// leases is the distributed-sweep coordinator state; nil unless
	// Options.Distributed.
	leases *leaseTable

	// ctx is cancelled by Abort: queued points then fail fast instead of
	// starting new simulations (a drain still waits for running ones —
	// simulations are synchronous and cannot be interrupted mid-cycle).
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	seq    int
	lastGC time.Time // when gcJobs last swept jobs

	jobWG    sync.WaitGroup
	draining atomic.Bool
	// quit closes when the server starts to drain or aborts: held job
	// polls return at once, so an HTTP shutdown does not wait them out.
	quit     chan struct{}
	quitOnce sync.Once

	jobsTotal, pointsTotal, inflight atomic.Int64
}

// job is one accepted run/sweep request working through its points.
type job struct {
	id string

	mu      sync.Mutex
	status  string
	events  []Event
	results []PointResult
	// order lists the indices of results in the order they were set; a
	// poll's results cursor indexes it.
	order []int
	// wake is closed by the next event, result or status change, which
	// wakes every poll held on it (see hold); a held poll makes it, a
	// change closes and drops it.
	wake chan struct{}
	// doneAt and fetched drive the terminal-job GC: a job is collectible
	// once it reached a terminal status, a client fetched it afterwards,
	// and Options.JobTTL has passed since completion.
	doneAt  time.Time
	fetched bool
}

// changedLocked wakes the polls held on j. j.mu must be held.
func (j *job) changedLocked() {
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

func (j *job) terminalLocked() bool {
	return j.status == StatusDone || j.status == StatusFailed
}

func (j *job) logf(format string, args ...any) {
	j.mu.Lock()
	j.events = append(j.events, Event{Seq: len(j.events), Msg: fmt.Sprintf(format, args...)})
	j.changedLocked()
	j.mu.Unlock()
}

func (j *job) setStatus(s string) {
	j.mu.Lock()
	j.status = s
	j.changedLocked()
	j.mu.Unlock()
}

// hold blocks a poll until j has an event past cursor or is terminal, d
// passes, ctx ends (the client went away) or quit closes (the server
// drains). A cursor past the end of either log returns at once, for
// snapshot to refuse.
func (j *job) hold(ctx context.Context, quit <-chan struct{}, cursor, results int, d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		j.mu.Lock()
		if cursor != len(j.events) || results > len(j.order) || j.terminalLocked() {
			j.mu.Unlock()
			return
		}
		if j.wake == nil {
			j.wake = make(chan struct{})
		}
		wake := j.wake
		j.mu.Unlock()
		select {
		case <-wake:
		case <-timer.C:
			return
		case <-ctx.Done():
			return
		case <-quit:
			return
		}
	}
}

// snapshot renders the polling view: events past cursor, plus the results
// set since the results cursor with their point indices — or, for a
// results cursor of -1, a copy of every per-point result in index order. A
// cursor beyond the current end of its log is an error — it can only come
// from a confused client (or a cursor meant for a different job), and
// silently returning an empty snapshot with a stale cursor would mask that
// forever.
func (j *job) snapshot(cursor, results int) (*JobStatus, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor > len(j.events) {
		return nil, fmt.Errorf("cursor %d beyond end of event log (%d events)", cursor, len(j.events))
	}
	if results > len(j.order) {
		return nil, fmt.Errorf("results cursor %d beyond end of results (%d set)", results, len(j.order))
	}
	js := &JobStatus{ID: j.id, Status: j.status, NextCursor: len(j.events),
		Points: len(j.results), NextResult: len(j.order)}
	if cursor < len(j.events) {
		js.Events = append(js.Events, j.events[cursor:]...)
	}
	if results < 0 {
		js.Results = append(js.Results, j.results...)
	} else {
		for _, i := range j.order[results:] {
			js.Results = append(js.Results, j.results[i])
			js.ResultIndex = append(js.ResultIndex, i)
		}
	}
	if j.terminalLocked() {
		j.fetched = true
	}
	return js, nil
}

// New opens the store and builds a server. The runner's fork cache is wired
// to the store, so warm checkpoints persist across daemon restarts.
func New(opts Options) (*Server, error) {
	if opts.StoreDir == "" {
		return nil, fmt.Errorf("simd: Options.StoreDir is required")
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.JobTTL <= 0 {
		opts.JobTTL = 15 * time.Minute
	}
	store, err := OpenStore(opts.StoreDir, opts.Logf)
	if err != nil {
		return nil, err
	}
	runner := exp.NewRunner(exp.Options{
		Parallelism: opts.Parallelism,
		ShareWarmup: opts.ShareWarmup,
	})
	runner.SetSnapshotStore(store)
	runner.SetProgress(opts.Logf)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:   opts,
		store:  store,
		runner: runner,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),
		quit:   make(chan struct{}),
	}
	if opts.Distributed {
		s.leases = newLeaseTable(opts.LeaseTTL, opts.LeaseBatch, runner,
			store.SaveResult, store.LoadResult, opts.Logf)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /run", s.handleRun)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /statsz", s.handleStats)
	s.mux.HandleFunc("POST /dist/register", s.handleRegister)
	s.mux.HandleFunc("POST /dist/lease", s.handleLease)
	s.mux.HandleFunc("POST /dist/complete", s.handleComplete)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the server's on-disk store (tests inspect its counters).
func (s *Server) Store() *Store { return s.store }

// Stats assembles the /statsz snapshot.
func (s *Server) Stats() StatsSnapshot {
	s.mu.Lock()
	retained := int64(len(s.jobs))
	s.mu.Unlock()
	ss := StatsSnapshot{
		Jobs:         s.jobsTotal.Load(),
		Points:       s.pointsTotal.Load(),
		InflightJobs: s.inflight.Load(),
		RetainedJobs: retained,
		Draining:     s.draining.Load(),
		Store:        s.store.Stats(),
		Runner:       s.runner.Stats(),
	}
	if s.leases != nil {
		ss.Dist = s.leases.snapshot(time.Now())
	}
	return ss
}

// Drain stops accepting new jobs and waits for the in-flight ones —
// everything already accepted runs to completion and lands in the store.
// Returns ctx's error if the deadline expires first.
func (s *Server) Drain(ctx context.Context) error {
	s.stopAccepting()
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("simd: drain: %w", ctx.Err())
	}
}

// stopAccepting refuses new jobs and releases every held job poll.
func (s *Server) stopAccepting() {
	s.draining.Store(true)
	s.quitOnce.Do(func() { close(s.quit) })
}

// Abort simulates a kill: new jobs are refused and queued points of running
// jobs fail fast instead of starting. Points whose simulation is already
// executing still complete (a cycle loop cannot be interrupted), so callers
// wanting a quiet process should Drain afterwards. On a coordinator, every
// unfinished leased point fails too; completions still in flight from
// workers are then absorbed as duplicates.
func (s *Server) Abort() {
	s.stopAccepting()
	s.cancel()
	if s.leases != nil {
		s.leases.abort()
	}
}

// --- HTTP plumbing ---

// Request limits. A baseline config is 1.5 kB of JSON, so MaxJobPoints fully
// specified points fit in MaxBodyBytes; larger sweeps split into several jobs.
const (
	// MaxBodyBytes caps the body of every POST endpoint (413 beyond it).
	MaxBodyBytes = 8 << 20
	// MaxJobPoints caps the points of one POST /run job (400 beyond it).
	MaxJobPoints = 4096
)

// decodeBody reads r's JSON body into v, reading at most MaxBodyBytes of it;
// on failure it answers 413 or 400 and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", MaxBodyBytes)
	case err != nil:
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return err == nil
}

// jobPoints is the points array of a POST /run body, decoded one element at a
// time so that it stops at the cap: MaxBodyBytes of `{},` spell ~2.8 M points,
// each a full RunSpec once materialised, while the body itself is already
// bounded.
type jobPoints []RunSpec

func (p *jobPoints) UnmarshalJSON(b []byte) error {
	*p = nil
	dec := json.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Token(); err != nil { // '[', or null for no points
		return err
	}
	for dec.More() {
		if len(*p) == MaxJobPoints {
			return fmt.Errorf("at most %d points per job", MaxJobPoints)
		}
		var sp RunSpec
		if err := dec.Decode(&sp); err != nil {
			return err
		}
		*p = append(*p, sp)
	}
	return nil
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// gcJobs drops terminal job records past their retention: JobTTL after
// completion once fetched, 10x that if nobody ever polled the finished job.
// Called opportunistically from the request handlers — a daemon nobody
// talks to holds no growing state, so it needs no background sweeper. It
// sweeps at most once per JobTTL/10, so a request costs a walk of the job
// table only that often and a record outlives its retention by at most a
// tenth of the TTL.
func (s *Server) gcJobs(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now.Sub(s.lastGC) < s.opts.JobTTL/10 {
		return
	}
	s.lastGC = now
	for id, j := range s.jobs {
		j.mu.Lock()
		terminal := j.terminalLocked()
		doneAt, fetched := j.doneAt, j.fetched
		j.mu.Unlock()
		if !terminal {
			continue
		}
		ttl := s.opts.JobTTL
		if !fetched {
			ttl *= 10
		}
		if now.Sub(doneAt) > ttl {
			delete(s.jobs, id)
		}
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.gcJobs(time.Now())
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining, not accepting jobs")
		return
	}
	var req struct { // a RunRequest
		Points jobPoints `json:"points"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		httpError(w, http.StatusBadRequest, "no points in request")
		return
	}
	points := make([]ResolvedSpec, len(req.Points))
	keys := make([]string, len(req.Points))
	for i, sp := range req.Points {
		rp, err := ResolveSpec(sp)
		if err != nil {
			httpError(w, http.StatusBadRequest, "point %d: %v", i, err)
			return
		}
		points[i], keys[i] = rp, rp.Key
	}

	s.mu.Lock()
	s.seq++
	j := &job{id: "j" + strconv.Itoa(s.seq), status: StatusQueued, results: make([]PointResult, len(points))}
	s.jobs[j.id] = j
	s.mu.Unlock()

	s.jobsTotal.Add(1)
	s.pointsTotal.Add(int64(len(points)))
	s.inflight.Add(1)
	s.jobWG.Add(1)
	j.logf("accepted: %d point(s)", len(points))
	go s.runJob(j, points)

	writeJSON(w, SubmitResponse{ID: j.id, Keys: keys})
}

// MaxPollWait caps the hold of GET /jobs/{id}?wait=MS, below the client's
// 30 s default request timeout.
const MaxPollWait = 20 * time.Second

// queryInt reads the non-negative integer query parameter name, or def if
// it is absent; on a malformed value it answers 400 and returns false.
func queryInt(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return def, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 {
		httpError(w, http.StatusBadRequest, "malformed %s %q: want a non-negative integer", name, q)
		return 0, false
	}
	return v, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.gcJobs(time.Now())
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	cursor, ok := queryInt(w, r, "cursor", 0)
	if !ok {
		return
	}
	results, ok := queryInt(w, r, "results", -1)
	if !ok {
		return
	}
	wait, ok := queryInt(w, r, "wait", 0)
	if !ok {
		return
	}
	hold := MaxPollWait
	if wait < int(MaxPollWait.Milliseconds()) {
		hold = time.Duration(wait) * time.Millisecond
	}
	j.hold(r.Context(), s.quit, cursor, results, hold)
	js, err := j.snapshot(cursor, results)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, js)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	payload, ok := s.store.LoadResult(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no stored result for key %q", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

// --- Distributed-sweep endpoints (coordinator mode) ---

// requireCoordinator gates the /dist endpoints.
func (s *Server) requireCoordinator(w http.ResponseWriter) bool {
	if s.leases == nil {
		httpError(w, http.StatusConflict, "not a coordinator (start nocsimd with -coordinator)")
		return false
	}
	return true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id := s.leases.register(req.Name, time.Now())
	s.opts.Logf("worker %s registered", id)
	writeJSON(w, RegisterResponse{
		WorkerID:   id,
		LeaseTTLMS: s.leases.ttl.Milliseconds(),
		PollMS:     idlePollHint(s.leases.ttl).Milliseconds(),
	})
}

// idlePollHint picks the empty-grant polling interval: fast enough that an
// expired lease is picked up well within a TTL, slow enough not to hammer
// the coordinator.
func idlePollHint(ttl time.Duration) time.Duration {
	hint := ttl / 20
	if hint < 25*time.Millisecond {
		hint = 25 * time.Millisecond
	}
	if hint > time.Second {
		hint = time.Second
	}
	return hint
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "lease request names no worker")
		return
	}
	leases := s.leases.grant(req.Worker, req.Max, time.Now())
	resp := LeaseResponse{Leases: leases}
	if len(leases) == 0 {
		resp.RetryMS = idlePollHint(s.leases.ttl).Milliseconds()
	}
	writeJSON(w, resp)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	if !s.requireCoordinator(w) {
		return
	}
	var req CompleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" || req.Key == "" {
		httpError(w, http.StatusBadRequest, "completion names no worker or no key")
		return
	}
	if req.Err == "" && len(req.Summary) == 0 {
		httpError(w, http.StatusBadRequest, "completion carries neither a summary nor an error")
		return
	}
	status := s.leases.complete(req.Worker, req.LeaseID, req.Key, req.Summary, req.Err, time.Now())
	writeJSON(w, CompleteResponse{Status: status})
}

// --- Job execution ---

// runJob drives one job's points. Locally they run over the shared worker
// pool; on a coordinator the simulation points are leased to workers
// instead. Either way results land at fixed indices, so a job's result order
// is independent of scheduling, worker count, and completion order.
func (s *Server) runJob(j *job, points []ResolvedSpec) {
	defer s.jobWG.Done()
	defer s.inflight.Add(-1)
	j.setStatus(StatusRunning)
	if s.leases != nil {
		s.runJobDistributed(j, points)
	} else {
		g := par.NewGroup(s.runner.Parallelism())
		for i, rp := range points {
			g.Go(func() error {
				s.runPoint(j, i, len(points), rp)
				return nil
			})
		}
		g.Wait()
	}
	status := StatusDone
	j.mu.Lock()
	for _, pr := range j.results {
		if pr.Err != "" {
			status = StatusFailed
			break
		}
	}
	j.status = status
	j.doneAt = time.Now()
	j.events = append(j.events, Event{Seq: len(j.events), Msg: status})
	j.changedLocked()
	j.mu.Unlock()
}

// runJobDistributed routes one job's points on a coordinator: estimates and
// store hits answer locally, everything else goes through the lease table
// and comes back from whichever worker completes it first.
func (s *Server) runJobDistributed(j *job, points []ResolvedSpec) {
	total := len(points)
	var wg sync.WaitGroup
	for i, rp := range points {
		if rp.Estimate {
			s.runPoint(j, i, total, rp)
			continue
		}
		if data, ok := s.store.LoadResult(rp.Key); ok {
			j.setResult(i, PointResult{Key: rp.Key, Label: rp.Label, Source: SourceStore, Summary: data})
			j.logf("point %d/%d %s: %s", i+1, total, rp.Label, SourceStore)
			continue
		}
		start := time.Now()
		wg.Add(1)
		s.leases.enqueue(rp, func(pr PointResult) {
			j.setResult(i, pr)
			if pr.Err != "" {
				j.logf("point %d/%d %s: error: %s", i+1, total, rp.Label, pr.Err)
			} else {
				j.logf("point %d/%d %s: %s(%s) in %s", i+1, total, rp.Label, pr.Source, pr.Worker,
					time.Since(start).Round(time.Millisecond))
			}
			wg.Done()
		})
	}
	wg.Wait()
}

// setResult publishes one point's outcome.
func (j *job) setResult(idx int, pr PointResult) {
	j.mu.Lock()
	j.results[idx] = pr
	j.order = append(j.order, idx)
	j.changedLocked()
	j.mu.Unlock()
}

func (s *Server) runPoint(j *job, idx, total int, rp ResolvedSpec) {
	start := time.Now()
	pr := PointResult{Key: rp.Key, Label: rp.Label}
	defer func() {
		j.setResult(idx, pr)
		if pr.Err != "" {
			j.logf("point %d/%d %s: error: %s", idx+1, total, rp.Label, pr.Err)
		} else {
			j.logf("point %d/%d %s: %s in %s", idx+1, total, rp.Label, pr.Source,
				time.Since(start).Round(time.Millisecond))
		}
	}()

	if rp.Estimate {
		data, err := ExecuteSpec(s.runner, rp)
		if err != nil {
			pr.Err = err.Error()
			return
		}
		pr.Source, pr.Summary = SourceEstimate, data
		return
	}

	// Disk first: a key simulated in any previous life of this store is
	// served without touching the runner.
	if data, ok := s.store.LoadResult(rp.Key); ok {
		pr.Source, pr.Summary = SourceStore, data
		return
	}
	if err := s.ctx.Err(); err != nil {
		pr.Err = "aborted before start"
		return
	}
	// The runner's singleflight coalesces concurrent identical requests
	// (same key, any client) onto one execution; both requesters then
	// persist identical bytes, so the double SaveResult is a harmless
	// rename race.
	data, err := ExecuteSpec(s.runner, rp)
	if err != nil {
		pr.Err = err.Error()
		return
	}
	s.store.SaveResult(rp.Key, data)
	pr.Source, pr.Summary = SourceSim, data
}
