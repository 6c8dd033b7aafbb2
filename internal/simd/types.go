// Package simd implements the simulation-as-a-service daemon behind
// cmd/nocsimd: an HTTP/JSON server that accepts run and sweep requests,
// coalesces concurrent identical requests across clients by
// config.Config.Key(), executes them through the shared exp.Runner +
// forkrun machinery, and backs both result summaries and golden warm
// checkpoints with an on-disk content-addressed store, so dedup and warm
// images survive restarts.
//
// Wire protocol (all JSON):
//
//	POST /run            {"points": [RunSpec, ...]} -> SubmitResponse
//	GET  /jobs/{id}[?cursor=N][&results=M][&wait=MS] -> JobStatus
//	GET  /results/{key}  (key path-escaped)         -> stored summary JSON
//	GET  /healthz                                   -> {"status": "ok"}
//	GET  /statsz                                    -> StatsSnapshot
//
// A job poll names up to three non-negative integers, each optional:
//
//	cursor=N   events from the Nth on (default 0: all of them)
//	results=M  only the results set since the Mth, in completion order, with
//	           their point indices in result_index (absent: every result,
//	           in point order, as a plain curl reads it)
//	wait=MS    hold the request until there is an event past cursor or the
//	           job is terminal, at most MS ms (capped at MaxPollWait); a
//	           draining daemon answers at once
//
// Each reply carries next_cursor and next_result for the next poll; a cursor
// past the end of its log is a 400. A client that polls with all three moves
// each result over the wire once and hears of each event as it happens.
//
// A single run is a one-point sweep; nothing distinguishes them beyond the
// length of Points. Errors come back as {"error": "..."} with a 4xx/5xx
// status.
package simd

import (
	"encoding/json"

	"nocmem/internal/config"
	"nocmem/internal/exp"
)

// RunSpec is one requested simulation (or estimate): a complete
// configuration plus the application placement, named either by a Table 2
// workload id or by an explicit per-tile application list. The daemon
// applies no defaults — clients send fully-specified configs (the client
// library starts from Baseline32) — so the config's Key() is the dedup and
// storage key with no server-side rewriting.
type RunSpec struct {
	Config config.Config `json:"config"`
	// Workload selects a Table 2 workload (1-18). Mutually exclusive with
	// Apps.
	Workload int `json:"workload,omitempty"`
	// Apps places the named built-in application profiles on tiles 0..n-1
	// (remaining tiles stay idle).
	Apps []string `json:"apps,omitempty"`
	// Estimate answers from the closed-form analytic model instead of
	// simulating — a fraction of a millisecond instead of minutes, within the
	// model's calibration band only.
	Estimate bool `json:"estimate,omitempty"`
}

// SubmitResponse acknowledges an accepted job.
type SubmitResponse struct {
	ID string `json:"id"`
	// Keys are the store/dedup keys of the submitted points, in order;
	// results can be fetched from GET /results/{key} once the job is done.
	Keys []string `json:"keys"`
}

// RunRequest is the body of POST /run: one or more points forming a job.
type RunRequest struct {
	Points []RunSpec `json:"points"`
}

// Event is one progress line of a job, addressed by a polling cursor.
type Event struct {
	Seq int    `json:"seq"`
	Msg string `json:"msg"`
}

// Result sources.
const (
	SourceSim      = "sim"      // freshly simulated (or coalesced onto an in-flight identical run)
	SourceStore    = "store"    // served from the on-disk result store, no simulation
	SourceEstimate = "estimate" // closed-form analytic model, no simulation
	SourceWorker   = "worker"   // simulated by a remote sweep worker, relayed through a lease
)

// PointResult is the outcome of one point of a job.
type PointResult struct {
	Key    string `json:"key"`
	Label  string `json:"label"`
	Source string `json:"source,omitempty"`
	// Worker names the remote worker whose completion was accepted, when
	// Source is SourceWorker.
	Worker string `json:"worker,omitempty"`
	// Summary is the sim.Summary JSON of the run (or estimate). Byte-for-
	// byte identical to what a direct exp.Runner execution summarizes,
	// which is what the multi-client harness asserts.
	Summary json.RawMessage `json:"summary,omitempty"`
	Err     string          `json:"error,omitempty"`
}

// Job states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed" // at least one point errored
)

// JobStatus is the polling view of a job: status, the progress events past
// the requested cursor, and the per-point results populated so far — all of
// them in point order, or with a results cursor only those set since it.
type JobStatus struct {
	ID     string  `json:"id"`
	Status string  `json:"status"`
	Events []Event `json:"events"`
	// NextCursor is the cursor to pass on the next poll to see only new
	// events.
	NextCursor int `json:"next_cursor"`
	// Points is the job's point count.
	Points  int           `json:"points"`
	Results []PointResult `json:"results"`
	// ResultIndex is, on a poll with a results cursor, the point index of
	// each entry of Results.
	ResultIndex []int `json:"result_index,omitempty"`
	// NextResult is the results cursor to pass on the next poll to see only
	// new results.
	NextResult int `json:"next_result"`
}

// Done reports whether the job reached a terminal state.
func (js *JobStatus) Done() bool {
	return js.Status == StatusDone || js.Status == StatusFailed
}

// Err returns the first point error of a finished job, if any.
func (js *JobStatus) Err() string {
	for _, r := range js.Results {
		if r.Err != "" {
			return r.Err
		}
	}
	return ""
}

// --- Distributed-sweep wire types (coordinator mode) ---
//
// A coordinator (Options.Distributed) leases the simulation points of
// submitted jobs to workers instead of executing them locally:
//
//	POST /dist/register {RegisterRequest}  -> RegisterResponse
//	POST /dist/lease    {LeaseRequest}     -> LeaseResponse
//	POST /dist/complete {CompleteRequest}  -> CompleteResponse
//
// Workers poll /dist/lease for batches of points, execute them with their
// own exp.Runner, and report back through /dist/complete. Leases carry a
// TTL; a point whose lease expires (worker death, partition) is re-leased to
// the next polling worker, and completions are accepted idempotently — the
// first valid completion for a key wins, later ones are counted as
// duplicates and discarded, so the merged output is byte-identical however
// often a point was executed.

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name labels the worker in /statsz (e.g. host-pid); the coordinator
	// derives a unique WorkerID from it.
	Name string `json:"name"`
}

// RegisterResponse acknowledges a worker and hands it its lease parameters.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is the coordinator's lease TTL in milliseconds: how long
	// the worker may sit on a leased point before it is re-leased.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// PollMS is the suggested idle polling interval in milliseconds.
	PollMS int64 `json:"poll_ms"`
}

// LeaseRequest asks for a batch of points to execute.
type LeaseRequest struct {
	Worker string `json:"worker"`
	// Max bounds the batch size (the coordinator may cap it further).
	Max int `json:"max"`
}

// Lease is one point handed to a worker.
type Lease struct {
	// ID identifies this grant; completions echo it so the coordinator can
	// tell a timely completion from one that outlived its lease (both are
	// accepted — results are deterministic — but stale ones are logged).
	ID   int64   `json:"id"`
	Key  string  `json:"key"`
	Spec RunSpec `json:"spec"`
}

// LeaseResponse returns the granted batch (possibly empty).
type LeaseResponse struct {
	Leases []Lease `json:"leases,omitempty"`
	// RetryMS suggests when to poll again after an empty grant.
	RetryMS int64 `json:"retry_ms,omitempty"`
}

// CompleteRequest reports one executed point (or its failure).
type CompleteRequest struct {
	Worker  string          `json:"worker"`
	LeaseID int64           `json:"lease_id"`
	Key     string          `json:"key"`
	Summary json.RawMessage `json:"summary,omitempty"`
	Err     string          `json:"error,omitempty"`
}

// Completion statuses.
const (
	CompleteAccepted  = "accepted"  // first valid completion for the key; merged
	CompleteDuplicate = "duplicate" // point already done (or unknown); discarded idempotently
	CompleteRetry     = "retry"     // failure recorded; point re-leased to another worker
	CompleteFailed    = "failed"    // failure recorded; retry budget exhausted, point failed
)

// CompleteResponse acknowledges a completion report.
type CompleteResponse struct {
	Status string `json:"status"`
}

// WorkerStats is one registered worker's lease traffic.
type WorkerStats struct {
	ID        string `json:"id"`
	Granted   int64  `json:"granted"`
	Completed int64  `json:"completed"`
	// Outstanding counts points currently leased to this worker.
	Outstanding int `json:"outstanding"`
}

// DistSnapshot is the coordinator section of /statsz (nil on a
// non-coordinator daemon).
type DistSnapshot struct {
	Workers []WorkerStats `json:"workers"`
	Pending int           `json:"pending"`
	Leased  int           `json:"leased"`
	// Mismatches counts duplicate completions whose bytes differed from the
	// merged result — always zero while every execution path stays
	// deterministic; nonzero announces a broken worker loudly.
	Mismatches int64 `json:"mismatches"`
}

// StoreStats counts on-disk store traffic.
type StoreStats struct {
	ResultHits   int64 `json:"result_hits"`
	ResultMisses int64 `json:"result_misses"`
	SnapHits     int64 `json:"snap_hits"`
	SnapMisses   int64 `json:"snap_misses"`
	// Evictions counts corrupt entries ejected at read time (results and
	// snapshots; forkrun-level restore-failure evictions are counted in
	// Runner.SnapshotEvictions).
	Evictions int64 `json:"evictions"`
}

// StatsSnapshot is the /statsz payload: server-, store- and runner-level
// counters, enough for a client to prove exactly-once execution and warm-
// checkpoint reuse from the outside.
type StatsSnapshot struct {
	Jobs         int64 `json:"jobs"`
	Points       int64 `json:"points"`
	InflightJobs int64 `json:"inflight_jobs"`
	// RetainedJobs counts job records currently held in memory — bounded by
	// the terminal-job GC (Options.JobTTL), unlike Jobs which only grows.
	RetainedJobs int64 `json:"retained_jobs"`
	Draining     bool  `json:"draining"`

	Store  StoreStats `json:"store"`
	Runner exp.Stats  `json:"runner"`

	// Dist is the coordinator's lease-table view; nil unless the daemon
	// runs with Options.Distributed.
	Dist *DistSnapshot `json:"dist,omitempty"`
}
