// Package simdclient is the Go client of the nocsimd simulation daemon
// (internal/simd): submit run/sweep jobs, poll their progress events, and
// fetch stored result summaries.
package simdclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"nocmem/internal/simd"
)

// Client talks to one daemon. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	// Poll is Wait's back-off floor against a daemon that does not hold
	// polls (default 10ms): after an empty reply that came back before its
	// hold ran out, Wait sleeps Poll, then twice that, up to PollMax, and
	// snaps back to Poll when an event arrives.
	Poll time.Duration
	// PollMax is the longest Wait holds one poll at the daemon (default
	// 1s, at least Poll and 1ms, at most simd.MaxPollWait). It also caps
	// the back-off.
	PollMax time.Duration
}

// New returns a client for the daemon at base (e.g. "http://127.0.0.1:8347").
// Requests carry a 30s default timeout (see SetRequestTimeout) so a hung or
// half-dead daemon surfaces as an error instead of blocking a caller that
// passed no deadline of its own forever.
func New(base string) *Client {
	return &Client{
		base:    base,
		hc:      &http.Client{Timeout: 30 * time.Second},
		Poll:    10 * time.Millisecond,
		PollMax: time.Second,
	}
}

// SetRequestTimeout overrides the per-request timeout (0 disables it —
// requests then run until the caller's context cancels them).
func (c *Client) SetRequestTimeout(d time.Duration) { c.hc.Timeout = d }

// SetTransport swaps the underlying HTTP transport. Tests inject unreliable
// transports (dropped, delayed, duplicated RPCs) here.
func (c *Client) SetTransport(rt http.RoundTripper) { c.hc.Transport = rt }

// Close releases idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// apiError decodes the daemon's {"error": ...} body.
func apiError(resp *http.Response, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("simdclient: %s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("simdclient: %s", resp.Status)
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp, data)
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// Health checks GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Stats fetches the daemon's /statsz counters.
func (c *Client) Stats(ctx context.Context) (simd.StatsSnapshot, error) {
	var s simd.StatsSnapshot
	err := c.do(ctx, http.MethodGet, "/statsz", nil, &s)
	return s, err
}

// Submit posts a job and returns its id and per-point store keys.
func (c *Client) Submit(ctx context.Context, req simd.RunRequest) (*simd.SubmitResponse, error) {
	var resp simd.SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/run", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Job polls one job, returning events past cursor and every result set so
// far.
func (c *Client) Job(ctx context.Context, id string, cursor int) (*simd.JobStatus, error) {
	return c.job(ctx, fmt.Sprintf("/jobs/%s?cursor=%d", url.PathEscape(id), cursor))
}

func (c *Client) job(ctx context.Context, path string) (*simd.JobStatus, error) {
	var js simd.JobStatus
	if err := c.do(ctx, http.MethodGet, path, nil, &js); err != nil {
		return nil, err
	}
	return &js, nil
}

// Wait polls a job until it reaches a terminal state, forwarding each new
// progress event to onEvent (may be nil), and returns the job's last status
// with every result in point order. Each poll asks only for the results
// set since the previous one and is held at the daemon for up to PollMax
// until an event arrives, so a poll answers as soon as there is news. An
// empty reply that comes back before its hold ran out is a daemon that
// does not hold: Wait then backs off from Poll to PollMax until an event
// arrives. ctx cancellation is honored during every poll.
func (c *Client) Wait(ctx context.Context, id string, onEvent func(simd.Event)) (*simd.JobStatus, error) {
	interval := c.Poll
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	hold := max(c.PollMax, interval, time.Millisecond)
	hold = min(hold, simd.MaxPollWait).Truncate(time.Millisecond)
	delay := interval
	var (
		cursor, next int
		results      []simd.PointResult
	)
	for {
		start := time.Now()
		js, err := c.job(ctx, fmt.Sprintf("/jobs/%s?cursor=%d&results=%d&wait=%d",
			url.PathEscape(id), cursor, next, hold.Milliseconds()))
		if err != nil {
			return nil, err
		}
		if onEvent != nil {
			for _, e := range js.Events {
				onEvent(e)
			}
		}
		switch {
		case js.Points == 0: // a daemon without results cursors sends them all
			results = js.Results
		case len(js.ResultIndex) != len(js.Results):
			return nil, fmt.Errorf("simdclient: job %s: %d results with %d indices", id, len(js.Results), len(js.ResultIndex))
		default:
			if results == nil {
				results = make([]simd.PointResult, js.Points)
			}
			for k, i := range js.ResultIndex {
				if i < 0 || i >= len(results) {
					return nil, fmt.Errorf("simdclient: job %s: result index %d of %d points", id, i, len(results))
				}
				results[i] = js.Results[k]
			}
		}
		cursor, next = js.NextCursor, js.NextResult
		if js.Done() {
			js.Results, js.ResultIndex = results, nil
			return js, nil
		}
		if len(js.Events) > 0 {
			delay = interval
			continue
		}
		if time.Since(start) >= hold {
			continue
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
		delay = min(2*delay, hold)
	}
}

// Run submits a job and waits for it to finish.
func (c *Client) Run(ctx context.Context, req simd.RunRequest) (*simd.JobStatus, error) {
	resp, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, resp.ID, nil)
}

// --- Distributed-sweep worker RPCs (coordinator mode) ---

// RegisterWorker announces a worker to a coordinator daemon and returns its
// assigned id plus lease parameters.
func (c *Client) RegisterWorker(ctx context.Context, name string) (*simd.RegisterResponse, error) {
	var resp simd.RegisterResponse
	if err := c.do(ctx, http.MethodPost, "/dist/register", simd.RegisterRequest{Name: name}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Lease asks the coordinator for up to max points to execute.
func (c *Client) Lease(ctx context.Context, worker string, max int) (*simd.LeaseResponse, error) {
	var resp simd.LeaseResponse
	if err := c.do(ctx, http.MethodPost, "/dist/lease", simd.LeaseRequest{Worker: worker, Max: max}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Complete reports one executed point (or its failure) back to the
// coordinator and returns the coordinator's classification of the report.
func (c *Client) Complete(ctx context.Context, req simd.CompleteRequest) (string, error) {
	var resp simd.CompleteResponse
	if err := c.do(ctx, http.MethodPost, "/dist/complete", req, &resp); err != nil {
		return "", err
	}
	return resp.Status, nil
}

// Result fetches the stored summary JSON for a run key, byte for byte as
// the daemon persisted it.
func (c *Client) Result(ctx context.Context, key string) ([]byte, error) {
	var raw []byte
	if err := c.do(ctx, http.MethodGet, "/results/"+url.PathEscape(key), nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}
