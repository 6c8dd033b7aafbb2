// Regression tests for the client-hang bugfixes: a hung daemon must surface
// as a timeout (not block forever), the caller's context must be honored on
// every poll, and Wait must back off instead of hammering a quiet daemon at
// the initial polling rate.
package simdclient_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"nocmem/internal/config"
	"nocmem/internal/simd"
	"nocmem/internal/simdclient"
)

// hungServer accepts requests and never answers until the client goes away.
func hungServer() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
}

// TestRequestTimeoutOnHungServer: the regression for the timeout-less
// http.Client — a daemon that accepts and never responds must fail the
// request after the configured timeout, even when the caller passed no
// context deadline at all.
func TestRequestTimeoutOnHungServer(t *testing.T) {
	srv := hungServer()
	defer srv.Close()
	c := simdclient.New(srv.URL)
	defer c.Close()
	c.SetRequestTimeout(50 * time.Millisecond)

	t0 := time.Now()
	err := c.Health(context.Background())
	if err == nil {
		t.Fatal("Health against a hung daemon returned nil error")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("Health took %s against a hung daemon, want ~50ms", d)
	}
}

// TestContextHonoredMidRequest: a context that expires while a request is in
// flight must cancel it promptly — the 30s default request timeout is the
// backstop, not the only way out.
func TestContextHonoredMidRequest(t *testing.T) {
	srv := hungServer()
	defer srv.Close()
	c := simdclient.New(srv.URL)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if _, err := c.Job(ctx, "j1", 0); err == nil {
		t.Fatal("Job with an expired context returned nil error")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("Job held on for %s past its context, want ~50ms", d)
	}
}

// TestWaitBacksOff: the regression for the fixed 10ms poll — a job that
// stays quiet for a while must be polled at an exponentially decaying rate
// (bounded by PollMax), not hammered at the initial interval.
func TestWaitBacksOff(t *testing.T) {
	var polls atomic.Int64
	start := time.Now()
	const quiet = 300 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		js := simd.JobStatus{ID: "j1", Status: simd.StatusRunning}
		if time.Since(start) > quiet {
			js.Status = simd.StatusDone
		}
		json.NewEncoder(w).Encode(js)
	}))
	defer srv.Close()

	c := simdclient.New(srv.URL)
	defer c.Close()
	c.Poll = time.Millisecond
	c.PollMax = 50 * time.Millisecond

	js, err := c.Wait(context.Background(), "j1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !js.Done() {
		t.Fatalf("Wait returned non-terminal status %q", js.Status)
	}
	// A fixed 1ms poll would make ~300 requests over the quiet window; the
	// backoff (1,2,4,...,50,50ms) keeps it around a dozen.
	if n := polls.Load(); n > 40 {
		t.Errorf("%d polls over a %s quiet job, want the backoff to keep it under 40", n, quiet)
	} else {
		t.Logf("%d polls over %s of quiet", n, quiet)
	}
}

// TestWaitLongPolls: against the real daemon, Wait holds each poll until
// the next event instead of backing off, so a job that stays quiet for
// 300ms costs about one request per PollMax, and the result arrives with
// the event that announced it.
func TestWaitLongPolls(t *testing.T) {
	srv, err := simd.New(simd.Options{StoreDir: t.TempDir(), Distributed: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Abort()

	cfg := config.Baseline16()
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = 1_000, 1_000
	worker := simdclient.New(ts.URL)
	defer worker.Close()
	ctx := context.Background()
	reg, err := worker.RegisterWorker(ctx, "hand")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := worker.Submit(ctx, simd.RunRequest{Points: []simd.RunSpec{{Config: cfg, Apps: []string{"mcf"}}}})
	if err != nil {
		t.Fatal(err)
	}
	const quiet = 300 * time.Millisecond
	go func() {
		time.Sleep(quiet)
		lr, err := worker.Lease(ctx, reg.WorkerID, 1)
		if err != nil || len(lr.Leases) != 1 {
			t.Errorf("lease: %v, %d points", err, len(lr.Leases))
			return
		}
		l := lr.Leases[0]
		worker.Complete(ctx, simd.CompleteRequest{Worker: reg.WorkerID, LeaseID: l.ID, Key: l.Key, Summary: []byte(`{"ok":1}`)})
	}()

	var polls atomic.Int64
	c := simdclient.New(ts.URL)
	defer c.Close()
	c.SetTransport(roundTripFunc(func(req *http.Request) (*http.Response, error) {
		polls.Add(1)
		return http.DefaultTransport.RoundTrip(req)
	}))
	c.Poll = time.Millisecond
	c.PollMax = 50 * time.Millisecond
	js, err := c.Wait(ctx, sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !js.Done() || len(js.Results) != 1 || string(js.Results[0].Summary) != `{"ok":1}` {
		t.Fatalf("Wait returned %q with results %+v", js.Status, js.Results)
	}
	// One poll reads the "accepted" event, six holds of 50ms cover the quiet
	// window, and one or two read the point's event and the final status;
	// the back-off of TestWaitBacksOff makes about a dozen.
	if n := polls.Load(); n > 9 {
		t.Errorf("%d polls over a %s quiet job with PollMax %s, want at most 9", n, quiet, c.PollMax)
	} else {
		t.Logf("%d polls over %s of quiet", n, quiet)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }
