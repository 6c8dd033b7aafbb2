// Tests for the incremental, held job poll: GET /jobs/{id} with a results
// cursor sends each result once, ?wait= holds the request until the next
// event, and a draining or aborted daemon releases every held poll.
package simd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nocmem/internal/simd"
	"nocmem/internal/simdclient"
)

// seededPoints returns n simulation points with distinct keys.
func seededPoints(n int) []simd.RunSpec {
	points := make([]simd.RunSpec, n)
	for i := range points {
		cfg := testCfg()
		cfg.Run.Seed = int64(i + 1)
		points[i] = simd.RunSpec{Config: cfg, Apps: testApps}
	}
	return points
}

// handWorker completes a coordinator's points by hand, in the order the test
// chooses, with a fixed-size made-up summary per key.
type handWorker struct {
	t   *testing.T
	c   *simdclient.Client
	id  string
	pad int
}

func newHandWorker(t *testing.T, base string, pad int) *handWorker {
	t.Helper()
	c := simdclient.New(base)
	t.Cleanup(c.Close)
	reg, err := c.RegisterWorker(context.Background(), "hand")
	if err != nil {
		t.Fatal(err)
	}
	return &handWorker{t: t, c: c, id: reg.WorkerID, pad: pad}
}

// summary is the made-up summary the worker reports for key.
func (w *handWorker) summary(key string) []byte {
	return []byte(fmt.Sprintf(`{"key":%q,"pad":%q}`, key, strings.Repeat("x", w.pad)))
}

// lease takes up to max points, waiting until at least one is granted.
func (w *handWorker) lease(max int) []simd.Lease {
	w.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		lr, err := w.c.Lease(context.Background(), w.id, max)
		if err != nil {
			w.t.Fatal(err)
		}
		if len(lr.Leases) > 0 {
			return lr.Leases
		}
		if time.Now().After(deadline) {
			w.t.Fatal("no point leased within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (w *handWorker) complete(l simd.Lease) {
	w.t.Helper()
	st, err := w.c.Complete(context.Background(), simd.CompleteRequest{
		Worker: w.id, LeaseID: l.ID, Key: l.Key, Summary: w.summary(l.Key)})
	if err != nil || st != simd.CompleteAccepted {
		w.t.Fatalf("completing %s: %q, %v", l.Key, st, err)
	}
}

// rawStatus is a JobStatus whose results keep their wire bytes.
type rawStatus struct {
	Status      string            `json:"status"`
	NextCursor  int               `json:"next_cursor"`
	Points      int               `json:"points"`
	Results     []json.RawMessage `json:"results"`
	ResultIndex []int             `json:"result_index"`
	NextResult  int               `json:"next_result"`
}

// getJob GETs /jobs/{id} with query q and decodes a 200 reply.
func getJob(t *testing.T, base, id, q string) rawStatus {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d body %s", q, resp.StatusCode, body)
	}
	var rs rawStatus
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestJobResultsCursor: polled by results cursor between completions made in
// reverse lease order, every result arrives exactly once, in completion
// order, with its point index, byte-equal to the plain GET's entry.
func TestJobResultsCursor(t *testing.T) {
	h := makeDistHarness(t, 1, time.Minute)
	h.begin("results cursor delivers each result once, in completion order")
	w := newHandWorker(t, h.ts.URL, 100)
	const n = 12
	sub, err := h.clients[0].Submit(context.Background(), simd.RunRequest{Points: seededPoints(n)})
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	for i, k := range sub.Keys {
		index[k] = i
	}

	got := make([]json.RawMessage, n)
	var completed, delivered []int
	next := 0
	poll := func() rawStatus {
		rs := getJob(t, h.ts.URL, sub.ID, fmt.Sprintf("?results=%d", next))
		if rs.Points != n || len(rs.ResultIndex) != len(rs.Results) || rs.NextResult != next+len(rs.Results) {
			t.Fatalf("poll at %d: %d points, %d results, %d indices, next %d", next, rs.Points, len(rs.Results), len(rs.ResultIndex), rs.NextResult)
		}
		for k, i := range rs.ResultIndex {
			if got[i] != nil {
				t.Errorf("result %d delivered twice", i)
			}
			got[i] = rs.Results[k]
			delivered = append(delivered, i)
		}
		next = rs.NextResult
		return rs
	}
	for len(completed) < n {
		batch := w.lease(4)
		for k := len(batch) - 1; k >= 0; k-- {
			w.complete(batch[k])
			completed = append(completed, index[batch[k].Key])
			poll()
		}
	}
	for poll().Status != simd.StatusDone {
		time.Sleep(time.Millisecond)
	}
	if fmt.Sprint(delivered) != fmt.Sprint(completed) {
		t.Errorf("delivered in order %v, completed in %v", delivered, completed)
	}

	plain := getJob(t, h.ts.URL, sub.ID, "")
	if len(plain.Results) != n || plain.ResultIndex != nil || plain.NextResult != n {
		t.Fatalf("plain GET: %d results, indices %v, next_result %d; want all %d in point order, no indices", len(plain.Results), plain.ResultIndex, plain.NextResult, n)
	}
	for i := range plain.Results {
		if !bytes.Equal(got[i], plain.Results[i]) {
			t.Errorf("point %d: by cursor %s, plain %s", i, got[i], plain.Results[i])
		}
	}
	// The client assembles the same results.
	js, err := h.clients[0].Wait(context.Background(), sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range js.Results {
		if want := w.summary(sub.Keys[i]); !bytes.Equal(pr.Summary, want) {
			t.Errorf("Wait's point %d: summary %.40s, want %.40s", i, pr.Summary, want)
		}
	}
	h.end()
}

// TestJobPollQueryValidation: a results cursor beyond the results set so far
// and a malformed results or wait value are 400s, like the event cursor; a
// results cursor at the exact end is the normal empty poll.
func TestJobPollQueryValidation(t *testing.T) {
	h := makeHarness(t, 1, "", 0)
	h.begin("malformed and out-of-range results and wait rejected with 400")
	js := h.run(0, []simd.RunSpec{estimatePoint()})
	bad := map[string]string{"results=2": "beyond end", "results=50&wait=1000": "beyond end"}
	for _, q := range []string{"abc", "-1", "1.5", "1e3", "0x10", "%20"} {
		bad["results="+q], bad["wait="+q] = "malformed results", "malformed wait"
	}
	for q, want := range bad {
		resp, err := http.Get(h.ts.URL + "/jobs/" + js.ID + "?" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
			t.Errorf("%s: status %d body %s, want %d mentioning %q", q, resp.StatusCode, body, http.StatusBadRequest, want)
		}
	}
	if rs := getJob(t, h.ts.URL, js.ID, "?results=1"); len(rs.Results) != 0 || rs.NextResult != 1 {
		t.Errorf("poll at the end of results: %d results, next %d; want 0, 1", len(rs.Results), rs.NextResult)
	}
	h.end()
}

// countingTransport counts the response body bytes and requests it carries.
type countingTransport struct {
	calls, bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.calls.Add(1)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		c.bytes.Add(int64(len(body)))
		resp.Body = io.NopCloser(bytes.NewReader(body))
		err = rerr
	}
	return resp, err
}

// TestJobPollBytesLinear: waiting on a 64-point job whose points complete
// one by one moves each result over the wire once — at most twice the
// summaries' bytes plus a fixed overhead per poll — where re-sending every
// result on every poll grows with the square of the job.
func TestJobPollBytesLinear(t *testing.T) {
	h := makeDistHarness(t, 1, time.Minute)
	h.begin("polling a 64-point job costs bytes linear in its results")
	const n, pad, perPoll = 64, 4096, 512
	w := newHandWorker(t, h.ts.URL, pad)
	sub, err := h.clients[0].Submit(context.Background(), simd.RunRequest{Points: seededPoints(n)})
	if err != nil {
		t.Fatal(err)
	}
	ct := &countingTransport{}
	c := simdclient.New(h.ts.URL)
	defer c.Close()
	c.SetTransport(ct)
	c.PollMax = 50 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := c.Wait(context.Background(), sub.ID, nil)
		done <- err
	}()
	var summaries int
	for k := 0; k < n; {
		for _, l := range w.lease(4) {
			w.complete(l)
			summaries += len(w.summary(l.Key))
			k++
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	polls, got := ct.calls.Load(), ct.bytes.Load()
	bound := 2*int64(summaries) + polls*perPoll
	t.Logf("%d polls moved %d bytes for %d summary bytes (bound %d)", polls, got, summaries, bound)
	if polls < n/4 {
		t.Errorf("only %d polls over %d completions: the test no longer interleaves", polls, n)
	}
	if got > bound {
		t.Errorf("%d polls moved %d bytes, want at most 2 x %d summary bytes + %d per poll = %d", polls, got, summaries, perPoll, bound)
	}
	h.end()
}

// pendingJob submits one simulation point to a coordinator that has no
// workers: the job runs until the test completes the point by hand, and
// logs no event before that. It returns the job's id and event count.
func pendingJob(t *testing.T, h *harness) (string, int) {
	t.Helper()
	sub, err := h.clients[0].Submit(context.Background(), simd.RunRequest{Points: seededPoints(1)})
	if err != nil {
		t.Fatal(err)
	}
	js, err := h.clients[0].Job(context.Background(), sub.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sub.ID, js.NextCursor
}

// heldPoll issues GET /jobs/{id}?cursor=cursor&results=0&wait=waitMS and
// reports how long the reply took, or -1 if the request failed.
func heldPoll(ctx context.Context, base, id string, cursor, waitMS int) <-chan time.Duration {
	out := make(chan time.Duration, 1)
	go func() {
		t0 := time.Now()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/jobs/%s?cursor=%d&results=0&wait=%d", base, id, cursor, waitMS), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out <- time.Since(t0)
	}()
	return out
}

// TestJobLongPoll: a held poll returns within ~50ms of the next event,
// returns when its hold ends if nothing happened, and returns at once on a
// terminal job.
func TestJobLongPoll(t *testing.T) {
	h := makeDistHarness(t, 1, time.Minute)
	h.begin("a held poll answers on the next event, at its hold's end, at once when terminal")
	w := newHandWorker(t, h.ts.URL, 10)
	ctx := context.Background()
	id, cursor := pendingJob(t, h)

	if d := <-heldPoll(ctx, h.ts.URL, id, cursor, 100); d < 100*time.Millisecond || d > 2*time.Second {
		t.Errorf("quiet poll held %s, want its 100ms hold", d)
	}

	reply := heldPoll(ctx, h.ts.URL, id, cursor, 5000)
	l := w.lease(1)[0]
	time.Sleep(50 * time.Millisecond)
	t0 := time.Now()
	w.complete(l)
	select {
	case d := <-reply:
		if late := time.Since(t0); d < 50*time.Millisecond || late > 50*time.Millisecond {
			t.Errorf("poll held %s and answered %s after the event, want it held until the event and answered within 50ms", d, late)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("held poll did not answer the event within 2s")
	}

	for getJob(t, h.ts.URL, id, "").Status != simd.StatusDone {
		time.Sleep(time.Millisecond)
	}
	js := getJob(t, h.ts.URL, id, "")
	if d := <-heldPoll(ctx, h.ts.URL, id, js.NextCursor, 5000); d < 0 || d > 50*time.Millisecond {
		t.Errorf("poll of a terminal job took %s, want an answer at once", d)
	}
	h.end()
}

// TestJobPollDisconnect: a client that goes away mid-hold frees its handler
// long before the hold ends.
func TestJobPollDisconnect(t *testing.T) {
	h := makeDistHarness(t, 1, time.Minute)
	h.begin("a disconnected held poll frees its handler")
	var active atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		active.Add(1)
		defer active.Add(-1)
		h.srv.Handler().ServeHTTP(w, r)
	}))
	id, cursor := pendingJob(t, h)

	ctx, cancel := context.WithCancel(context.Background())
	reply := heldPoll(ctx, ts.URL, id, cursor, 10_000)
	for deadline := time.Now().Add(2 * time.Second); active.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("held poll never reached the handler")
		}
	}
	cancel()
	<-reply
	for deadline := time.Now().Add(2 * time.Second); active.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("handler still holding 2s after its client went away")
		}
	}
	ts.Close()
	h.kill()
	h.checkLeaks()
}

// TestJobPollReleasedByDrain: a poll held for 5s returns as soon as the
// daemon starts to drain — nocsimd's HTTP shutdown, which waits for active
// requests, finishes in well under the hold — and as soon as it aborts.
func TestJobPollReleasedByDrain(t *testing.T) {
	for _, stop := range []string{"drain", "abort"} {
		t.Run(stop, func(t *testing.T) {
			h := makeDistHarness(t, 1, time.Minute)
			h.begin("held polls released by " + stop)
			id, cursor := pendingJob(t, h)
			reply := heldPoll(context.Background(), h.ts.URL, id, cursor, 5000)
			time.Sleep(50 * time.Millisecond)

			t0 := time.Now()
			var wg sync.WaitGroup
			if stop == "drain" {
				// The job never finishes, so the drain outlives the HTTP
				// shutdown; the abort below ends it.
				wg.Add(1)
				go func() {
					defer wg.Done()
					dctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					defer cancel()
					if err := h.srv.Drain(dctx); err != nil {
						t.Error(err)
					}
				}()
			} else {
				h.srv.Abort()
			}
			h.ts.Close() // waits for active requests, as http.Server.Shutdown does
			if d := time.Since(t0); d > 200*time.Millisecond {
				t.Errorf("HTTP shutdown took %s beside a held poll, want under 200ms", d)
			}
			if d := <-reply; d < 50*time.Millisecond {
				t.Errorf("poll answered after %s, before the %s began", d, stop)
			}
			h.srv.Abort()
			wg.Wait()
			h.kill()
			h.checkLeaks()
		})
	}
}
