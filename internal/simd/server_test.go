// Regression tests for the daemon's request surface: liveness, strict cursor
// validation on GET /jobs/{id}, and the terminal-job GC that keeps the
// in-memory jobs map bounded under churn.
package simd_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"nocmem/internal/simd"
)

// estimatePoint is an instant, simulation-free point for request-surface
// tests: the closed-form model answers in a fraction of a millisecond.
func estimatePoint() simd.RunSpec {
	return simd.RunSpec{Config: testCfg(), Apps: testApps, Estimate: true}
}

// TestCursorValidation: malformed and out-of-range cursors are 400s, not
// silently-zero polls; valid cursors (including the exact end of the event
// log) still work.
func TestCursorValidation(t *testing.T) {
	h := makeHarness(t, 1, "", 0)
	h.begin("malformed and out-of-range cursors rejected with 400")
	ctx := context.Background()

	// Liveness is a 200 with a fixed body, whatever the daemon is doing.
	if resp, err := http.Get(h.ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != `{"status":"ok"}` {
			t.Errorf("GET /healthz: status %d body %q", resp.StatusCode, body)
		}
	}

	js := h.run(0, []simd.RunSpec{estimatePoint()})
	for _, q := range []string{"abc", "-1", "1.5", "1e3", "0x10", "%20"} {
		resp, err := http.Get(h.ts.URL + "/jobs/" + js.ID + "?cursor=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cursor %q: status %d, want %d", q, resp.StatusCode, http.StatusBadRequest)
		}
	}

	// A cursor past the end of the event log can only come from a confused
	// client; it must be an error, not an empty success.
	if _, err := h.clients[0].Job(ctx, js.ID, js.NextCursor+50); err == nil {
		t.Error("cursor beyond the event log accepted, want 400")
	} else if !strings.Contains(err.Error(), "beyond end") {
		t.Errorf("beyond-end cursor error %q, want a 'beyond end' explanation", err)
	}

	// Cursor == len(events) is the normal "no new events" poll.
	tail, err := h.clients[0].Job(ctx, js.ID, js.NextCursor)
	if err != nil {
		t.Fatalf("cursor at exact end rejected: %v", err)
	}
	if len(tail.Events) != 0 {
		t.Errorf("poll at end returned %d events, want 0", len(tail.Events))
	}
	h.end()
}

// TestTerminalJobGC: churning many short jobs through the daemon leaves the
// in-memory jobs map bounded — fetched terminal jobs are collected after the
// TTL, unfetched ones are retained 10x longer — and /statsz reports the
// retained count accurately while the lifetime totals keep growing.
func TestTerminalJobGC(t *testing.T) {
	const ttl = 40 * time.Millisecond
	h := &harness{t: t, dir: t.TempDir(), g0: runtime.NumGoroutine(), jobTTL: ttl}
	h.boot(1)
	h.begin(fmt.Sprintf("job map bounded under churn (ttl %s)", ttl))
	ctx := context.Background()

	const churn = 30
	var firstID string
	for i := 0; i < churn; i++ {
		js := h.run(0, []simd.RunSpec{estimatePoint()}) // Run waits: fetched after terminal
		if i == 0 {
			firstID = js.ID
		}
	}
	time.Sleep(2 * ttl)

	// Any request sweeps the map; the fetched terminal jobs are gone.
	if _, err := h.clients[0].Job(ctx, firstID, 0); err == nil {
		t.Errorf("job %s still fetchable %s after completion, want collected", firstID, 2*ttl)
	} else if !strings.Contains(err.Error(), "no such job") {
		t.Errorf("collected job error %q, want 'no such job'", err)
	}
	st := h.stats()
	if st.Jobs != churn {
		t.Errorf("lifetime job counter %d, want %d (GC must not rewind totals)", st.Jobs, churn)
	}
	if st.RetainedJobs > 2 {
		t.Errorf("%d job records retained after churn + TTL, want <= 2", st.RetainedJobs)
	}

	// An unfetched terminal job survives the fetched TTL...
	sub, err := h.clients[0].Submit(ctx, simd.RunRequest{Points: []simd.RunSpec{estimatePoint()}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * ttl) // done long ago, never polled since
	js, err := h.clients[0].Job(ctx, sub.ID, 0)
	if err != nil {
		t.Fatalf("unfetched terminal job collected after 1x TTL: %v", err)
	}
	if !js.Done() {
		t.Fatalf("estimate job still %q after %s", js.Status, 3*ttl)
	}
	// ...and that poll marked it fetched, so now the normal TTL applies.
	time.Sleep(2 * ttl)
	if _, err := h.clients[0].Job(ctx, sub.ID, 0); err == nil {
		t.Error("fetched terminal job still alive after TTL, want collected")
	}
	h.end()
}

// TestRequestLimits: the POST endpoints read at most MaxBodyBytes and a job
// holds at most MaxJobPoints points — hostile or confused input is refused
// with 413/400 before any point is resolved — while a body of exactly the
// limit still goes through. A point config.Validate refuses is a 400 too.
func TestRequestLimits(t *testing.T) {
	h := makeDistHarness(t, 1, time.Minute)
	h.begin("oversized bodies and oversized jobs rejected, limit-sized body accepted")

	// padded returns a one-estimate job whose body is exactly n bytes: the
	// padding sits inside the object, so the decoder has to read all of it.
	padded := func(n int) string {
		spec, err := json.Marshal(simd.RunRequest{Points: []simd.RunSpec{estimatePoint()}})
		if err != nil {
			t.Fatal(err)
		}
		body := strings.TrimSuffix(string(spec), "}")
		return body + strings.Repeat(" ", n-len(body)-1) + "}"
	}
	// A mesh the simulator cannot build (S-NUCA needs a power-of-two tile
	// count) is refused at submission, also when only an estimate is asked.
	oddMesh := estimatePoint()
	oddMesh.Config.Mesh.Width, oddMesh.Config.Mesh.Height = 6, 4
	if _, err := simd.ResolveSpec(oddMesh); err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Errorf("ResolveSpec of a 6x4 mesh: %v, want the power-of-two rule", err)
	}
	oddBody, err := json.Marshal(simd.RunRequest{Points: []simd.RunSpec{oddMesh}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, path, body string
		want             int
		wantErr          string
	}{
		{"run body at the limit", "/run", padded(simd.MaxBodyBytes), http.StatusOK, ""},
		{"6x4 mesh", "/run", string(oddBody), http.StatusBadRequest, "power-of-two"},
		{"run body one byte over", "/run", padded(simd.MaxBodyBytes + 1), http.StatusRequestEntityTooLarge, "exceeds"},
		{"register body over", "/dist/register", `{"name":"` + strings.Repeat("w", simd.MaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge, "exceeds"},
		{"lease body over", "/dist/lease", `{"worker":"` + strings.Repeat("w", simd.MaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge, "exceeds"},
		{"complete body over", "/dist/complete", `{"summary":"` + strings.Repeat("s", simd.MaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge, "exceeds"},
		{"too many points", "/run", `{"points":[` + strings.Repeat("{},", simd.MaxJobPoints) + `{}]}`, http.StatusBadRequest, "at most"},
		{"body at the limit full of empty points", "/run", `{"points":[` + strings.Repeat("{},", (simd.MaxBodyBytes-15)/3) + `{}]}`, http.StatusBadRequest, "at most"},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := http.Post(h.ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != tc.want || !strings.Contains(string(msg), tc.wantErr) {
			t.Errorf("%s: status %d body %.80q, want %d mentioning %q", tc.name, resp.StatusCode, msg, tc.want, tc.wantErr)
		}
		// Buffering a limit-sized body costs the decoder a few copies of it;
		// what must not happen is one RunSpec per `{}` of a hostile array.
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*simd.MaxBodyBytes {
			t.Errorf("%s: handling allocated %d MiB, want at most %d", tc.name, got>>20, 8*simd.MaxBodyBytes>>20)
		}
	}
	if st := h.stats(); st.Jobs != 1 || st.Points != 1 {
		t.Errorf("%d jobs / %d points accepted, want only the limit-sized one", st.Jobs, st.Points)
	}
	h.end()
}
