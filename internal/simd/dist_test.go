// Distributed-sweep coordinator tests: byte-identical merged output across
// worker counts and completion orders, lease expiry and re-lease after
// worker death, idempotent (and loudly byte-checked) duplicate completions,
// and the failure retry budget.
package simd_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"nocmem/internal/exp"
	"nocmem/internal/simd"
	"nocmem/internal/simdclient"
)

// TestDistributedSweepByteIdentical: three workers race on one policy grid;
// the merged output must be byte-identical to a direct single-process
// execution, the coordinator itself must simulate nothing, and a repeat of
// the sweep must be served from the store without leasing anything.
func TestDistributedSweepByteIdentical(t *testing.T) {
	h := makeDistHarness(t, 1, 0)
	h.begin("3 workers racing on one policy grid, byte-identical merge")
	for i := 0; i < 3; i++ {
		h.startWorker(fmt.Sprintf("w%d", i), 1)
	}

	grid := policyGrid()
	js := h.run(0, grid)
	direct := newDirect()
	for i, sp := range grid {
		pr := js.Results[i]
		if pr.Source != simd.SourceWorker {
			t.Errorf("point %d source %q, want %q", i, pr.Source, simd.SourceWorker)
		}
		if pr.Worker == "" {
			t.Errorf("point %d names no worker", i)
		}
		if want := direct.summary(t, sp); !bytes.Equal(pr.Summary, want) {
			t.Errorf("point %d: merged bytes differ from direct execution", i)
		}
	}

	st := h.stats()
	if st.Runner.Executed != 0 {
		t.Errorf("coordinator executed %d simulations itself, want 0 (workers own execution)", st.Runner.Executed)
	}
	if st.Runner.RemoteCompletions != int64(len(grid)) {
		t.Errorf("%d remote completions, want %d", st.Runner.RemoteCompletions, len(grid))
	}
	if st.Dist == nil {
		t.Fatal("statsz has no dist section on a coordinator")
	}
	if st.Dist.Mismatches != 0 {
		t.Errorf("%d duplicate byte mismatches, want 0", st.Dist.Mismatches)
	}
	if len(st.Dist.Workers) != 3 {
		t.Errorf("%d workers registered, want 3", len(st.Dist.Workers))
	}

	// Re-running the sweep leases nothing: the store answers.
	granted := st.Runner.LeasesGranted
	again := h.run(0, grid)
	for i := range grid {
		if again.Results[i].Source != simd.SourceStore {
			t.Errorf("repeat point %d source %q, want %q", i, again.Results[i].Source, simd.SourceStore)
		}
		if !bytes.Equal(again.Results[i].Summary, js.Results[i].Summary) {
			t.Errorf("repeat point %d: bytes differ from first sweep", i)
		}
	}
	if st2 := h.stats(); st2.Runner.LeasesGranted != granted {
		t.Errorf("repeat sweep granted %d new leases, want 0", st2.Runner.LeasesGranted-granted)
	}
	h.end()
}

// TestLeaseExpiryReLease: a worker registers, takes leases, and dies without
// completing anything. Its points must be re-leased to a live worker after
// the TTL and the sweep must finish with output byte-identical to a direct
// run.
func TestLeaseExpiryReLease(t *testing.T) {
	h := makeDistHarness(t, 1, 200*time.Millisecond)
	h.begin("dead worker's leases expire and re-lease to a survivor")
	ctx := context.Background()
	c := h.clients[0]

	reg, err := c.RegisterWorker(ctx, "zombie")
	if err != nil {
		t.Fatal(err)
	}
	grid := policyGrid()
	sub, err := c.Submit(ctx, simd.RunRequest{Points: grid})
	if err != nil {
		t.Fatal(err)
	}
	// The zombie grabs a batch and then never speaks again.
	var taken int
	for deadline := time.Now().Add(5 * time.Second); taken == 0; {
		lr, err := c.Lease(ctx, reg.WorkerID, 4)
		if err != nil {
			t.Fatal(err)
		}
		taken = len(lr.Leases)
		if taken == 0 {
			if time.Now().After(deadline) {
				t.Fatal("zombie was never granted a lease")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Logf("zombie holds %d lease(s) and dies", taken)

	h.startWorker("survivor", 2)
	js, err := c.Wait(ctx, sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := js.Err(); e != "" {
		t.Fatalf("sweep failed: %s", e)
	}

	direct := newDirect()
	for i, sp := range grid {
		if want := direct.summary(t, sp); !bytes.Equal(js.Results[i].Summary, want) {
			t.Errorf("point %d: merged bytes differ from direct execution", i)
		}
		if w := js.Results[i].Worker; !strings.HasPrefix(w, "survivor") {
			t.Errorf("point %d completed by %q, want the survivor", i, w)
		}
	}
	st := h.stats()
	if st.Runner.LeasesExpired < int64(taken) {
		t.Errorf("%d leases expired, want >= %d (everything the zombie held)", st.Runner.LeasesExpired, taken)
	}
	if st.Runner.LeasesRelayed < int64(taken) {
		t.Errorf("%d leases re-leased, want >= %d", st.Runner.LeasesRelayed, taken)
	}
	h.end()
}

// TestDuplicateCompletionIdempotent drives the wire protocol by hand: the
// first completion is merged, an identical duplicate is absorbed silently,
// and a divergent duplicate is absorbed but counted as a mismatch — the
// determinism alarm.
func TestDuplicateCompletionIdempotent(t *testing.T) {
	h := makeDistHarness(t, 1, time.Minute)
	h.begin("duplicate completions absorbed; divergent bytes counted loudly")
	ctx := context.Background()
	c := h.clients[0]

	reg, err := c.RegisterWorker(ctx, "dup")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(ctx, simd.RunRequest{Points: policyGrid()[:1]})
	if err != nil {
		t.Fatal(err)
	}
	lease := leaseOne(t, c, reg.WorkerID)

	rp, err := simd.ResolveSpec(lease.Spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := simd.ExecuteSpec(exp.NewRunner(exp.Options{ShareWarmup: true}), rp)
	if err != nil {
		t.Fatal(err)
	}
	complete := func(payload []byte) string {
		t.Helper()
		status, err := c.Complete(ctx, simd.CompleteRequest{
			Worker: reg.WorkerID, LeaseID: lease.ID, Key: lease.Key, Summary: payload,
		})
		if err != nil {
			t.Fatal(err)
		}
		return status
	}

	if got := complete(data); got != simd.CompleteAccepted {
		t.Fatalf("first completion %q, want %q", got, simd.CompleteAccepted)
	}
	if got := complete(data); got != simd.CompleteDuplicate {
		t.Fatalf("identical duplicate %q, want %q", got, simd.CompleteDuplicate)
	}
	if st := h.stats(); st.Dist.Mismatches != 0 {
		t.Fatalf("identical duplicate counted as mismatch")
	}
	if got := complete([]byte(`{"cycles":1}`)); got != simd.CompleteDuplicate {
		t.Fatalf("divergent duplicate %q, want %q", got, simd.CompleteDuplicate)
	}
	st := h.stats()
	if st.Dist.Mismatches != 1 {
		t.Errorf("%d mismatches after a divergent duplicate, want 1", st.Dist.Mismatches)
	}
	if st.Runner.DuplicateCompletions != 2 {
		t.Errorf("%d duplicate completions counted, want 2", st.Runner.DuplicateCompletions)
	}

	// The job saw exactly the first (correct) bytes.
	js, err := c.Wait(ctx, sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := js.Err(); e != "" {
		t.Fatalf("job failed: %s", e)
	}
	if !bytes.Equal(js.Results[0].Summary, data) {
		t.Error("job result differs from the first accepted completion")
	}
	h.end()
}

// leaseOne polls until the coordinator grants the worker one lease.
func leaseOne(t *testing.T, c *simdclient.Client, workerID string) simd.Lease {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		lr, err := c.Lease(context.Background(), workerID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(lr.Leases) > 0 {
			return lr.Leases[0]
		}
		if time.Now().After(deadline) {
			t.Fatal("never granted a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAbortFailsLeasedPoints: killing a coordinator while a worker holds a
// lease fails the point (and its job) at once instead of waiting out the
// TTL, and the worker's late completion is absorbed as a duplicate — nothing
// of it is merged or byte-checked.
func TestAbortFailsLeasedPoints(t *testing.T) {
	h := makeDistHarness(t, 1, time.Minute)
	h.begin("abort with one point leased: job fails, late completion is a duplicate")
	ctx := context.Background()
	c := h.clients[0]

	reg, err := c.RegisterWorker(ctx, "late")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(ctx, simd.RunRequest{Points: policyGrid()[:1]})
	if err != nil {
		t.Fatal(err)
	}
	lease := leaseOne(t, c, reg.WorkerID)

	h.srv.Abort()
	js, err := c.Wait(ctx, sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := js.Err(); js.Status != simd.StatusFailed || !strings.Contains(e, "aborted before completion") {
		t.Fatalf("job after abort: status %q, error %q", js.Status, e)
	}
	status, err := c.Complete(ctx, simd.CompleteRequest{
		Worker: reg.WorkerID, LeaseID: lease.ID, Key: lease.Key, Summary: []byte(`{"cycles":1}`),
	})
	if err != nil || status != simd.CompleteDuplicate {
		t.Fatalf("late completion: %q, %v, want %q", status, err, simd.CompleteDuplicate)
	}
	st := h.stats()
	if st.Runner.DuplicateCompletions != 1 || st.Runner.RemoteCompletions != 0 || st.Dist.Mismatches != 0 {
		t.Errorf("after the late completion: %d duplicates, %d merged, %d mismatches; want 1, 0, 0",
			st.Runner.DuplicateCompletions, st.Runner.RemoteCompletions, st.Dist.Mismatches)
	}
	h.end()
}

// TestFailedPointFailsAfterRetryBudget: a point whose execution keeps
// erroring is re-leased up to the failure budget, then fails the job with
// the worker's error attached.
func TestFailedPointFailsAfterRetryBudget(t *testing.T) {
	h := makeDistHarness(t, 1, time.Minute)
	h.begin("erroring point re-leases twice, then fails for good")
	ctx := context.Background()
	c := h.clients[0]

	reg, err := c.RegisterWorker(ctx, "crasher")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(ctx, simd.RunRequest{Points: policyGrid()[:1]})
	if err != nil {
		t.Fatal(err)
	}
	var statuses []string
	for len(statuses) < 3 {
		lr, err := c.Lease(ctx, reg.WorkerID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(lr.Leases) == 0 {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		status, err := c.Complete(ctx, simd.CompleteRequest{
			Worker: reg.WorkerID, LeaseID: lr.Leases[0].ID, Key: lr.Leases[0].Key,
			Err: "synthetic crash",
		})
		if err != nil {
			t.Fatal(err)
		}
		statuses = append(statuses, status)
	}
	want := []string{simd.CompleteRetry, simd.CompleteRetry, simd.CompleteFailed}
	for i := range want {
		if statuses[i] != want[i] {
			t.Errorf("completion %d status %q, want %q", i, statuses[i], want[i])
		}
	}

	js, err := c.Wait(ctx, sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if js.Status != simd.StatusFailed {
		t.Fatalf("job status %q, want %q", js.Status, simd.StatusFailed)
	}
	if e := js.Err(); !strings.Contains(e, "synthetic crash") || !strings.Contains(e, "attempt 3/3") {
		t.Errorf("job error %q, want the worker error and the exhausted budget", e)
	}
	h.end()
}
