package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"nocmem/internal/config"
	"nocmem/internal/noc"
	"nocmem/internal/snapshot"
)

func s1cfg() config.Scheme1 {
	c := config.Baseline32().S1
	c.Enabled = true
	return c
}

func TestScheme1ThresholdLifecycle(t *testing.T) {
	cfg := s1cfg()
	cfg.UpdatePeriod = 100
	cfg.InitialThreshold = 500
	s := NewScheme1(cfg, 4)

	// Before any completion, the seed threshold applies.
	if got := s.Threshold(0); got != 500 {
		t.Fatalf("initial threshold %d", got)
	}
	if s.Classify(0, 501) != noc.High || s.Classify(0, 499) != noc.Normal {
		t.Fatal("seed threshold not enforced")
	}

	// Completions move the core-side average, but the MC-visible
	// threshold changes only at the next periodic push.
	s.RecordRoundTrip(0, 1000)
	s.RecordRoundTrip(0, 2000)
	if got := s.Average(0); got != 1500 {
		t.Fatalf("average %.0f", got)
	}
	if got := s.Threshold(0); got != 500 {
		t.Fatalf("threshold updated before the push: %d", got)
	}
	s.Tick(50) // before the period: no push
	if got := s.Threshold(0); got != 500 {
		t.Fatalf("premature push: %d", got)
	}
	s.Tick(100)
	want := int64(cfg.ThresholdFactor * 1500)
	if got := s.Threshold(0); got != want {
		t.Fatalf("threshold %d after push, want %d", got, want)
	}

	// Other cores keep their seed until they complete something.
	if got := s.Threshold(1); got != 500 {
		t.Fatalf("idle core threshold %d", got)
	}
}

func TestScheme1ClassifyCounts(t *testing.T) {
	cfg := s1cfg()
	s := NewScheme1(cfg, 1)
	s.RecordRoundTrip(0, 100)
	s.Tick(cfg.UpdatePeriod)
	late, onTime := 0, 0
	for age := int64(0); age < 300; age += 10 {
		if s.Classify(0, age) == noc.High {
			late++
		} else {
			onTime++
		}
	}
	if late == 0 || onTime == 0 {
		t.Fatalf("classification not selective: late=%d onTime=%d", late, onTime)
	}
	if s.Checked != int64(late+onTime) || s.Tagged != int64(late) {
		t.Fatalf("counters checked=%d tagged=%d", s.Checked, s.Tagged)
	}
}

func TestScheme1NegativeDelayClamped(t *testing.T) {
	s := NewScheme1(s1cfg(), 1)
	s.RecordRoundTrip(0, -50)
	if s.Average(0) != 0 {
		t.Errorf("negative delay polluted the average: %.1f", s.Average(0))
	}
}

func TestBankHistoryWindow(t *testing.T) {
	h := NewBankHistory(4, 100, 1)
	if !h.Idle(2, 0) {
		t.Fatal("untouched bank should look idle")
	}
	h.Record(2, 10)
	if h.Idle(2, 50) {
		t.Fatal("recently used bank should look busy")
	}
	if !h.Idle(2, 111) {
		t.Fatal("bank should look idle after the window expires")
	}
	if !h.Idle(3, 50) {
		t.Fatal("other banks unaffected")
	}
}

func TestBankHistoryThreshold(t *testing.T) {
	h := NewBankHistory(2, 100, 3)
	// With th=3, up to two recent sends still count as idle.
	h.Record(0, 10)
	h.Record(0, 11)
	if !h.Idle(0, 20) {
		t.Fatal("two sends under th=3 should still be idle")
	}
	h.Record(0, 12)
	if h.Idle(0, 20) {
		t.Fatal("three recent sends must not be idle")
	}
	// The ring keeps only the newest th stamps.
	if h.Idle(0, 105) != false {
		t.Fatal("stamps at 11 and 12 are still within the window at 105")
	}
	if !h.Idle(0, 150) {
		t.Fatal("all stamps expired")
	}
}

func TestBankHistoryProperty(t *testing.T) {
	// After recording at time x, the bank is non-idle (th=1) for exactly
	// window cycles.
	f := func(at uint16, delta uint16) bool {
		h := NewBankHistory(1, 1000, 1)
		h.Record(0, int64(at))
		now := int64(at) + int64(delta)
		return h.Idle(0, now) == (int64(delta) >= 1000)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankHistoryWindowBoundary(t *testing.T) {
	// Pins the window down as the half-open interval (now-T, now] at the
	// paper's T=2000: a stamp counts as recent iff now-t < T, so a request
	// sent exactly T cycles ago has just aged out. A drift to <= or to a
	// closed interval silently shifts every Scheme-2 tagging decision.
	const T = 2000
	cases := []struct {
		name  string
		stamp int64 // record time
		now   int64 // query time
		idle  bool
	}{
		{"same cycle", 5000, 5000, false},
		{"one cycle old", 5000, 5001, false},
		{"last cycle inside window", 5000, 5000 + T - 1, false},
		{"exactly T cycles old ages out", 5000, 5000 + T, true},
		{"T+1 cycles old", 5000, 5000 + T + 1, true},
		{"stamp at cycle zero, now T-1", 0, T - 1, false},
		{"stamp at cycle zero, now T", 0, T, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewBankHistory(1, T, 1)
			h.Record(0, tc.stamp)
			if got := h.Idle(0, tc.now); got != tc.idle {
				t.Fatalf("Idle(stamp=%d, now=%d) = %v, want %v", tc.stamp, tc.now, got, tc.idle)
			}
		})
	}
}

func TestScheme2ClassifyRecords(t *testing.T) {
	cfg := config.Baseline32().S2
	cfg.Enabled = true
	cfg.HistoryWindow = 100
	s := NewScheme2(cfg, 2, 8)
	if s.Classify(0, 3, 10) != noc.High {
		t.Fatal("first request to an idle bank should be tagged")
	}
	if s.Classify(0, 3, 20) != noc.Normal {
		t.Fatal("second request within the window must not be tagged")
	}
	// Histories are per node: node 1 has not touched bank 3.
	if s.Classify(1, 3, 20) != noc.High {
		t.Fatal("per-node history leaked across nodes")
	}
	if s.Checked != 3 || s.Tagged != 2 {
		t.Fatalf("counters checked=%d tagged=%d", s.Checked, s.Tagged)
	}
}

// TestNilSchemes: a disabled scheme is a nil pointer, and every method the
// simulator calls on one answers as if the scheme were absent, so no call
// site needs a nil check.
func TestNilSchemes(t *testing.T) {
	var s1 *Scheme1
	if s1.Classify(0, 1<<30) != noc.Normal {
		t.Error("nil Scheme1 must classify normal")
	}
	if s1.NextPush() != math.MaxInt64 {
		t.Errorf("nil Scheme1 pushes at %d, want never", s1.NextPush())
	}
	s1.RecordRoundTrip(0, 100) // must not panic
	s1.Tick(0)
	var s2 *Scheme2
	if s2.Classify(0, 0, 0) != noc.Normal {
		t.Error("nil Scheme2 must classify normal")
	}
}

func TestAppAwareRanking(t *testing.T) {
	mpki := []float64{40, 2, 30, 1, 0, 0}
	active := []bool{true, true, true, true, false, false}
	a := NewAppAware(mpki, active)
	// Median of {1,2,30,40} -> 30; apps strictly below it are prioritized.
	if a.Priority(1) != noc.High || a.Priority(3) != noc.High {
		t.Error("low-intensity applications not prioritized")
	}
	if a.Priority(0) != noc.Normal || a.Priority(2) != noc.Normal {
		t.Error("high-intensity applications prioritized")
	}
	if a.Priority(4) != noc.Normal || a.Priority(5) != noc.Normal {
		t.Error("idle tiles prioritized")
	}
	if a.Priority(-1) != noc.Normal || a.Priority(99) != noc.Normal {
		t.Error("out-of-range core ids must be normal")
	}
	var nilAware *AppAware
	if nilAware.Priority(0) != noc.Normal {
		t.Error("nil AppAware must be normal")
	}
}

// TestSkipConsumesWhatEncodeWrote: a snapshot taken with a scheme enabled
// restores into a configuration without it by skipping the scheme's block,
// so Skip has to read exactly the bytes Encode wrote — a field added to one
// and not the other misaligns everything behind it — and a block cut short
// anywhere is a snapshot.ErrFormat, not a panic.
func TestSkipConsumesWhatEncodeWrote(t *testing.T) {
	s1 := NewScheme1(s1cfg(), 4)
	s1.RecordRoundTrip(0, 1000)
	s1.Classify(0, 2000)
	s2cfg := config.Baseline32().S2
	s2cfg.Enabled = true
	s2 := NewScheme2(s2cfg, 3, 8)
	s2.Classify(1, 5, 40)

	for name, c := range map[string]struct {
		encode func(*snapshot.Writer)
		skip   func(*snapshot.Reader)
	}{
		"scheme-1": {func(w *snapshot.Writer) { s1.Walk(snapshot.EncodeTo(w)) }, func(r *snapshot.Reader) { new(Scheme1).Walk(snapshot.DecodeFrom(r)) }},
		"scheme-2": {func(w *snapshot.Writer) { s2.Walk(snapshot.EncodeTo(w)) }, func(r *snapshot.Reader) { new(Scheme2).Walk(snapshot.DecodeFrom(r)) }},
	} {
		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf)
		header := len(snapshot.Magic) + 4 // magic and version; still in w's buffer until Err
		c.encode(w)
		if w.Err() != nil {
			t.Fatal(w.Err())
		}
		for n := header; n <= buf.Len(); n++ {
			r, err := snapshot.NewReaderBytes(buf.Bytes()[:n])
			if err != nil {
				t.Fatal(err)
			}
			c.skip(r)
			switch {
			case n < buf.Len() && !errors.Is(r.Err(), snapshot.ErrFormat):
				t.Fatalf("%s cut to %d of %d bytes: skip returned %v, want ErrFormat", name, n-header, buf.Len()-header, r.Err())
			case n == buf.Len() && (r.Err() != nil || r.Remaining() != 0):
				t.Fatalf("%s: skip left %d of %d bytes unread (%v)", name, r.Remaining(), buf.Len()-header, r.Err())
			}
		}
	}
}
