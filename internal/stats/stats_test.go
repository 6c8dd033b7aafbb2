package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10, 10)
	for _, v := range []int64{5, 15, 15, 95, 1000, -3} {
		h.Add(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	b := h.Buckets()
	if b[0] != 2 || b[1] != 2 || b[9] != 2 { // -3 clamps to 0; 95 and 1000 clamp to the last bucket
		t.Errorf("buckets %v", b)
	}
	wantMean := float64(5+15+15+95+1000+0) / 6
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Errorf("mean %.2f, want %.2f", h.Mean(), wantMean)
	}
}

func TestHistogramCDFPDF(t *testing.T) {
	h := NewHistogram(10, 5)
	for i := int64(0); i < 50; i++ {
		h.Add(i)
	}
	pdf := h.PDF()
	var sum float64
	for _, p := range pdf {
		sum += p.Y
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PDF sums to %.6f", sum)
	}
	cdf := h.CDF()
	if cdf[len(cdf)-1].Y != 1 {
		t.Errorf("CDF ends at %.6f", cdf[len(cdf)-1].Y)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Y < cdf[i-1].Y {
			t.Fatalf("CDF decreases at %d", i)
		}
	}
	// Uniform over [0,50): each of the 5 buckets holds 20%.
	for i, p := range pdf {
		if math.Abs(p.Y-0.2) > 1e-9 {
			t.Errorf("bucket %d PDF %.3f, want 0.2", i, p.Y)
		}
	}
}

func TestHistogramCDFMonotoneProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		h := NewHistogram(7, 40)
		for _, v := range vals {
			h.Add(int64(v))
		}
		cdf := h.CDF()
		for i := 1; i < len(cdf); i++ {
			if cdf[i].Y < cdf[i-1].Y {
				return false
			}
		}
		return len(vals) == 0 || cdf[len(cdf)-1].Y == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1, 1000)
	for i := int64(0); i < 100; i++ {
		h.Add(i)
	}
	if p := h.Percentile(50); p < 49 || p > 51 {
		t.Errorf("p50 = %d", p)
	}
	if p := h.Percentile(99); p < 98 || p > 100 {
		t.Errorf("p99 = %d", p)
	}
	if NewHistogram(1, 10).Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Out-of-domain p clamps into (0, 100]: p <= 0 resolves to the lowest
	// sample's bucket, p > 100 behaves exactly like p = 100 (it must not
	// fall through to the max-bucket bound of 1000).
	cases := []struct {
		p    float64
		want int64
	}{
		{p: 0, want: 1},     // first sample (value 0) lives in bucket [0,1)
		{p: -5, want: 1},    // same clamp as p -> 0+
		{p: 100, want: 100}, // last sample is 99: bucket [99,100)
		{p: 150, want: 100}, // clamped to p = 100, not len(buckets)*width
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestFractionAbove(t *testing.T) {
	// Uniform over [0, 100) with width-10 buckets: bucket k holds
	// [10k, 10k+10). A bucket counts as "above x" only when its whole
	// range lies strictly above x, so the bucket whose lower bound equals
	// x must NOT count (it contains the sample v == x).
	h := NewHistogram(10, 10)
	for i := int64(0); i < 100; i++ {
		h.Add(i)
	}
	cases := []struct {
		x    int64
		want float64
	}{
		{x: 59, want: 0.4}, // buckets 6..9 lie wholly above 59
		{x: 60, want: 0.3}, // bucket 6 contains 60 itself: excluded
		{x: 61, want: 0.3}, // bucket 6 straddles 61: excluded
		{x: 0, want: 0.9},  // bucket 0 contains 0: excluded
		{x: 89, want: 0.1},
		{x: 90, want: 0},
		{x: 91, want: 0},
		{x: 100, want: 0},
	}
	for _, c := range cases {
		if f := h.FractionAbove(c.x); math.Abs(f-c.want) > 1e-9 {
			t.Errorf("fraction above %d = %.3f, want %.3f", c.x, f, c.want)
		}
	}
}

func TestRunningMean(t *testing.T) {
	var m RunningMean
	if m.Mean() != 0 {
		t.Error("empty mean nonzero")
	}
	m.Add(2)
	m.Add(4)
	if m.Mean() != 3 || m.N() != 2 {
		t.Errorf("mean %.1f n %d", m.Mean(), m.N())
	}
	m.Reset()
	if m.N() != 0 {
		t.Error("reset failed")
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown(100, 10)
	b.Add([NumLegs]int64{10, 20, 100, 15, 5})  // total 150 -> bucket [100,200)
	b.Add([NumLegs]int64{20, 30, 120, 20, 10}) // total 200 -> bucket [200,300)
	b.Add([NumLegs]int64{10, 10, 100, 20, 10}) // total 150 -> bucket [100,200)
	rows := b.Rows()
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Lo != 100 || rows[0].Count != 2 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[0].Avg[LegMemory] != 100 {
		t.Errorf("avg mem leg %.1f", rows[0].Avg[LegMemory])
	}
	if b.Count() != 3 {
		t.Errorf("count %d", b.Count())
	}
	overall := b.OverallAvg()
	var sum float64
	for _, v := range overall {
		sum += v
	}
	if math.Abs(sum-(150+200+150)/3.0) > 1e-9 {
		t.Errorf("overall leg sum %.2f", sum)
	}
}

func TestLegNames(t *testing.T) {
	want := []string{"L1 to L2", "L2 to Mem", "Mem", "Mem to L2", "L2 to L1"}
	for l := Leg(0); l < NumLegs; l++ {
		if l.String() != want[l] {
			t.Errorf("leg %d = %q, want %q", l, l.String(), want[l])
		}
	}
}

func TestWeightedSpeedup(t *testing.T) {
	ws, err := WeightedSpeedup([]float64{1, 2}, []float64{2, 2})
	if err != nil || ws != 1.5 {
		t.Errorf("ws = %.2f err %v", ws, err)
	}
	if _, err := WeightedSpeedup([]float64{1}, []float64{0}); err == nil {
		t.Error("zero alone IPC accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	_, _ = WeightedSpeedup([]float64{1}, []float64{1, 2})
}

func TestNormalizedSpeedup(t *testing.T) {
	v, err := NormalizedSpeedup(11, 10)
	if err != nil || math.Abs(v-1.1) > 1e-12 {
		t.Errorf("normalized %.3f err %v", v, err)
	}
	if _, err := NormalizedSpeedup(1, 0); err == nil {
		t.Error("zero base accepted")
	}
}

func TestMaxSlowdown(t *testing.T) {
	ms, err := MaxSlowdown([]float64{1, 0.5}, []float64{2, 2})
	if err != nil || ms != 4 {
		t.Errorf("max slowdown %.2f err %v", ms, err)
	}
	if _, err := MaxSlowdown([]float64{0}, []float64{1}); err == nil {
		t.Error("zero shared IPC accepted")
	}
}

func TestHarmonicSpeedup(t *testing.T) {
	hs, err := HarmonicSpeedup([]float64{1, 1}, []float64{2, 2})
	if err != nil || hs != 0.5 {
		t.Errorf("harmonic speedup %.2f err %v", hs, err)
	}
	if _, err := HarmonicSpeedup(nil, nil); err == nil {
		t.Error("empty harmonic speedup accepted")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries(100)
	s.Add(10, 1)
	s.Add(50, 3)
	s.Add(250, 5)
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Cycle != 0 || pts[0].Avg != 2 || pts[0].N != 2 {
		t.Errorf("point 0 = %+v", pts[0])
	}
	if pts[1].Cycle != 200 || pts[1].Avg != 5 {
		t.Errorf("point 1 = %+v", pts[1])
	}
	if s.Interval() != 100 {
		t.Error("interval wrong")
	}
}
