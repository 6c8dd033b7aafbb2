package stats

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nocmem/internal/snapshot"
)

// refHistogram and refBreakdown are Histogram and Breakdown as they were
// before they grew on demand: every bucket and range allocated up front. They
// are kept as the oracle the grown types are compared with, reader for
// reader and byte for byte.
type refHistogram struct {
	width   int64
	buckets []int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

func newRefHistogram(width int64, n int) *refHistogram {
	return &refHistogram{width: width, buckets: make([]int64, n), min: math.MaxInt64}
}

func (h *refHistogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	i := v / h.width
	if i >= int64(len(h.buckets)) {
		i = int64(len(h.buckets)) - 1
	}
	h.buckets[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *refHistogram) Merge(o *refHistogram) {
	if o.count == 0 {
		return
	}
	for i, b := range o.buckets {
		h.buckets[i] += b
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *refHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

func (h *refHistogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

func (h *refHistogram) PDF() []Point {
	out := make([]Point, len(h.buckets))
	for i, b := range h.buckets {
		var f float64
		if h.count > 0 {
			f = float64(b) / float64(h.count)
		}
		out[i] = Point{X: int64(i+1) * h.width, Y: f}
	}
	return out
}

func (h *refHistogram) CDF() []Point {
	out := make([]Point, len(h.buckets))
	var cum int64
	for i, b := range h.buckets {
		cum += b
		var f float64
		if h.count > 0 {
			f = float64(cum) / float64(h.count)
		}
		out[i] = Point{X: int64(i+1) * h.width, Y: f}
	}
	return out
}

func (h *refHistogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		p = math.SmallestNonzeroFloat64
	}
	if p > 100 {
		p = 100
	}
	target := int64(math.Ceil(float64(h.count) * p / 100))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			return int64(i+1) * h.width
		}
	}
	return int64(len(h.buckets)) * h.width
}

func (h *refHistogram) FractionAbove(x int64) float64 {
	if h.count == 0 {
		return 0
	}
	var above int64
	for i, b := range h.buckets {
		if int64(i)*h.width > x {
			above += b
		}
	}
	return float64(above) / float64(h.count)
}

func (h *refHistogram) Encode(w *snapshot.Writer) {
	w.I64(h.width)
	w.I64s(h.buckets)
	w.I64(h.count)
	w.I64(h.sum)
	w.I64(h.min)
	w.I64(h.max)
}

type refBreakdown struct {
	width   int64
	sums    [][NumLegs]int64
	counts  []int64
	overall [NumLegs]int64
	total   int64
}

func newRefBreakdown(width int64, n int) *refBreakdown {
	return &refBreakdown{width: width, sums: make([][NumLegs]int64, n), counts: make([]int64, n)}
}

func (b *refBreakdown) Add(legs [NumLegs]int64) {
	var total int64
	for _, v := range legs {
		total += v
	}
	i := total / b.width
	if i >= int64(len(b.counts)) {
		i = int64(len(b.counts)) - 1
	}
	if i < 0 {
		i = 0
	}
	b.counts[i]++
	b.total++
	for l, v := range legs {
		b.sums[i][l] += v
		b.overall[l] += v
	}
}

func (b *refBreakdown) Merge(o *refBreakdown) {
	for i, c := range o.counts {
		b.counts[i] += c
		for l := Leg(0); l < NumLegs; l++ {
			b.sums[i][l] += o.sums[i][l]
		}
	}
	b.total += o.total
	for l := Leg(0); l < NumLegs; l++ {
		b.overall[l] += o.overall[l]
	}
}

func (b *refBreakdown) Rows() []Row {
	var out []Row
	for i, c := range b.counts {
		if c == 0 {
			continue
		}
		r := Row{Lo: int64(i) * b.width, Hi: int64(i+1) * b.width, Count: c}
		for l := Leg(0); l < NumLegs; l++ {
			r.Avg[l] = float64(b.sums[i][l]) / float64(c)
		}
		out = append(out, r)
	}
	return out
}

func (b *refBreakdown) OverallAvg() [NumLegs]float64 {
	var out [NumLegs]float64
	if b.total == 0 {
		return out
	}
	for l := Leg(0); l < NumLegs; l++ {
		out[l] = float64(b.overall[l]) / float64(b.total)
	}
	return out
}

func (b *refBreakdown) Encode(w *snapshot.Writer) {
	w.I64(b.width)
	w.Len(len(b.counts))
	for i := range b.counts {
		w.I64(b.counts[i])
		for l := 0; l < int(NumLegs); l++ {
			w.I64(b.sums[i][l])
		}
	}
	for l := 0; l < int(NumLegs); l++ {
		w.I64(b.overall[l])
	}
	w.I64(b.total)
}

// encodeBytes runs enc on a fresh snapshot stream and returns its bytes.
func encodeBytes(t *testing.T, enc func(*snapshot.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	enc(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// codec is what Histogram and Breakdown share with the checkpoint.
type codec interface {
	Walk(*snapshot.Codec)
}

// encoderOf adapts x's walk to encodeBytes.
func encoderOf(x codec) func(*snapshot.Writer) {
	return func(w *snapshot.Writer) { x.Walk(snapshot.EncodeTo(w)) }
}

// decode restores x from img, failing the test on any decode error.
func decode(t *testing.T, img []byte, x codec) {
	t.Helper()
	rd, err := snapshot.NewReaderBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	x.Walk(snapshot.DecodeFrom(rd))
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
}

// latency draws a sample shaped like a round trip: mostly a few hundred
// cycles, sometimes negative, sometimes a long tail, sometimes far past the
// last bucket. top is the largest regular value, so instances drawn with
// different tops grow to different lengths and leave long empty stretches.
func latency(rng *rand.Rand, top int64) int64 {
	switch rng.Intn(50) {
	case 0:
		return -rng.Int63n(100) - 1
	case 1:
		return top + rng.Int63n(20*top)
	case 2, 3:
		return top/2 + rng.Int63n(top/2)
	}
	return 100 + rng.Int63n(top/8)
}

// legsOf splits a latency into five non-negative legs.
func legsOf(rng *rand.Rand, v int64) [NumLegs]int64 {
	var legs [NumLegs]int64
	if v <= 0 {
		return legs
	}
	for l := 0; l < int(NumLegs)-1; l++ {
		legs[l] = rng.Int63n(v/int64(NumLegs) + 1)
		v -= legs[l]
	}
	legs[NumLegs-1] = v
	return legs
}

// histPair and bdPair are one grown instance and its oracle, fed alike.
type histPair struct {
	h   *Histogram
	ref *refHistogram
}

type bdPair struct {
	b   *Breakdown
	ref *refBreakdown
}

func (p histPair) check(t *testing.T, what string) {
	t.Helper()
	h, ref := p.h, p.ref
	if h.Count() != ref.count || h.Mean() != ref.Mean() || h.Min() != ref.Min() || h.Max() != ref.max {
		t.Fatalf("%s: count/mean/min/max %d/%v/%d/%d, reference %d/%v/%d/%d", what,
			h.Count(), h.Mean(), h.Min(), h.Max(), ref.count, ref.Mean(), ref.Min(), ref.max)
	}
	if got := h.Buckets(); !reflect.DeepEqual(got, ref.buckets) {
		t.Fatalf("%s: buckets %v, reference %v", what, got, ref.buckets)
	}
	if !reflect.DeepEqual(h.PDF(), ref.PDF()) || !reflect.DeepEqual(h.CDF(), ref.CDF()) {
		t.Fatalf("%s: PDF or CDF differs from the reference", what)
	}
	for _, pc := range []float64{-1, 0, 1, 10, 25, 50, 75, 90, 99, 99.9, 100, 150} {
		if got, want := h.Percentile(pc), ref.Percentile(pc); got != want {
			t.Fatalf("%s: p%v = %d, reference %d", what, pc, got, want)
		}
	}
	for x := int64(-10); x <= ref.width*int64(len(ref.buckets))+10; x += max(ref.width/2, 1) {
		if got, want := h.FractionAbove(x), ref.FractionAbove(x); got != want {
			t.Fatalf("%s: fraction above %d = %v, reference %v", what, x, got, want)
		}
	}
	if got, want := encodeBytes(t, encoderOf(h)), encodeBytes(t, ref.Encode); !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode differs from the reference's (%d vs %d bytes)", what, len(got), len(want))
	}
}

func (p bdPair) check(t *testing.T, what string) {
	t.Helper()
	b, ref := p.b, p.ref
	if b.Count() != ref.total || b.OverallAvg() != ref.OverallAvg() {
		t.Fatalf("%s: count/overall %d/%v, reference %d/%v", what, b.Count(), b.OverallAvg(), ref.total, ref.OverallAvg())
	}
	if got, want := b.Rows(), ref.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: rows %v, reference %v", what, got, want)
	}
	if got, want := encodeBytes(t, encoderOf(b)), encodeBytes(t, ref.Encode); !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode differs from the reference's (%d vs %d bytes)", what, len(got), len(want))
	}
}

// TestGrownMatchesReference: histograms and breakdowns that store only the
// buckets they reached answer every reader, merge and encode exactly as the
// fixed-size reference types do, fed the same seeded stream.
func TestGrownMatchesReference(t *testing.T) {
	type shape struct {
		width int64
		n     int
	}
	for _, sh := range []shape{{25, 400}, {100, 100}, {7, 40}, {1, 1}} {
		t.Run(fmt.Sprintf("%dx%d", sh.width, sh.n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sh.width)*1000 + int64(sh.n)))
			span := sh.width * int64(sh.n)
			// Tops below, near and past the range: short, long and clamped growth.
			tops := []int64{max(span/16, 16), max(span/3, 16), max(2*span, 16)}
			newHist := func(top int64, samples int) histPair {
				p := histPair{NewHistogram(sh.width, sh.n), newRefHistogram(sh.width, sh.n)}
				for i := 0; i < samples; i++ {
					v := latency(rng, top)
					p.h.Add(v)
					p.ref.Add(v)
				}
				return p
			}
			newBd := func(top int64, samples int) bdPair {
				p := bdPair{NewBreakdown(sh.width, sh.n), newRefBreakdown(sh.width, sh.n)}
				for i := 0; i < samples; i++ {
					legs := legsOf(rng, latency(rng, top))
					p.b.Add(legs)
					p.ref.Add(legs)
				}
				return p
			}
			for i, top := range tops {
				for j, other := range tops {
					samples := 1 + rng.Intn(3000)
					if i == 0 {
						samples = 0 // an empty instance merged both ways
					}
					what := fmt.Sprintf("top %d (%d samples) merged with top %d", top, samples, other)
					a, b := newHist(top, samples), newHist(other, 2000)
					a.check(t, what+": before")
					a.h.Merge(b.h)
					a.ref.Merge(b.ref)
					a.check(t, what)
					b.h.Merge(a.h)
					b.ref.Merge(a.ref)
					b.check(t, what+", then back")

					c, d := newBd(top, samples), newBd(other, 2000)
					c.check(t, what+": before")
					c.b.Merge(d.b)
					c.ref.Merge(d.ref)
					c.check(t, what)
					d.b.Merge(c.b)
					d.ref.Merge(c.ref)
					d.check(t, what+", then back")
					if i == j {
						continue
					}
					// A full-size image, decoded then re-encoded, is the same image.
					dh := NewHistogram(sh.width, sh.n)
					decode(t, encodeBytes(t, a.ref.Encode), dh)
					histPair{dh, a.ref}.check(t, what+", decoded")

					db := NewBreakdown(sh.width, sh.n)
					decode(t, encodeBytes(t, c.ref.Encode), db)
					bdPair{db, c.ref}.check(t, what+", decoded")
				}
			}
		})
	}
}

// TestGrownStorage: a histogram or breakdown holds only the buckets up to
// the highest one used, a decoded one keeps only up to its last non-zero
// bucket, and a mismatched merge still panics.
func TestGrownStorage(t *testing.T) {
	h := NewHistogram(25, 400)
	b := NewBreakdown(100, 100)
	if h.HostBytes() != 0 || b.HostBytes() != 0 {
		t.Fatalf("empty histogram holds %d bytes, breakdown %d", h.HostBytes(), b.HostBytes())
	}
	for v := int64(0); v < 1000; v += 10 {
		h.Add(v)
		b.Add([NumLegs]int64{v})
	}
	// Samples below 1000 cycles reach bucket 39 of 400 and range 9 of 100.
	if got := h.HostBytes(); got != 40*8 {
		t.Errorf("histogram up to bucket 39 holds %d bytes, want %d", got, 40*8)
	}
	if got := b.HostBytes(); got != 10*rangeBytes {
		t.Errorf("breakdown up to range 9 holds %d bytes, want %d", got, 10*rangeBytes)
	}
	h.Add(1 << 40) // clamps into bucket 399
	if got := h.HostBytes(); got != 400*8 {
		t.Errorf("clamped sample: histogram holds %d bytes, want all 400 buckets", got)
	}

	hh := newRefHistogram(25, 400)
	hh.Add(30)
	hh.Add(260)
	dh := NewHistogram(25, 400)
	decode(t, encodeBytes(t, hh.Encode), dh)
	if got := dh.HostBytes(); got != 11*8 {
		t.Errorf("decoded histogram up to bucket 10 holds %d bytes, want %d", got, 11*8)
	}

	// An image whose last non-zero value is a bucket the counters disagree
	// with, or a range holding sums but no count, re-encodes unchanged.
	rh := newRefHistogram(25, 400)
	rh.Add(30)
	rh.buckets[300] = 3
	rb := newRefBreakdown(100, 100)
	rb.Add([NumLegs]int64{40, 40})
	rb.sums[57][LegMemory] = 5
	for _, tc := range []struct {
		enc   func(*snapshot.Writer)
		fresh codec
	}{
		{rh.Encode, NewHistogram(25, 400)},
		{rb.Encode, NewBreakdown(100, 100)},
	} {
		img := encodeBytes(t, tc.enc)
		decode(t, img, tc.fresh)
		if got := encodeBytes(t, encoderOf(tc.fresh)); !bytes.Equal(got, img) {
			t.Errorf("hand-built image re-encodes differently (%d vs %d bytes)", len(got), len(img))
		}
	}

	for _, merge := range []func(){
		func() { NewHistogram(25, 400).Merge(NewHistogram(25, 399)) },
		func() { NewHistogram(25, 400).Merge(NewHistogram(20, 400)) },
		func() { NewBreakdown(100, 100).Merge(NewBreakdown(100, 99)) },
		func() { NewBreakdown(100, 100).Merge(NewBreakdown(50, 100)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("mismatched merge did not panic")
				}
			}()
			merge()
		}()
	}
}
