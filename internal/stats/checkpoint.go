package stats

import "nocmem/internal/snapshot"

// Encode serializes the histogram. The shape (width, bucket count) is part
// of the image so Decode can reject snapshots taken under a different
// configuration. All n buckets are written, the zeros past the stored
// prefix included.
func (h *Histogram) Encode(w *snapshot.Writer) {
	w.I64(h.width)
	w.Len(h.n)
	for _, b := range h.buckets {
		w.I64(b)
	}
	for range h.n - len(h.buckets) {
		w.I64(0)
	}
	w.I64(h.count)
	w.I64(h.sum)
	w.I64(h.min)
	w.I64(h.max)
}

// Decode restores the histogram in place. The encoded shape must match h's.
// Only the buckets up to the last non-zero one are kept.
func (h *Histogram) Decode(r *snapshot.Reader) {
	width := r.I64()
	buckets := r.I64s()
	if r.Err() != nil {
		return
	}
	if width != h.width || len(buckets) != h.n {
		r.Fail("histogram shape mismatch: snapshot %dx%d, config %dx%d",
			width, len(buckets), h.width, h.n)
		return
	}
	h.count = r.I64()
	h.sum = r.I64()
	h.min = r.I64()
	h.max = r.I64()
	used := 0
	for i, b := range buckets {
		if b < 0 {
			r.Fail("negative histogram bucket")
			return
		}
		if b != 0 {
			used = i + 1
		}
	}
	h.buckets = prefix(buckets, used)
	if h.count < 0 {
		r.Fail("negative histogram count")
	}
}

// prefix returns s[:m], copied unless m is all of s so that a short prefix
// does not keep a long decoded slice alive. An empty prefix is nil, as in a
// histogram that never grew.
func prefix[T any](s []T, m int) []T {
	if m == 0 {
		return nil
	}
	if m == len(s) {
		return s
	}
	t := make([]T, m)
	copy(t, s)
	return t
}

// Encode serializes the running mean.
func (m *RunningMean) Encode(w *snapshot.Writer) {
	w.I64(m.n)
	w.F64(m.sum)
}

// Decode restores the running mean in place.
func (m *RunningMean) Decode(r *snapshot.Reader) {
	m.n = r.I64()
	m.sum = r.F64()
	if m.n < 0 {
		r.Fail("negative running-mean count")
	}
}

// Encode serializes the breakdown: all n ranges, the zeros past the stored
// prefix included.
func (b *Breakdown) Encode(w *snapshot.Writer) {
	w.I64(b.width)
	w.Len(b.n)
	for i := 0; i < b.n; i++ {
		var rg bdRange
		if i < len(b.ranges) {
			rg = b.ranges[i]
		}
		w.I64(rg.count)
		for _, v := range rg.sums {
			w.I64(v)
		}
	}
	for l := 0; l < int(NumLegs); l++ {
		w.I64(b.overall[l])
	}
	w.I64(b.total)
}

// Decode restores the breakdown in place. The encoded shape must match b's.
// Only the ranges up to the last non-zero one are kept.
func (b *Breakdown) Decode(r *snapshot.Reader) {
	width := r.I64()
	n := r.Len(rangeBytes)
	if r.Err() != nil {
		return
	}
	if width != b.width || n != b.n {
		r.Fail("breakdown shape mismatch: snapshot %dx%d, config %dx%d",
			width, n, b.width, b.n)
		return
	}
	ranges := make([]bdRange, n)
	used := 0
	for i := range ranges {
		rg := &ranges[i]
		rg.count = r.I64()
		for l := range rg.sums {
			rg.sums[l] = r.I64()
		}
		if *rg != (bdRange{}) {
			used = i + 1
		}
	}
	b.ranges = prefix(ranges, used)
	for l := 0; l < int(NumLegs); l++ {
		b.overall[l] = r.I64()
	}
	b.total = r.I64()
}

// Encode serializes the series.
func (s *Series) Encode(w *snapshot.Writer) {
	w.I64(s.interval)
	w.F64s(s.sums)
	w.I64s(s.counts)
}

// Decode restores the series in place, keeping its configured interval.
func (s *Series) Decode(r *snapshot.Reader) {
	interval := r.I64()
	sums := r.F64s()
	counts := r.I64s()
	if r.Err() != nil {
		return
	}
	if interval != s.interval {
		r.Fail("series interval mismatch: snapshot %d, config %d", interval, s.interval)
		return
	}
	if len(sums) != len(counts) {
		r.Fail("series arrays disagree: %d sums, %d counts", len(sums), len(counts))
		return
	}
	s.sums = sums
	s.counts = counts
}
