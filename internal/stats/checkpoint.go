package stats

import "nocmem/internal/snapshot"

// Walk encodes or decodes the histogram. The shape (width, bucket count) is
// part of the image so a decode can reject snapshots taken under a different
// configuration. The image holds all n buckets, the zeros past the stored
// prefix included; a decode restores in place and keeps only the buckets up
// to the last non-zero one.
func (h *Histogram) Walk(k *snapshot.Codec) {
	width := h.width
	k.I64(&width)
	n := k.Len(h.n, 8)
	if k.Err() != nil {
		return
	}
	if width != h.width || n != h.n {
		k.Fail("histogram shape mismatch: snapshot %dx%d, config %dx%d",
			width, n, h.width, h.n)
		return
	}
	buckets := h.buckets
	if k.Decoding() {
		buckets = make([]int64, n)
	}
	k.I64Array(buckets)
	var zero int64
	for range n - len(buckets) { // the encoder's padding
		k.I64(&zero)
	}
	k.I64(&h.count)
	k.I64(&h.sum)
	k.I64(&h.min)
	k.I64(&h.max)
	if !k.Decoding() || k.Err() != nil {
		return
	}
	used := 0
	for i, b := range buckets {
		if b < 0 {
			k.Fail("negative histogram bucket")
			return
		}
		if b != 0 {
			used = i + 1
		}
	}
	h.buckets = prefix(buckets, used)
	if h.count < 0 {
		k.Fail("negative histogram count")
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

// Walk encodes or decodes the running mean.
func (m *RunningMean) Walk(k *snapshot.Codec) {
	k.I64(&m.n)
	k.F64(&m.sum)
	if k.Decoding() && m.n < 0 {
		k.Fail("negative running-mean count")
	}
}

// Walk encodes or decodes the breakdown: all n ranges, the zeros past the
// stored prefix included. A decode restores in place and keeps only the
// ranges up to the last non-zero one.
func (b *Breakdown) Walk(k *snapshot.Codec) {
	width := b.width
	k.I64(&width)
	n := k.Len(b.n, rangeBytes)
	if k.Err() != nil {
		return
	}
	if width != b.width || n != b.n {
		k.Fail("breakdown shape mismatch: snapshot %dx%d, config %dx%d",
			width, n, b.width, b.n)
		return
	}
	ranges := b.ranges
	if k.Decoding() {
		ranges = make([]bdRange, n)
	}
	for i := range ranges {
		ranges[i].walk(k)
	}
	var zero bdRange
	for range n - len(ranges) { // the encoder's padding
		zero.walk(k)
	}
	if k.Decoding() {
		used := 0
		for i := range ranges {
			if ranges[i] != (bdRange{}) {
				used = i + 1
			}
		}
		b.ranges = prefix(ranges, used)
	}
	k.I64Array(b.overall[:])
	k.I64(&b.total)
}

func (rg *bdRange) walk(k *snapshot.Codec) {
	k.I64(&rg.count)
	k.I64Array(rg.sums[:])
}

// Walk encodes or decodes the series; a decode keeps the configured
// interval.
func (s *Series) Walk(k *snapshot.Codec) {
	interval, sums, counts := s.interval, s.sums, s.counts
	k.I64(&interval)
	k.F64s(&sums)
	k.I64s(&counts)
	if !k.Decoding() || k.Err() != nil {
		return
	}
	if interval != s.interval {
		k.Fail("series interval mismatch: snapshot %d, config %d", interval, s.interval)
		return
	}
	if len(sums) != len(counts) {
		k.Fail("series arrays disagree: %d sums, %d counts", len(sums), len(counts))
		return
	}
	s.sums = sums
	s.counts = counts
}
