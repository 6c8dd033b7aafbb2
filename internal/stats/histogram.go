// Package stats provides the measurement primitives used throughout the
// simulator: latency histograms with CDF/PDF extraction, running means,
// per-leg delay breakdowns (the five paths of Figure 2 in the paper),
// weighted speedup, and interval time series.
package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width bucket histogram over [0, width*n).
// Values beyond the last bucket are clamped into it. It stores only the
// buckets up to the highest one used so far and grows on demand; every
// reader answers as if all n were stored, the ones past the stored prefix
// being zero. The zero value is not usable; construct with NewHistogram.
type Histogram struct {
	width   int64
	n       int     // logical bucket count
	buckets []int64 // stored prefix of the n buckets
	count   int64
	sum     int64
	min     int64
	max     int64
}

// NewHistogram returns a histogram with n buckets of the given width
// (in cycles).
func NewHistogram(width int64, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic(fmt.Sprintf("stats: invalid histogram shape width=%d n=%d", width, n))
	}
	return &Histogram{width: width, n: n, min: math.MaxInt64}
}

// grow returns s extended with zeros to length m, in storage of exactly
// that length. It runs only when a sample lands past the highest bucket so
// far, i.e. when a latency stream sets a new maximum.
func grow[T any](s []T, m int) []T {
	t := make([]T, m)
	copy(t, s)
	return t
}

// Add records one sample. Negative samples are clamped to zero.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	i := v / h.width
	if i >= int64(h.n) {
		i = int64(h.n) - 1
	}
	if i >= int64(len(h.buckets)) {
		h.buckets = grow(h.buckets, int(i)+1)
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

// Merge folds the samples of o (same width and bucket count) into h.
// All fields are integer counters, so merging shard-local histograms in any
// order yields the exact same state as sequential accumulation.
func (h *Histogram) Merge(o *Histogram) {
	if h.width != o.width || h.n != o.n {
		panic(fmt.Sprintf("stats: merging mismatched histograms (width %d/%d, buckets %d/%d)",
			h.width, o.width, h.n, o.n))
	}
	if o.count == 0 {
		return
	}
	if len(o.buckets) > len(h.buckets) {
		h.buckets = grow(h.buckets, len(o.buckets))
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

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the arithmetic mean of the samples (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 if empty).
func (h *Histogram) Max() int64 { return h.max }

// Buckets returns a copy of all n bucket counts.
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, h.n)
	copy(out, h.buckets)
	return out
}

// HostBytes returns the bytes of bucket storage h holds.
func (h *Histogram) HostBytes() int { return 8 * cap(h.buckets) }

// Point is one (x, y) sample of a distribution curve.
type Point struct {
	X int64   // bucket upper bound (cycles)
	Y float64 // fraction
}

// PDF returns the probability density per bucket: fraction of samples whose
// value falls in each bucket, keyed by the bucket's upper bound.
func (h *Histogram) PDF() []Point {
	out := make([]Point, h.n)
	for i := range out {
		var f float64
		if h.count > 0 && i < len(h.buckets) {
			f = float64(h.buckets[i]) / float64(h.count)
		}
		out[i] = Point{X: int64(i+1) * h.width, Y: f}
	}
	return out
}

// CDF returns the cumulative distribution: for each bucket upper bound x,
// the fraction of samples <= x. The final point has Y == 1 for non-empty
// histograms.
func (h *Histogram) CDF() []Point {
	out := make([]Point, h.n)
	var cum int64
	for i := range out {
		if i < len(h.buckets) {
			cum += h.buckets[i]
		}
		var f float64
		if h.count > 0 {
			f = float64(cum) / float64(h.count)
		}
		out[i] = Point{X: int64(i+1) * h.width, Y: f}
	}
	return out
}

// Percentile returns the upper bound of the bucket containing the p-th
// percentile sample (p in (0, 100]). Returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	// Clamp p into the documented domain (0, 100]: p <= 0 resolves to the
	// smallest sample's bucket, p > 100 to the same bucket as p = 100
	// (instead of silently falling through to the max-bucket bound).
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
	return int64(h.n) * h.width
}

// FractionAbove returns the fraction of samples strictly greater than x,
// resolved at bucket granularity (samples in the bucket containing x are
// counted as above only if the whole bucket lies above x).
func (h *Histogram) FractionAbove(x int64) float64 {
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

// RunningMean is an incrementally-updated arithmetic mean.
// The zero value is an empty mean ready for use.
type RunningMean struct {
	n   int64
	sum float64
}

// Add records one sample.
func (r *RunningMean) Add(v float64) { r.n++; r.sum += v }

// N returns the number of samples recorded.
func (r *RunningMean) N() int64 { return r.n }

// Mean returns the current mean (0 if empty).
func (r *RunningMean) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Reset discards all samples.
func (r *RunningMean) Reset() { r.n, r.sum = 0, 0 }

// Merge folds the samples of o into r. The simulator only feeds RunningMean
// integer-valued samples well below 2^53, so the float64 sums are exact and
// the merge is order-independent.
func (r *RunningMean) Merge(o RunningMean) { r.n += o.n; r.sum += o.sum }
