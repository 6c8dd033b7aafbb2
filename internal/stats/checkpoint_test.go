package stats

import (
	"errors"
	"strings"
	"testing"

	"nocmem/internal/snapshot"
)

// TestDecodeRejects restores each accumulator's image into one of another
// shape, or breaks one field of it: the encoder writes what it finds, and the
// decoder must refuse the image with a snapshot.ErrFormat that names the
// field.
func TestDecodeRejects(t *testing.T) {
	hist := func() *Histogram {
		h := NewHistogram(25, 400)
		for _, v := range []int64{10, 300, 7000} {
			h.Add(v)
		}
		return h
	}
	breakdown := func() *Breakdown {
		b := NewBreakdown(100, 100)
		b.Add([NumLegs]int64{100, 50, 300, 20, 80})
		return b
	}
	series := func() *Series {
		s := NewSeries(1000)
		s.Add(500, 0.5)
		s.Add(2500, 0.25)
		return s
	}
	for _, tc := range []struct {
		name string
		src  codec
		dst  codec
		want string
	}{
		{"histogram_width", hist(), NewHistogram(50, 400), "histogram shape mismatch"},
		{"histogram_buckets", hist(), NewHistogram(25, 200), "histogram shape mismatch"},
		{"histogram_bucket", func() codec { h := hist(); h.buckets[0] = -1; return h }(), NewHistogram(25, 400), "negative histogram bucket"},
		{"histogram_count", func() codec { h := hist(); h.count = -1; return h }(), NewHistogram(25, 400), "negative histogram count"},
		{"running_mean_count", &RunningMean{n: -1}, &RunningMean{}, "negative running-mean count"},
		{"breakdown_width", breakdown(), NewBreakdown(50, 100), "breakdown shape mismatch"},
		{"breakdown_ranges", breakdown(), NewBreakdown(100, 50), "breakdown shape mismatch"},
		{"series_interval", series(), NewSeries(500), "series interval mismatch"},
		{"series_arrays", func() codec { s := series(); s.sums = append(s.sums, 1); return s }(), NewSeries(1000), "series arrays disagree"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rd, err := snapshot.NewReaderBytes(encodeBytes(t, encoderOf(tc.src)))
			if err != nil {
				t.Fatal(err)
			}
			tc.dst.Walk(snapshot.DecodeFrom(rd))
			if err := rd.Err(); !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode returned %v, want an ErrFormat mentioning %q", err, tc.want)
			}
		})
	}
}
