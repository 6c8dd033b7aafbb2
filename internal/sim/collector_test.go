package sim

import (
	"runtime"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/workload"
)

// collectorBuckets sums the bucket and range storage c's histograms and
// breakdowns hold.
func collectorBuckets(c *Collector) int {
	var n int
	for i := range c.RoundTrip {
		n += c.RoundTrip[i].HostBytes() + c.SoFar[i].HostBytes() + c.Breakdown[i].HostBytes()
	}
	return n
}

// TestCollectorHostBytes: a collector costs what it holds. A fresh 32x32
// collector allocates per-tile headers and no buckets (11.7 MB when every
// histogram and breakdown was allocated at full size), and a finished
// Baseline32 workload-7 run keeps only the buckets its latencies reached.
func TestCollectorHostBytes(t *testing.T) {
	// Measured: 323 520 bytes (316 per tile) on linux/amd64; 1.5x headroom.
	const builtBound = 480 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := newCollector(1024)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	built := after.TotalAlloc - before.TotalAlloc
	t.Logf("newCollector(1024) allocates %d bytes (%.1f per tile)", built, float64(built)/1024)
	if built > builtBound {
		t.Errorf("newCollector(1024) allocates %d bytes, want <= %d", built, builtBound)
	}
	if b := collectorBuckets(c); b != 0 {
		t.Errorf("a fresh collector holds %d bucket bytes, want 0", b)
	}

	w, err := workload.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	apps, err := w.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline32()
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = 2_000, 10_000
	s, err := New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run()
	// Measured: 36 816 bytes (1 150 per tile), against 384 000 at full size;
	// 1.5x headroom.
	const heldBound = 54 << 10
	held := collectorBuckets(r.Collector)
	t.Logf("Baseline32 workload 7 result holds %d bucket bytes (%.0f per tile)", held, float64(held)/32)
	if held > heldBound {
		t.Errorf("Baseline32 workload 7 result holds %d bucket bytes, want <= %d", held, heldBound)
	}
}
