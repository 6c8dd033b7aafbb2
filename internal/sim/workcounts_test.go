package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"nocmem/internal/cache"
	"nocmem/internal/config"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// workWindows are the three shapes the repository benchmark times, on short
// windows: the saturated paper machine (sat32), the mostly idle 16x16 mesh
// with bursty sources and slow routers (bursty256), and the 16x16 mesh with
// mcf on every other tile stepped by two workers (par256).
func workWindows(t *testing.T) []struct {
	name string
	cfg  config.Config
	apps []trace.Profile
	srcs func() []trace.AppSource
} {
	sat := config.Baseline32().WithSchemes(true, true)
	sat.Run.WarmupCycles, sat.Run.MeasureCycles = 2_000, 8_000
	w7, err := workload.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	satApps, err := w7.Profiles()
	if err != nil {
		t.Fatal(err)
	}

	bursty := config.Baseline32()
	bursty.Mesh.Width, bursty.Mesh.Height = 16, 16
	bursty.NoC.ClockDivisors = map[int]int{70: 2, 133: 2, 199: 4}
	bursty.Run.WarmupCycles, bursty.Run.MeasureCycles = 2_000, 10_000
	var tiles []int
	for i := 3; i < bursty.Mesh.Nodes(); i += 7 {
		tiles = append(tiles, i)
	}
	const gap = 8_000
	phase := rand.New(rand.NewSource(1)).Perm(gap)
	burstyApps, burstySrcs := burstWorkload(bursty, tiles, func(j int) burstSource {
		return burstSource{burst: 200, gap: gap, storeEvery: 5, gapLeft: 1 + phase[j], addr: uint64(j+1) << 28, stride: 64}
	})

	par := config.Baseline32()
	par.Mesh.Width, par.Mesh.Height = 16, 16
	par.Run.Shards = 2
	par.Run.WarmupCycles, par.Run.MeasureCycles = 1_000, 3_000
	parApps := make([]trace.Profile, par.Mesh.Nodes())
	for i := 0; i < len(parApps); i += 2 {
		parApps[i] = trace.MustLookup("mcf")
	}

	return []struct {
		name string
		cfg  config.Config
		apps []trace.Profile
		srcs func() []trace.AppSource
	}{
		{"sat32", sat, satApps, nil},
		{"bursty256", bursty, burstyApps, burstySrcs},
		{"par256", par, parApps, nil},
	}
}

// TestWorkCountersGolden pins, beside every timed shape of the repository
// benchmark, the exact work the simulator does on it: executed cycles, per
// router tick calls, executions and credit-only elisions, DRAM ticks and
// fast-forwards, the resource-blocked elisions, the summed cache counters and
// the summary's digest. A change that only makes the host faster leaves every
// line of testdata/workcounts.txt alone; one that loses a wake, a credit or a
// tag moves some line even where the summary happens to agree. Regenerate only
// in a change that means to alter simulated work:
//
//	go test ./internal/sim -run TestWorkCountersGolden -update
func TestWorkCountersGolden(t *testing.T) {
	var out bytes.Buffer
	for _, w := range workWindows(t) {
		var s *Simulator
		var err error
		if w.srcs != nil {
			s, err = NewFromSources(w.cfg, w.srcs(), w.apps)
		} else {
			s, err = New(w.cfg, w.apps)
		}
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		var j bytes.Buffer
		if err := res.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		var l1, l2 cache.Stats
		for i := range res.L1 {
			l1 = addCacheStats(l1, res.L1[i])
			l2 = addCacheStats(l2, res.L2[i])
		}
		ticks, ff := s.DebugDRAMTicks()
		b := s.DebugBlockedStats()
		fmt.Fprintf(&out, "== %s %dx%d, %d+%d cycles, %d shards\n", w.name, w.cfg.Mesh.Width, w.cfg.Mesh.Height,
			w.cfg.Run.WarmupCycles, w.cfg.Run.MeasureCycles, max(w.cfg.Run.Shards, 1))
		fmt.Fprintf(&out, "summary_sha256 %x\n", sha256.Sum256(j.Bytes()))
		fmt.Fprintf(&out, "ticked_cycles %d\n", s.DebugTickedCycles())
		fmt.Fprintf(&out, "dram_ticks %d fast_forwarded %d\n", ticks, ff)
		fmt.Fprintf(&out, "blocked core_stalls %d l2_retry_polls %d credit_wakes %d\n",
			b.CoreStallCycles, b.L2RetryPolls, b.CreditWakes)
		fmt.Fprintf(&out, "l1 %+v\nl2 %+v\n", l1, l2)
		for id := 0; id < w.cfg.Mesh.Nodes(); id++ {
			calls, execs, elided := s.net.DebugRouterTicks(id)
			fmt.Fprintf(&out, "router %d calls %d execs %d elided %d\n", id, calls, execs, elided)
		}
	}
	path := filepath.Join("testdata", "workcounts.txt")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wl := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(wl); i++ {
			if !bytes.Equal(got[i], wl[i]) {
				t.Fatalf("%s line %d:\nwant %s\ngot  %s", path, i+1, wl[i], got[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(got), len(wl))
	}
}

func addCacheStats(a, b cache.Stats) cache.Stats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Fills += b.Fills
	a.Evictions += b.Evictions
	a.Writebacks += b.Writebacks
	return a
}
