package forkrun

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/sim"
	"nocmem/internal/snapshot"
	"nocmem/internal/trace"
)

// sweepFactors is the threshold grid of the prefix tests: widely spread, so
// every factor publishes thresholds of its own.
var sweepFactors = []float64{0.6, 0.9, 1.2, 1.6, 2.5}

// sweepConfig is a Baseline16 threshold-sweep point with Scheme-1 pushing
// every period cycles, Scheme-2 on or off, stepped by shards workers.
func sweepConfig(s2 bool, shards int, period int64) (config.Config, []trace.Profile) {
	cfg, apps := testConfig()
	cfg = cfg.WithSchemes(true, s2)
	cfg.Run.WarmupCycles, cfg.Run.MeasureCycles = 2_000, 4_000
	cfg.Run.Shards = shards
	cfg.S1.UpdatePeriod = period
	return cfg, apps
}

func withFactor(cfg config.Config, f float64) config.Config {
	cfg.S1.ThresholdFactor = f
	return cfg
}

// warmForks is the path the prefix replaces: every point restores the warm
// image at W and runs from there. It returns each point's Summary JSON and
// S1Thresholds.
func warmForks(t *testing.T, cfgs []config.Config, apps []trace.Profile) ([][]byte, [][]int64) {
	t.Helper()
	s, err := sim.New(canonical(cfgs[0]), apps)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(cfgs[0].Run.WarmupCycles)
	img, err := exactImage(s)
	if err != nil {
		t.Fatal(err)
	}
	var sums [][]byte
	var ths [][]int64
	for _, cfg := range cfgs {
		cfg.Run.ResumeFrom = cfg.Run.WarmupCycles
		r, err := sim.RestoreImage(cfg, apps, img)
		if err != nil {
			t.Fatal(err)
		}
		res := r.Run()
		sums = append(sums, summaryJSON(t, res))
		ths = append(ths, res.S1Thresholds)
	}
	return sums, ths
}

func summaryJSON(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestThresholdPrefixMatchesWarmFork is the prefix's exactness oracle: a
// Baseline16 factor grid under S1 and S1+S2, stepped sequentially and by two
// workers, with D inside the window and (UpdatePeriod at the window's length)
// at its end. The first point runs from the warm image, the second builds the
// prefix and runs on, the rest restore the prefix; every point's Summary JSON
// and S1Thresholds must equal its own run from the warm image.
func TestThresholdPrefixMatchesWarmFork(t *testing.T) {
	for _, tc := range []struct {
		name   string
		s2     bool
		shards int
		period int64
		atEnd  bool
	}{
		{"s1", false, 1, 1_000, false},
		{"s1s2", true, 1, 1_000, false},
		{"s1_2shards", false, 2, 1_000, false},
		{"s1s2_2shards", true, 2, 1_000, false},
		{"s1_no_push", false, 1, 6_000, true},
		{"s1s2_2shards_no_push", true, 2, 8_000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, apps := sweepConfig(tc.s2, tc.shards, tc.period)
			var grid []config.Config
			for _, f := range sweepFactors {
				grid = append(grid, withFactor(cfg, f))
			}
			wantSums, wantThs := warmForks(t, grid, apps)

			var c Cache
			for i, v := range grid {
				res, err := c.Run(v, apps)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(summaryJSON(t, res), wantSums[i]) {
					t.Errorf("point %d (factor %v): summary differs from its warm fork", i, sweepFactors[i])
				}
				if !reflect.DeepEqual(res.S1Thresholds, wantThs[i]) {
					t.Errorf("point %d (factor %v): thresholds %v, want %v", i, sweepFactors[i], res.S1Thresholds, wantThs[i])
				}
			}
			p := c.prefixes[Key(cfg, apps)]
			if p == nil || p.img == nil {
				t.Fatal("the grid built no prefix")
			}
			total := cfg.Run.WarmupCycles + cfg.Run.MeasureCycles
			if tc.atEnd && p.at != total {
				t.Errorf("prefix taken at %d, want the window's end %d", p.at, total)
			}
			if !tc.atEnd && (p.at <= cfg.Run.WarmupCycles || p.at >= total) {
				t.Errorf("prefix taken at %d, want inside (%d, %d)", p.at, cfg.Run.WarmupCycles, total)
			}
			// Only the first two points drew on the warm image.
			if st := c.Stats(); st.Warmups != 1 || st.MemHits != 1 || st.Forked != int64(len(grid)) {
				t.Errorf("stats %+v, want 1 warmup, 1 memory hit, %d forked", st, len(grid))
			}
			if !tc.atEnd && reflect.DeepEqual(wantThs[0], wantThs[len(wantThs)-1]) {
				t.Error("the grid's factors publish the same thresholds: the oracle cannot tell them apart")
			}
		})
	}
}

// TestPrefixBuiltOnRepeat pins the slot policy: points that alternate groups
// build no slot; a run of one group's points builds exactly one, on its
// second request; a request from another group drops it; and the warm images
// are all Snapshots counts.
func TestPrefixBuiltOnRepeat(t *testing.T) {
	s1, apps := sweepConfig(false, 1, 1_000)
	s12, _ := sweepConfig(true, 1, 1_000)
	key := Key(s1, apps)
	run := func(c *Cache, cfg config.Config) {
		t.Helper()
		if _, err := c.Run(cfg, apps); err != nil {
			t.Fatal(err)
		}
	}

	var alt Cache
	for i, f := range sweepFactors {
		cfg := s1
		if i%2 == 1 {
			cfg = s12
		}
		run(&alt, withFactor(cfg, f))
		if p := alt.prefixes[key]; p == nil || p.done != nil || p.group != group(cfg) {
			t.Fatalf("alternating point %d: slot %+v, want the group recorded and nothing built", i, p)
		}
	}
	if st := alt.Stats(); alt.Snapshots() != 1 || st.MemHits != int64(len(sweepFactors)-1) {
		t.Errorf("alternating groups: %d snapshots, %d memory hits, want 1 and %d", alt.Snapshots(), st.MemHits, len(sweepFactors)-1)
	}

	var c Cache
	var built *prefix
	for i, f := range sweepFactors {
		run(&c, withFactor(s1, f))
		p := c.prefixes[key]
		switch {
		case i == 0 && p.done != nil:
			t.Fatal("the group's first point built a slot")
		case i == 1:
			built = p
		}
		if i > 0 && (p != built || p.img == nil) {
			t.Fatalf("point %d: slot %p, want the one built by point 1 (%p)", i, p, built)
		}
	}
	if c.Snapshots() != 1 {
		t.Errorf("%d snapshots, want the 1 warm image", c.Snapshots())
	}
	run(&c, withFactor(s12, 1.2))
	if p := c.prefixes[key]; p.group != group(s12) || p.done != nil {
		t.Error("a request from another group kept the slot")
	}

	// The stepping layout and NoSteal do not split a group.
	sharded := s1
	sharded.Run.Shards, sharded.Run.NoSteal = 2, true
	if group(sharded) != group(withFactor(s1, 9)) || group(s1) == group(s12) {
		t.Error("group keys split a sweep or join two")
	}
}

// TestPrefixWaitersGetTheSameBytes: points of a group that ask while its
// slot is under construction wait for it and produce their own warm fork's
// bytes.
func TestPrefixWaitersGetTheSameBytes(t *testing.T) {
	cfg, apps := sweepConfig(true, 1, 1_000)
	var grid []config.Config
	for _, f := range sweepFactors {
		grid = append(grid, withFactor(cfg, f))
	}
	want, _ := warmForks(t, grid, apps)

	var c Cache
	key, g := Key(cfg, apps), group(cfg)
	if _, err := c.Run(grid[0], apps); err != nil {
		t.Fatal(err)
	}
	p, build := c.prefixFor(key, g)
	if !build {
		t.Fatal("the group's second request was not handed the build")
	}
	got := make([][]byte, len(grid))
	var wg sync.WaitGroup
	for i := 2; i < len(grid); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Run(grid[i], apps)
			if err != nil {
				t.Error(err)
				return
			}
			got[i], _ = json.Marshal(res.Summary())
		}()
	}
	// The build's restore and run to D outlast the waiters' start, so they
	// find the slot under construction; their bytes must not depend on it.
	res, err := c.buildPrefix(grid[1], apps, key, p)
	if err != nil {
		t.Fatal(err)
	}
	got[1] = summaryJSON(t, res)
	wg.Wait()
	for i := 1; i < len(grid); i++ {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("point %d: summary differs from its warm fork", i)
		}
	}
	if st := c.Stats(); st.MemHits != 1 {
		t.Errorf("%d memory hits, want 1: a waiter ran from the warm image", st.MemHits)
	}
}

// corruptStore serves one image that passes the header check but cannot
// restore, and records what the cache does with it.
type corruptStore struct {
	mu      sync.Mutex
	img     []byte
	deleted bool
	saved   int
}

func (s *corruptStore) LoadSnapshot(string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.img, s.img != nil
}

func (s *corruptStore) SaveSnapshot(_ string, img []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.img = img
	s.saved++
}

func (s *corruptStore) DeleteSnapshot(string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.img, s.deleted = nil, true
}

// TestPrefixBuildEvictsCorruptStoreImage: a build that is the first to draw
// on a poisoned store image evicts it, re-warms, and still publishes the
// prefix and its own exact result.
func TestPrefixBuildEvictsCorruptStoreImage(t *testing.T) {
	cfg, apps := sweepConfig(false, 1, 1_000)
	want, _ := warmForks(t, []config.Config{cfg}, apps)

	var img bytes.Buffer
	w := snapshot.NewWriter(&img)
	w.U64(0xdeadbeefdeadbeef)
	w.String("not a simulator state")
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	st := &corruptStore{img: img.Bytes()}
	var c Cache
	c.SetStore(st)
	key, g := Key(cfg, apps), group(cfg)
	c.prefixFor(key, g)
	p, build := c.prefixFor(key, g)
	if !build {
		t.Fatal("the group's second request was not handed the build")
	}
	res, err := c.buildPrefix(cfg, apps, key, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryJSON(t, res), want[0]) {
		t.Error("the build's result differs from its warm fork")
	}
	if s := c.Stats(); !st.deleted || st.saved != 1 || s.Evictions != 1 || s.Warmups != 1 || p.img == nil {
		t.Errorf("stats %+v, store deleted=%v saved=%d, prefix built=%v: want the image evicted, one re-warm saved, the prefix built",
			s, st.deleted, st.saved, p.img != nil)
	}
}
