package forkrun

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
	img, err := exactImage(s, nil)
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
			img, ok := c.images.LoadSnapshot(prefixKey(Key(cfg, apps), group(cfg)))
			if !ok || len(img) <= 8 {
				t.Fatal("the grid built no prefix")
			}
			at := int64(binary.LittleEndian.Uint64(img))
			total := cfg.Run.WarmupCycles + cfg.Run.MeasureCycles
			if tc.atEnd && at != total {
				t.Errorf("prefix taken at %d, want the window's end %d", at, total)
			}
			if !tc.atEnd && (at <= cfg.Run.WarmupCycles || at >= total) {
				t.Errorf("prefix taken at %d, want inside (%d, %d)", at, cfg.Run.WarmupCycles, total)
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

// TestPrefixBuiltOnRepeat pins the prefix policy on a cache without a store:
// each group builds its image on its own second request, however the groups
// interleave, and forks at D from then on; a group seen once builds nothing;
// the warm image is all Snapshots counts; and an image that fails to restore
// is evicted and rebuilt.
func TestPrefixBuiltOnRepeat(t *testing.T) {
	s1, apps := sweepConfig(false, 1, 1_000)
	s12, _ := sweepConfig(true, 1, 1_000)
	once, _ := sweepConfig(false, 1, 2_000)
	key := Key(s1, apps)
	var c Cache
	state := func(cfg config.Config) prefixState {
		return c.groups[sha256.Sum256([]byte(prefixKey(key, group(cfg))))]
	}
	for i, step := range []struct {
		cfg           config.Config
		builds, forks int64
		want          prefixState
	}{
		{s1, 0, 0, prefixSeen},
		{s12, 0, 0, prefixSeen},
		{s1, 1, 0, prefixBuilt},
		{once, 1, 0, prefixSeen},
		{s12, 2, 0, prefixBuilt},
		{s1, 2, 1, prefixBuilt},
		{s12, 2, 2, prefixBuilt},
	} {
		if _, err := c.Run(withFactor(step.cfg, sweepFactors[i%len(sweepFactors)]), apps); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.PrefixBuilds != step.builds || st.PrefixForks != step.forks || state(step.cfg) != step.want {
			t.Fatalf("point %d: %d builds, %d prefix forks, group state %d, want %d, %d and %d",
				i, st.PrefixBuilds, st.PrefixForks, state(step.cfg), step.builds, step.forks, step.want)
		}
	}
	if _, ok := c.images.LoadSnapshot(prefixKey(key, group(once))); ok || len(c.images.imgs) != 2 {
		t.Errorf("%d prefix images, want one for each group seen twice", len(c.images.imgs))
	}
	if st := c.Stats(); c.Snapshots() != 1 || st.Warmups != 1 {
		t.Errorf("%d snapshots, %d warmups, want the 1 warm image", c.Snapshots(), st.Warmups)
	}

	// An image that fails to restore is deleted, and its group's next
	// request rebuilds it.
	pk := prefixKey(key, group(s1))
	c.images.imgs[pk] = c.images.imgs[pk][:len(c.images.imgs[pk])/2]
	for i, want := range []prefixState{prefixSeen, prefixBuilt} {
		if _, err := c.Run(withFactor(s1, sweepFactors[i]), apps); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Evictions != 1 || st.PrefixBuilds != 2+int64(i) || state(s1) != want {
			t.Fatalf("after the bad image, point %d: stats %+v, group state %d, want 1 eviction, %d builds, state %d",
				i, st, state(s1), 2+i, want)
		}
	}

	// The stepping layout and NoSteal do not split a group.
	sharded := s1
	sharded.Run.Shards, sharded.Run.NoSteal = 2, true
	if group(sharded) != group(withFactor(s1, 9)) || group(s1) == group(s12) {
		t.Error("group keys split a sweep or join two")
	}
}

// memStore is a SnapshotStore in memory. With drop set it loses every save;
// with cut set it hands out every prefix image truncated to half its length,
// with cutWarm every warm image; with flipWarm it hands out every warm image
// with one byte past its header flipped.
type memStore struct {
	mu                sync.Mutex
	imgs              map[string][]byte
	drop, cut         bool
	cutWarm, flipWarm bool
	saves             int
	deleted           []string
}

func newMemStore() *memStore { return &memStore{imgs: make(map[string][]byte)} }

func (s *memStore) LoadSnapshot(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img, ok := s.imgs[key]
	prefix := strings.Contains(key, "|prefix ")
	switch {
	case ok && (prefix && s.cut || !prefix && s.cutWarm):
		img = img[:len(img)/2]
	case ok && !prefix && s.flipWarm:
		img = slices.Clone(img)
		img[len(img)/2] ^= 1
	}
	return img, ok
}

func (s *memStore) SaveSnapshot(key string, img []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves++
	if !s.drop {
		s.imgs[key] = img
	}
}

func (s *memStore) DeleteSnapshot(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.imgs, key)
	s.deleted = append(s.deleted, key)
}

// TestPrefixBuildEvictsCorruptStoreImage: a build that is the first to draw
// on a poisoned store image evicts it, re-warms, saves the prefix image and
// still returns its own exact result; the group's next point forks from that
// image with its own exact bytes.
func TestPrefixBuildEvictsCorruptStoreImage(t *testing.T) {
	cfg, apps := sweepConfig(false, 1, 1_000)
	grid := []config.Config{withFactor(cfg, 0.9), withFactor(cfg, 1.6)}
	want, _ := warmForks(t, grid, apps)

	var img bytes.Buffer
	w := snapshot.NewWriter(&img)
	w.U64(0xdeadbeefdeadbeef)
	w.String("not a simulator state")
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	key := Key(cfg, apps)
	st := newMemStore()
	st.imgs[key] = img.Bytes()
	var c Cache
	c.SetStore(st)
	pk := prefixKey(key, group(cfg))
	id := sha256.Sum256([]byte(pk))
	// As if the group's first point had run before the warm image went bad:
	// this request is the group's second, the build.
	c.groups = map[[sha256.Size]byte]prefixState{id: prefixBuilding}
	res, err := c.makePrefix(grid[0], apps, key, pk, id, st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryJSON(t, res), want[0]) {
		t.Error("the build's result differs from its warm fork")
	}
	s := c.Stats()
	if !slices.Equal(st.deleted, []string{key}) || st.saves != 2 || st.imgs[pk] == nil || c.groups[id] != prefixBuilt ||
		s.Evictions != 1 || s.Warmups != 1 || s.PrefixBuilds != 1 {
		t.Errorf("stats %+v, store deleted %d keys, %d saves, prefix saved=%v: want the warm image evicted, one re-warm and the prefix saved",
			s, len(st.deleted), st.saves, st.imgs[pk] != nil)
	}
	res, err = c.Run(grid[1], apps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(summaryJSON(t, res), want[1]) {
		t.Error("the point forked from the saved prefix differs from its warm fork")
	}
	if s := c.Stats(); s.PrefixForks != 1 {
		t.Errorf("stats %+v, want the second point forked from the stored prefix", s)
	}
}

// storeGrid is a shuffled Baseline16 policy grid, 2 placements x 3 history
// windows x 3 factors: 6 prefix groups of 3 points under 2 warm keys. It
// returns each point's configuration and placement.
func storeGrid() ([]config.Config, [][]trace.Profile) {
	cfg, mcf := sweepConfig(true, 1, 1_000)
	lbm := slices.Clone(mcf)
	for i := range 6 {
		lbm[i] = trace.MustLookup("lbm")
	}
	var cfgs []config.Config
	var apps [][]trace.Profile
	for _, placement := range [][]trace.Profile{mcf, lbm} {
		for _, window := range []int64{1_000, 2_000, 4_000} {
			for _, f := range sweepFactors[:3] {
				v := withFactor(cfg, f)
				v.S2.HistoryWindow = window
				cfgs = append(cfgs, v)
				apps = append(apps, placement)
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(cfgs), func(i, j int) {
		cfgs[i], cfgs[j] = cfgs[j], cfgs[i]
		apps[i], apps[j] = apps[j], apps[i]
	})
	return cfgs, apps
}

// storeGridWant is every storeGrid point's own warm fork: its Summary JSON
// and S1Thresholds.
func storeGridWant(t *testing.T, cfgs []config.Config, apps [][]trace.Profile) ([][]byte, [][]int64) {
	t.Helper()
	sums, ths := make([][]byte, len(cfgs)), make([][]int64, len(cfgs))
	byPlacement := make(map[string][]int)
	for i := range cfgs {
		byPlacement[apps[i][0].Name] = append(byPlacement[apps[i][0].Name], i)
	}
	for _, idx := range byPlacement {
		var grid []config.Config
		for _, i := range idx {
			grid = append(grid, cfgs[i])
		}
		s, th := warmForks(t, grid, apps[idx[0]])
		for k, i := range idx {
			sums[i], ths[i] = s[k], th[k]
		}
	}
	return sums, ths
}

// runGrid runs every point of cfgs on c and requires its own warm fork's
// Summary JSON and S1Thresholds.
func runGrid(t *testing.T, c *Cache, cfgs []config.Config, apps [][]trace.Profile, sums [][]byte, ths [][]int64) {
	t.Helper()
	for i, cfg := range cfgs {
		res, err := c.Run(cfg, apps[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(summaryJSON(t, res), sums[i]) {
			t.Errorf("point %d (factor %v, window %d): summary differs from its warm fork", i, cfg.S1.ThresholdFactor, cfg.S2.HistoryWindow)
		}
		if !reflect.DeepEqual(res.S1Thresholds, ths[i]) {
			t.Errorf("point %d: thresholds %v, want %v", i, res.S1Thresholds, ths[i])
		}
	}
}

// TestPrefixStoredGridMatchesWarmFork is the store-backed prefix's exactness
// and policy oracle: on a shuffled grid, where no group's second point
// follows its first, every group is built once, on its second request, and
// its third forks from the stored image; every point has its own warm fork's bytes. A
// fresh cache on the same store then forks a seen group's next point from
// the stored image: no build, no warmup.
func TestPrefixStoredGridMatchesWarmFork(t *testing.T) {
	cfgs, apps := storeGrid()
	sums, ths := storeGridWant(t, cfgs, apps)
	st := newMemStore()
	var c Cache
	c.SetStore(st)
	runGrid(t, &c, cfgs, apps, sums, ths)
	// The 10 forks from W after each warm key's warmup load its image.
	want := Stats{Warmups: 2, Forked: 18, DiskHits: 10, PrefixBuilds: 6, PrefixForks: 6}
	if s := c.Stats(); s != want {
		t.Errorf("stats %+v, want %+v", s, want)
	}
	if c.Snapshots() != 2 || len(st.imgs) != 2+6 {
		t.Errorf("%d warm snapshots, %d store images, want 2 and 2 warm + 6 prefix", c.Snapshots(), len(st.imgs))
	}

	next := withFactor(cfgs[0], 2.5)
	s, th := warmForks(t, []config.Config{next}, apps[0])
	var fresh Cache
	fresh.SetStore(st)
	runGrid(t, &fresh, []config.Config{next}, apps[:1], s, th)
	want = Stats{Forked: 1, PrefixForks: 1}
	if s := fresh.Stats(); s != want {
		t.Errorf("a restarted cache's next point of a seen group: stats %+v, want %+v", s, want)
	}
}

// TestPrefixStoredBadImages: a store that loses every save, one that hands
// out truncated prefix images, one that truncates every image, warm ones too,
// and one that flips a byte of every warm image still give every point its
// own warm fork's bytes. Each bad prefix image is evicted once, when the
// group's third point asks for it, and that point runs from the warm image.
// A bad warm image costs one warmup per warm key, not one per request: the
// read-back after the warmup finds it damaged, so the key keeps its image in
// memory; a good one is loaded from the store by every later fork from W.
func TestPrefixStoredBadImages(t *testing.T) {
	cfgs, apps := storeGrid()
	sums, ths := storeGridWant(t, cfgs, apps)
	lost := Stats{Warmups: 2, Forked: 18, MemHits: 16, Evictions: 6, PrefixBuilds: 6}
	for _, tc := range []struct {
		name string
		bad  func(*memStore)
		want Stats
		held int // warm images kept in memory
	}{
		{"drops_saves", func(s *memStore) { s.drop = true }, lost, 2},
		{"truncates_prefixes", func(s *memStore) { s.cut = true },
			Stats{Warmups: 2, Forked: 18, DiskHits: 16, Evictions: 6, PrefixBuilds: 6}, 0},
		{"truncates_all", func(s *memStore) { s.cut, s.cutWarm = true, true }, lost, 2},
		{"flips_warm", func(s *memStore) { s.flipWarm = true },
			Stats{Warmups: 2, Forked: 18, MemHits: 10, PrefixBuilds: 6, PrefixForks: 6}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newMemStore()
			tc.bad(st)
			var c Cache
			c.SetStore(st)
			runGrid(t, &c, cfgs, apps, sums, ths)
			if s := c.Stats(); s != tc.want {
				t.Errorf("stats %+v, want %+v", s, tc.want)
			}
			if len(st.deleted) != int(tc.want.Evictions) {
				t.Errorf("%d store deletes, want one per bad prefix image", len(st.deleted))
			}
			if c.Snapshots() != 2 || heldImages(&c) != tc.held {
				t.Errorf("%d snapshots, %d warm images in memory, want 2 and %d", c.Snapshots(), heldImages(&c), tc.held)
			}
		})
	}
}

// TestPrefixStoredConcurrentPoints: points of one group asked for at once, on
// a cache without a store and on a store-backed one, however their requests
// interleave with the build, get their own warm fork's bytes, and at most one
// image per build reaches the store.
func TestPrefixStoredConcurrentPoints(t *testing.T) {
	cfg, apps := sweepConfig(true, 1, 1_000)
	var grid []config.Config
	for _, f := range sweepFactors {
		grid = append(grid, withFactor(cfg, f))
	}
	want, _ := warmForks(t, grid, apps)
	for _, tc := range []struct {
		name string
		st   *memStore
	}{{"no_store", nil}, {"store", newMemStore()}} {
		t.Run(tc.name, func(t *testing.T) {
			var c Cache
			if tc.st != nil {
				c.SetStore(tc.st)
			}
			for round := range 2 { // the second round finds the image built
				got := make([][]byte, len(grid))
				var wg sync.WaitGroup
				for i := range grid {
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
				wg.Wait()
				for i := range grid {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("round %d, point %d: summary differs from its warm fork", round, i)
					}
				}
			}
			s := c.Stats()
			saves := len(c.images.imgs)
			if tc.st != nil {
				saves = tc.st.saves - 1 // the warm image
			}
			if s.PrefixBuilds < 1 || s.Evictions != 0 || saves != int(s.PrefixBuilds) {
				t.Errorf("stats %+v, %d prefix saves: want a build, no eviction, one save per image", s, saves)
			}
		})
	}
}
