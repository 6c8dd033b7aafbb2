package forkrun

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/trace"
)

// policyPoints is the policy cross product of one warm key: every point its
// own threshold group, so each forks from the warm image at W and no prefix
// is built.
func policyPoints() ([]config.Config, []trace.Profile) {
	cfg, apps := sweepConfig(false, 1, 1_000)
	cfg = cfg.WithSchemes(false, false)
	var grid []config.Config
	for _, s := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		grid = append(grid, cfg.WithSchemes(s[0], s[1]))
	}
	for _, sched := range []config.MemSched{config.FCFS, config.AppAwareMem} {
		v := cfg
		v.DRAM.Sched = sched
		grid = append(grid, v)
	}
	return grid, apps
}

// heldImages counts the warm keys whose image c keeps in memory.
func heldImages(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.snaps {
		if e.snap != nil {
			n++
		}
	}
	return n
}

// TestWarmImagesLeaveMemory: on a store-backed cache no entry keeps its warm
// image. The request that runs the warmup forks from the image it holds,
// every later fork from W loads the image from the store (a disk hit, no
// memory hit), and every point has its own warm fork's bytes. A cache
// without a store keeps the one image in memory and serves the same bytes.
func TestWarmImagesLeaveMemory(t *testing.T) {
	grid, apps := policyPoints()
	want, _ := warmForks(t, grid, apps)
	for _, tc := range []struct {
		name         string
		st           *memStore
		stats        Stats
		held, stored int
	}{
		{"store", newMemStore(), Stats{Warmups: 1, Forked: 6, DiskHits: 5}, 0, 1},
		{"no_store", nil, Stats{Warmups: 1, Forked: 6, MemHits: 5}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c Cache
			if tc.st != nil {
				c.SetStore(tc.st)
			}
			for i, cfg := range grid {
				res, err := c.Run(cfg, apps)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(summaryJSON(t, res), want[i]) {
					t.Errorf("point %d: summary differs from its warm fork", i)
				}
				if i == 0 && heldImages(&c) != tc.held {
					t.Errorf("after the warmup, %d images in memory, want %d", heldImages(&c), tc.held)
				}
			}
			if s := c.Stats(); s != tc.stats {
				t.Errorf("stats %+v, want %+v", s, tc.stats)
			}
			if c.Snapshots() != 1 || heldImages(&c) != tc.held || len(c.images.imgs) != 0 {
				t.Errorf("%d snapshots, %d warm and %d prefix images in memory, want 1, %d and 0",
					c.Snapshots(), heldImages(&c), len(c.images.imgs), tc.held)
			}
			if tc.st != nil && tc.st.saves != tc.stored {
				t.Errorf("%d store saves, want %d", tc.st.saves, tc.stored)
			}
		})
	}
}

// TestWarmImagesConcurrentFirstRequests: the points of one warm key asked for
// at once on a fresh cache run one warmup; the others wait for it and then
// load the image from a working store, or share the memory image of a store
// that loses saves. Every point gets its own warm fork's bytes. Passes
// -race -count=10.
func TestWarmImagesConcurrentFirstRequests(t *testing.T) {
	grid, apps := policyPoints()
	want, _ := warmForks(t, grid, apps)
	n := int64(len(grid))
	for _, tc := range []struct {
		name       string
		drop       bool
		mem, disk  int64
		heldImages int
	}{{"store", false, 0, n - 1, 0}, {"dropping_store", true, n - 1, 0, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			st := newMemStore()
			st.drop = tc.drop
			var c Cache
			c.SetStore(st)
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
					t.Errorf("point %d: summary differs from its warm fork", i)
				}
			}
			s := c.Stats()
			if s.Warmups != 1 || s.MemHits != tc.mem || s.DiskHits != tc.disk || s.Forked != n {
				t.Errorf("stats %+v, want 1 warmup, %d memory hits, %d disk hits", s, tc.mem, tc.disk)
			}
			if heldImages(&c) != tc.heldImages || c.Snapshots() != 1 || st.saves != 1 || len(st.deleted) != 0 {
				t.Errorf("%d images in memory, %d snapshots, %d saves, deleted %q", heldImages(&c), c.Snapshots(), st.saves, st.deleted)
			}
		})
	}
}

// TestWarmImageLostFromStoreRewarms: a store that gives a warm image back
// once and then loses it costs the next request a warmup, not an error, and
// that warmup's image is kept in the store again.
func TestWarmImageLostFromStoreRewarms(t *testing.T) {
	grid, apps := policyPoints()
	want, _ := warmForks(t, grid[:3], apps)
	st := newMemStore()
	var c Cache
	c.SetStore(st)
	for i, cfg := range grid[:3] {
		if i == 1 {
			st.mu.Lock()
			clear(st.imgs)
			st.mu.Unlock()
		}
		res, err := c.Run(cfg, apps)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(summaryJSON(t, res), want[i]) {
			t.Errorf("point %d: summary differs from its warm fork", i)
		}
	}
	if s := c.Stats(); s != (Stats{Warmups: 2, Forked: 3, DiskHits: 1}) || heldImages(&c) != 0 || c.Snapshots() != 1 {
		t.Errorf("stats %+v, %d images in memory, %d snapshots: want 2 warmups, 1 disk hit, none held", s, heldImages(&c), c.Snapshots())
	}
}
