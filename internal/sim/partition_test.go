package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"nocmem/internal/config"
)

// checkPartition validates the structural invariants every caller relies on:
// exactly k strictly-increasing exclusive ends covering [0, n), i.e. k
// non-empty contiguous ranges.
func checkPartition(t *testing.T, costs []int64, k int, ends []int) {
	t.Helper()
	if len(ends) != k {
		t.Fatalf("linearPartition(%v, %d) returned %d ranges: %v", costs, k, len(ends), ends)
	}
	prev := 0
	for i, end := range ends {
		if end <= prev {
			t.Fatalf("linearPartition(%v, %d): range %d is empty or decreasing: %v", costs, k, i, ends)
		}
		prev = end
	}
	if prev != len(costs) {
		t.Fatalf("linearPartition(%v, %d) covers [0,%d), want [0,%d)", costs, k, prev, len(costs))
	}
}

// maxRangeSum returns the largest per-range cost sum of a partition.
func maxRangeSum(costs []int64, ends []int) int64 {
	var max, sum int64
	start := 0
	for _, end := range ends {
		sum = 0
		for _, c := range costs[start:end] {
			sum += c
		}
		if sum > max {
			max = sum
		}
		start = end
	}
	return max
}

func TestLinearPartition(t *testing.T) {
	cases := []struct {
		name    string
		costs   []int64
		k       int
		want    []int // nil = only check invariants + optimality bound
		wantMax int64 // 0 = skip the max-sum check
	}{
		{"single range", []int64{3, 1, 4}, 1, []int{3}, 8},
		{"uniform even split", []int64{1, 1, 1, 1, 1, 1, 1, 1}, 4, []int{2, 4, 6, 8}, 2},
		{"k equals n", []int64{5, 2, 9}, 3, []int{1, 2, 3}, 9},
		{"k clamped to n", []int64{5, 2}, 7, []int{1, 2}, 5},
		{"hotspot head", []int64{100, 1, 1, 1, 1, 1, 1, 1}, 4, nil, 100},
		{"hotspot tail", []int64{1, 1, 1, 1, 1, 1, 1, 100}, 4, nil, 100},
		{"two hotspots", []int64{50, 1, 1, 1, 1, 1, 1, 50}, 2, []int{4, 8}, 54},
		{"zeros between spikes", []int64{0, 0, 10, 0, 0, 10, 0, 0}, 4, nil, 10},
		{"all zeros", []int64{0, 0, 0, 0}, 3, nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := linearPartition(tc.costs, tc.k)
			k := tc.k
			if k > len(tc.costs) {
				k = len(tc.costs)
			}
			checkPartition(t, tc.costs, k, got)
			if tc.want != nil {
				for i := range tc.want {
					if got[i] != tc.want[i] {
						t.Fatalf("linearPartition(%v, %d) = %v, want %v", tc.costs, tc.k, got, tc.want)
					}
				}
			}
			if tc.wantMax > 0 {
				if m := maxRangeSum(tc.costs, got); m > tc.wantMax {
					t.Fatalf("max range sum %d exceeds optimum %d: %v", m, tc.wantMax, got)
				}
			}
		})
	}
}

// TestLinearPartitionRandomized checks, over random cost vectors, that the
// result is (a) structurally valid, (b) deterministic, and (c) never worse
// than the trivial even-width split it replaced — the minimum bar for a
// balancer to be worth running.
func TestLinearPartitionRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		k := 1 + rng.Intn(8)
		if k > n {
			k = n
		}
		costs := make([]int64, n)
		for i := range costs {
			// Heavy-tailed: most tiles near-idle, a few hot.
			if rng.Intn(4) == 0 {
				costs[i] = int64(rng.Intn(1000))
			} else {
				costs[i] = int64(rng.Intn(3))
			}
		}
		got := linearPartition(costs, k)
		checkPartition(t, costs, k, got)

		again := linearPartition(costs, k)
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("non-deterministic: %v then %v for %v k=%d", got, again, costs, k)
			}
		}

		even := make([]int, k)
		for i := 0; i < k; i++ {
			even[i] = (n*(i+1) + k - 1) / k
		}
		// Even-width ends can repeat when k is close to n; dedup forward to
		// keep the comparison partition valid.
		for i := 1; i < k; i++ {
			if even[i] <= even[i-1] {
				even[i] = even[i-1] + 1
			}
		}
		if gm, em := maxRangeSum(costs, got), maxRangeSum(costs, even); gm > em {
			t.Fatalf("balanced split (max %d) worse than even split (max %d) for %v k=%d: %v",
				gm, em, costs, k, got)
		}
	}
}

// TestOneChunkPerWorker pins the stepping layout: Run.Shards workers step
// exactly Run.Shards chunks, each a non-empty ascending run of consecutive
// tiles, together covering the mesh in order, with every memory controller
// stepped by the chunk that owns its tile. The ignored Run.NoSteal changes
// nothing.
func TestOneChunkPerWorker(t *testing.T) {
	layout := func(cfg config.Config) [][]int {
		t.Helper()
		s, err := New(cfg, fillApps(cfg, "mcf", cfg.Mesh.Nodes()/2))
		if err != nil {
			t.Fatal(err)
		}
		if len(s.shards) != max(cfg.Run.Shards, 1) {
			t.Fatalf("%d workers on %d tiles: %d chunks", cfg.Run.Shards, cfg.Mesh.Nodes(), len(s.shards))
		}
		var chunks [][]int
		next := 0
		for si, sh := range s.shards {
			if sh.id != si || len(sh.nodes) == 0 {
				t.Fatalf("%d workers: chunk %d has id %d and %d tiles", cfg.Run.Shards, si, sh.id, len(sh.nodes))
			}
			var tiles []int
			for _, n := range sh.nodes {
				if n.id != next || n.sh != sh {
					t.Fatalf("%d workers: chunk %d holds tile %d where tile %d was due", cfg.Run.Shards, si, n.id, next)
				}
				tiles = append(tiles, n.id)
				next++
			}
			chunks = append(chunks, tiles)
			for _, mc := range sh.mcs {
				if mc.sh != sh {
					t.Fatalf("%d workers: controller %d listed by chunk %d but stepped by chunk %d", cfg.Run.Shards, mc.idx, si, mc.sh.id)
				}
			}
		}
		if next != len(s.nodes) {
			t.Fatalf("%d workers: chunks cover %d of %d tiles", cfg.Run.Shards, next, len(s.nodes))
		}
		for _, mc := range s.mcs {
			if mc.sh != s.nodes[mc.tile].sh {
				t.Fatalf("%d workers: controller %d on tile %d is in chunk %d, its tile in chunk %d",
					cfg.Run.Shards, mc.idx, mc.tile, mc.sh.id, s.nodes[mc.tile].sh.id)
			}
		}
		return chunks
	}
	for _, base := range []config.Config{config.Baseline16(), config.Baseline32()} {
		for workers := 1; workers <= 8; workers++ {
			cfg := base
			cfg.Run.Shards = workers
			want := layout(cfg)
			cfg.Run.NoSteal = true
			if got := layout(cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d workers on %d tiles: NoSteal moved the layout from %v to %v", workers, cfg.Mesh.Nodes(), want, got)
			}
		}
	}
}
