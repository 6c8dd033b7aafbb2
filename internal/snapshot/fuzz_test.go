// Fuzzing lives in an external test package so it can drive the real
// consumer of this format — sim.Restore — without an import cycle: the sim
// package imports snapshot, so the fuzz harness for the format exercises
// the full decode path from here.
package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/sim"
	"nocmem/internal/trace"
)

// fuzzConfig mirrors goldenConfig in internal/sim/checkpoint_test.go — the
// configuration the checked-in golden checkpoint was taken under. Keep the
// two in sync, or the seed corpus entry degenerates into an instant header
// rejection and the fuzzer never reaches the interesting decode paths.
func fuzzConfig() (config.Config, []trace.Profile) {
	cfg := config.Baseline16()
	cfg.L1.SizeBytes = 8 << 10
	cfg.L2.SizeBytes = 64 << 10
	cfg.Run.WarmupCycles = 3_000
	cfg.Run.MeasureCycles = 4_000
	cfg.Run.CheckpointAt = 3_000
	apps := make([]trace.Profile, cfg.Mesh.Nodes())
	p := trace.MustLookup("milc")
	for _, tile := range []int{0, 3, 9, 14} {
		apps[tile] = p
	}
	return cfg, apps
}

// FuzzRestore feeds arbitrary bytes — seeded with the real golden
// checkpoint, so mutations explore the deep decode paths — into
// sim.Restore. The contract under fuzzing: corrupted, truncated or
// adversarial input must come back as an error. It must never panic, hang,
// or hand back a silently half-restored simulator: on a nil error the
// restored instance is stepped to prove it is actually runnable.
func FuzzRestore(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "golden.snap"))
	if err != nil {
		f.Fatalf("reading seed corpus: %v (regenerate with: go test ./internal/sim -run TestCheckpointGolden -update)", err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/3])
	// The cache columns are decoded from one view of the image each: seed the
	// three ways that can go wrong (the rows of sim's TestRestoreErrors).
	cfg, apps := fuzzConfig()
	lo, hi := firstL2Array(f, golden, cfg)
	wideClock := bytes.Clone(golden)
	binary.LittleEndian.PutUint64(wideClock[lo-16:], 1<<16)
	f.Add(wideClock)
	// A dirty column of all ones is a well-formed image (the way count is a
	// multiple of 64, so no bit lies past the last way) that marks invalid
	// ways dirty too: the restored machine must still run.
	allDirty := bytes.Clone(golden)
	for i := hi - 8*((cfg.L2.Sets()*cfg.L2.Ways+63)/64); i < hi; i++ {
		allDirty[i] = 0xff
	}
	f.Add(allDirty)
	f.Add(golden[:(lo+hi)/2])
	f.Add(golden[:hi-1])
	f.Add([]byte("NOCSNAP1\x01\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := sim.Restore(cfg, apps, bytes.NewReader(data))
		if err != nil {
			return
		}
		// A snapshot that decodes fully must yield a working simulator.
		s.Step(3)
	})
}

// firstL2Array is a copy of the helper of the same name in
// internal/sim/checkpoint_test.go, which explains it: the byte range of tile
// 0's L2 line array, found by the L1 and L2 headers standing one L1 array, its
// counters and a clock apart.
func firstL2Array(f *testing.F, img []byte, cfg config.Config) (lo, hi int) {
	f.Helper()
	header := func(c config.Cache) ([]byte, int) {
		h := binary.LittleEndian.AppendUint32(nil, uint32(c.Sets()))
		n := c.Sets() * c.Ways
		return binary.LittleEndian.AppendUint32(h, uint32(c.Ways)), 10*n + 8*((n+63)/64)
	}
	l1, l1Array := header(cfg.L1)
	l2, l2Array := header(cfg.L2)
	for at := 0; ; at++ {
		i := bytes.Index(img[at:], l1)
		if i < 0 {
			f.Fatal("no L1 header followed by an L2 header in the image")
		}
		at += i
		if next := at + len(l1) + l1Array + 40 + 8; next+len(l2) <= len(img) && bytes.Equal(img[next:next+len(l2)], l2) {
			lo = next + len(l2)
			return lo, lo + l2Array
		}
	}
}
