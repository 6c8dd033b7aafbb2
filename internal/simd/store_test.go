// Crash/restart and corruption tests for the on-disk store: a killed daemon
// loses only what never reached disk, restarts re-serve completed keys
// without re-simulation and re-run in-flight ones to byte-identical results,
// and corrupt store entries — results or golden checkpoints — are evicted
// and recomputed, never panicking and never poisoning a cache.
package simd_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/forkrun"
	"nocmem/internal/sim"
	"nocmem/internal/simd"
	"nocmem/internal/snapshot"
	"nocmem/internal/trace"
)

// thresholdGrid returns n distinct Scheme-1 threshold points sharing one
// warmup snapshot group — a realistic sweep whose points are cheap once the
// group is warm.
func thresholdGrid(n int) []simd.RunSpec {
	var points []simd.RunSpec
	for i := 0; i < n; i++ {
		cfg := testCfg().WithSchemes(true, true)
		cfg.S1.ThresholdFactor = 0.8 + 0.1*float64(i)
		points = append(points, simd.RunSpec{Config: cfg, Apps: testApps})
	}
	return points
}

// TestMidSweepKillAndRestart kills the daemon mid-sweep and restarts it on
// the same store: completed keys must be served from disk without
// re-simulation, in-flight/queued keys must re-run, and every result must be
// byte-identical to a direct runner execution.
func TestMidSweepKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	// Parallelism 1 serializes the points, so the kill lands between them.
	h := makeHarness(t, 1, dir, 1)
	h.begin("kill mid-sweep, restart on the same store")

	grid := thresholdGrid(6)
	sub, err := h.clients[0].Submit(context.Background(), simd.RunRequest{Points: grid})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for at least one result to land on disk, then pull the plug.
	resultsDir := filepath.Join(dir, "results")
	deadline := time.Now().Add(time.Minute)
	for {
		if m, _ := filepath.Glob(filepath.Join(resultsDir, "*.res")); len(m) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no result reached the store within a minute")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.kill()

	// Which keys survived? (The kill waits out the executing point, so the
	// set on disk is exact, not racy.)
	persisted := map[string]bool{}
	for _, m := range mustGlob(t, filepath.Join(resultsDir, "*.res")) {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		key, _, err := snapshot.DecodeEntry(data)
		if err != nil {
			t.Fatalf("persisted entry %s is corrupt: %v", filepath.Base(m), err)
		}
		persisted[key] = true
	}
	if len(persisted) == 0 || len(persisted) >= len(grid) {
		t.Fatalf("kill landed badly: %d/%d points persisted (want a strict mid-sweep subset)", len(persisted), len(grid))
	}
	t.Logf("  killed with %d/%d points persisted", len(persisted), len(grid))
	_ = sub

	h.restartAfterKill()
	js := h.run(0, grid)

	direct := newDirect()
	var fromStore, resimulated int
	for i, sp := range grid {
		pr := js.Results[i]
		if persisted[pr.Key] {
			if pr.Source != simd.SourceStore {
				t.Errorf("completed point %d re-ran after restart (source %q)", i, pr.Source)
			}
			fromStore++
		} else {
			if pr.Source != simd.SourceSim {
				t.Errorf("lost point %d not re-simulated after restart (source %q)", i, pr.Source)
			}
			resimulated++
		}
		if want := direct.summary(t, sp); !bytes.Equal(pr.Summary, want) {
			t.Errorf("point %d: post-restart summary differs from direct runner", i)
		}
	}
	st := h.stats()
	if st.Runner.Executed != int64(resimulated) {
		t.Errorf("restarted daemon executed %d sims, want %d (only the lost points)", st.Runner.Executed, resimulated)
	}
	t.Logf("  restart served %d from store, re-simulated %d", fromStore, resimulated)
	h.end()
}

func mustGlob(t *testing.T, pattern string) []string {
	t.Helper()
	m, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCorruptSnapshotEvictedAndRewarmed plants a golden-checkpoint store
// entry whose frame and header are valid but whose body cannot restore —
// the worst corruption the CRC cannot catch at load time (e.g. a stale file
// from a buggy writer). The daemon must evict it and re-execute the warmup,
// not fail the request.
func TestCorruptSnapshotEvictedAndRewarmed(t *testing.T) {
	// Valid entry frame, valid checkpoint header, garbage body.
	var img bytes.Buffer
	w := snapshot.NewWriter(&img)
	w.U64(0xdeadbeefdeadbeef)
	w.String("not a simulator state")
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	// The header passes, so the image counts as a disk hit before its
	// restore fails; the second point loads the fresh warmup's image.
	rewarmsOver(t, "poisoned warm checkpoint is evicted and re-warmed", img.Bytes(), 2)
}

// TestOlderVersionEntriesEvictedAndRemade is the upgrade path: a store that a
// binary of format version 2 or 3 filled holds entries this one cannot read,
// framed with that version's header and its CRC-64. Each is refused at its
// header, evicted and made again once, and every point has the direct
// runner's bytes.
//
//   - warm_image: the grid's warm checkpoint is an old entry. The first point
//     warms (one store eviction, one warmup); the second forks from the fresh
//     image on disk (one disk hit). RestoreImage rejects the old payload with
//     an ErrFormat naming its version.
//   - result: both points' results are old entries, beside a current warm
//     image. A restarted daemon misses both (two evictions), re-simulates
//     both from the warm image without a warmup, and a second restart serves
//     them from the store.
func TestOlderVersionEntriesEvictedAndRemade(t *testing.T) {
	for _, v := range []uint32{2, 3} {
		t.Run(fmt.Sprintf("v%d/warm_image", v), func(t *testing.T) {
			h := makeHarness(t, 1, "", 1)
			h.begin(fmt.Sprintf("version-%d warm checkpoint is evicted and re-warmed", v))
			grid := policyGrid()[:2]
			cfg := grid[0].Config
			key := forkrun.Key(cfg, paddedApps(cfg))
			img := append(binary.LittleEndian.AppendUint32([]byte(snapshot.Magic), v), "an older machine"...)
			plantEntry(t, h, "snaps", func() { h.srv.Store().SaveSnapshot(key, nil) }, olderEntry(t, v, key, img))

			js := h.run(0, grid)
			checkDirect(t, grid, js, simd.SourceSim)
			st := h.stats()
			if st.Store.Evictions != 1 || st.Runner.Warmups != 1 || st.Runner.SnapshotDiskHits != 1 ||
				st.Runner.SnapshotMemHits != 0 || st.Runner.SnapshotEvictions != 0 || st.Runner.Executed != 2 {
				t.Errorf("store %+v, runner %+v: want 1 store eviction, 1 warmup, 1 disk hit, no memory hit, no runner eviction, 2 executed",
					st.Store, st.Runner)
			}
			h.end()
			_, err := sim.RestoreImage(cfg, paddedApps(cfg), img)
			if !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
				t.Fatalf("RestoreImage of a version-%d image returned %v, want an ErrFormat naming version %d", v, err, v)
			}
		})
		t.Run(fmt.Sprintf("v%d/result", v), func(t *testing.T) {
			dir := t.TempDir()
			h := makeHarness(t, 1, dir, 1)
			h.begin(fmt.Sprintf("version-%d results are evicted and re-simulated once", v))
			grid := policyGrid()[:2]
			h.run(0, grid)
			for _, f := range mustGlob(t, filepath.Join(dir, "results", "*.res")) {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				key, payload, err := snapshot.DecodeEntry(data)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(f, olderEntry(t, v, key, payload), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			h.restart()
			checkDirect(t, grid, h.run(0, grid), simd.SourceSim)
			st := h.stats()
			if st.Store.ResultMisses != 2 || st.Store.ResultHits != 0 || st.Store.Evictions != 2 ||
				st.Runner.Executed != 2 || st.Runner.Warmups != 0 || st.Runner.SnapshotDiskHits != 2 {
				t.Errorf("store %+v, runner %+v: want 2 result misses, no hit, 2 evictions, 2 executed, no warmup, 2 disk hits",
					st.Store, st.Runner)
			}
			h.restart()
			checkDirect(t, grid, h.run(0, grid), simd.SourceStore)
			if st := h.stats(); st.Store.ResultHits != 2 || st.Store.Evictions != 0 || st.Runner.Executed != 0 {
				t.Errorf("after a second restart: store %+v, runner %+v: want 2 result hits, no eviction, nothing executed",
					st.Store, st.Runner)
			}
			h.end()
		})
	}
}

// olderEntry frames payload under key as a store binary of format version v
// (2 or 3) did: the header, the key and the payload as today, then a CRC-64
// (ECMA) of key and payload. The framing up to the check is held to
// EncodeEntry's.
func olderEntry(t *testing.T, v uint32, key string, payload []byte) []byte {
	t.Helper()
	b := binary.LittleEndian.AppendUint32([]byte(snapshot.Magic), v)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	cur, err := snapshot.EncodeEntry(key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if head := len(snapshot.Magic); !bytes.Equal(b[head+4:], cur[head+4:len(cur)-8]) {
		t.Fatal("the older framing differs from EncodeEntry's before the check")
	}
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	h.Write([]byte(key))
	h.Write(payload)
	return binary.LittleEndian.AppendUint64(b, h.Sum64())
}

// plantEntry makes the daemon's store write one entry into sub (save), then
// replaces that file's bytes with data.
func plantEntry(t *testing.T, h *harness, sub string, save func(), data []byte) {
	t.Helper()
	save()
	files := mustGlob(t, filepath.Join(h.dir, sub, "*"))
	if len(files) != 1 {
		t.Fatalf("%d files in %s, want the one just saved", len(files), sub)
	}
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkDirect requires every point of js to come from source with the direct
// runner's bytes.
func checkDirect(t *testing.T, grid []simd.RunSpec, js *simd.JobStatus, source string) {
	t.Helper()
	direct := newDirect()
	for i, sp := range grid {
		if js.Results[i].Source != source {
			t.Errorf("point %d source %q, want %q", i, js.Results[i].Source, source)
		}
		if want := direct.summary(t, sp); !bytes.Equal(js.Results[i].Summary, want) {
			t.Errorf("point %d: summary differs from the direct runner", i)
		}
	}
}

// paddedApps is testApps padded to cfg's tiles, as exp.Runner hands a
// placement to forkrun.
func paddedApps(cfg config.Config) []trace.Profile {
	padded := make([]trace.Profile, cfg.Mesh.Nodes())
	for i, name := range testApps {
		padded[i] = trace.MustLookup(name)
	}
	return padded
}

// rewarmsOver plants img as the warm checkpoint of a two-point policy grid on
// a fresh daemon, runs the grid and requires every point simulated with the
// direct runner's bytes, diskHits snapshot disk hits, no memory hit, one
// eviction and one warmup. It returns the grid.
func rewarmsOver(t *testing.T, desc string, img []byte, diskHits int64) []simd.RunSpec {
	h := makeHarness(t, 1, "", 1)
	h.begin(desc)
	grid := policyGrid()[:2]
	// The fork key of the grid's snapshot group: policy-free config prefix
	// plus the padded placement, exactly as exp.Runner hands it to forkrun.
	cfg := grid[0].Config
	h.srv.Store().SaveSnapshot(forkrun.Key(cfg, paddedApps(cfg)), img)

	js := h.run(0, grid)
	direct := newDirect()
	for i, sp := range grid {
		if js.Results[i].Source != simd.SourceSim {
			t.Errorf("point %d source %q, want %q", i, js.Results[i].Source, simd.SourceSim)
		}
		if want := direct.summary(t, sp); !bytes.Equal(js.Results[i].Summary, want) {
			t.Errorf("point %d: summary differs from direct runner after snapshot eviction", i)
		}
	}
	st := h.stats()
	if st.Runner.SnapshotDiskHits != diskHits || st.Runner.SnapshotMemHits != 0 {
		t.Errorf("%d snapshot disk hits, %d memory hits, want %d and 0", st.Runner.SnapshotDiskHits, st.Runner.SnapshotMemHits, diskHits)
	}
	if st.Runner.SnapshotEvictions != 1 {
		t.Errorf("%d snapshot evictions, want 1", st.Runner.SnapshotEvictions)
	}
	if st.Runner.Warmups != 1 {
		t.Errorf("executed %d warmups, want 1 (fresh warmup after eviction)", st.Runner.Warmups)
	}
	h.end()
	return grid
}

// TestTruncatedResultEntryEvicted bit-flips and truncates a persisted
// result entry and requires the restarted daemon to treat it as a miss,
// evict it, and re-simulate — never serve garbage.
func TestTruncatedResultEntryEvicted(t *testing.T) {
	dir := t.TempDir()
	h := makeHarness(t, 1, dir, 0)
	h.begin("corrupt result entries are evicted and re-simulated")

	grid := thresholdGrid(2)
	first := h.run(0, grid)

	files := mustGlob(t, filepath.Join(dir, "results", "*.res"))
	if len(files) != len(grid) {
		t.Fatalf("%d entry files for %d points", len(files), len(grid))
	}
	// Truncate one, bit-flip the other.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x08
	if err := os.WriteFile(files[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	h.restart()
	second := h.run(0, grid)
	for i := range grid {
		if second.Results[i].Source != simd.SourceSim {
			t.Errorf("point %d source %q, want %q (its entry was corrupt)", i, second.Results[i].Source, simd.SourceSim)
		}
		if !bytes.Equal(first.Results[i].Summary, second.Results[i].Summary) {
			t.Errorf("point %d: re-simulated result differs from the original", i)
		}
	}
	st := h.stats()
	if st.Store.Evictions < 2 {
		t.Errorf("%d store evictions, want >= 2", st.Store.Evictions)
	}
	h.end()
}

// FuzzStoreRead feeds arbitrary bytes to a store entry file and requires
// error-and-evict: LoadResult never panics, never returns garbage, and a
// rejected entry neither survives on disk nor poisons later reads.
func FuzzStoreRead(f *testing.F) {
	valid, err := snapshot.EncodeEntry("k", []byte(`{"cycles":6000}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not an entry at all"))
	f.Add(valid[:len(valid)-3])
	for i := 0; i < len(valid); i += 5 {
		mut := append([]byte{}, valid...)
		mut[i] ^= 0x20
		f.Add(mut)
	}
	other, err := snapshot.EncodeEntry("other-key", []byte(`{"cycles":1}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(other)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		st, err := simd.OpenStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Learn the entry path for key "k", then overwrite it with fuzz data.
		st.SaveResult("k", []byte("x"))
		files, err := filepath.Glob(filepath.Join(dir, "results", "*.res"))
		if err != nil || len(files) != 1 {
			t.Fatalf("glob: %v (%d files)", err, len(files))
		}
		if err := os.WriteFile(files[0], data, 0o644); err != nil {
			t.Fatal(err)
		}

		payload, ok := st.LoadResult("k")
		if ok {
			// Accepting the bytes is only legal if they really are a valid
			// entry for exactly this key.
			key, want, err := snapshot.DecodeEntry(data)
			if err != nil || key != "k" || !bytes.Equal(payload, want) {
				t.Fatalf("store accepted a corrupt entry (decode err %v, key %q)", err, key)
			}
		} else if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
			t.Fatal("store rejected an entry but did not evict the file")
		}

		// Never poisoned: a fresh save must round-trip regardless.
		st.SaveResult("k", []byte("fresh"))
		if p, ok := st.LoadResult("k"); !ok || string(p) != "fresh" {
			t.Fatalf("store poisoned after corrupt read: ok=%v payload=%q", ok, p)
		}
	})
}

// TestPrefixImagesAcrossRestart: a daemon serving two threshold groups
// interleaved point by point builds each group's prefix image on its second
// request and forks the third from the store; a second daemon on the same
// store directory forks new factors of both groups from those images with
// no warmup and no build. Every point has the bytes of a direct ExecuteSpec.
func TestPrefixImagesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	h := makeHarness(t, 1, dir, 1)
	h.begin("threshold prefix images survive a daemon restart")
	points := func(factors ...float64) []simd.RunSpec {
		var grid []simd.RunSpec
		for _, f := range factors {
			for _, s2 := range []bool{false, true} {
				cfg := testCfg().WithSchemes(true, s2)
				cfg.S1.ThresholdFactor = f
				grid = append(grid, simd.RunSpec{Config: cfg, Apps: testApps})
			}
		}
		return grid
	}
	direct := exp.NewRunner(exp.Options{ShareWarmup: true})
	check := func(phase string, grid []simd.RunSpec, want exp.Stats) {
		t.Helper()
		js := h.run(0, grid)
		for i, sp := range grid {
			rp, err := simd.ResolveSpec(sp)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := simd.ExecuteSpec(direct, rp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js.Results[i].Summary, sum) {
				t.Errorf("%s point %d: summary differs from a direct ExecuteSpec", phase, i)
			}
		}
		got := h.stats().Runner
		got.Runs, got.CacheHits = 0, 0
		if got != want {
			t.Errorf("%s: runner stats %+v, want %+v", phase, got, want)
		}
	}

	// The warm image lives on disk alone: the three forks from W after the
	// warmup load it.
	check("interleaved groups", points(0.8, 1.0, 1.2),
		exp.Stats{Executed: 6, Forked: 6, Warmups: 1, SnapshotDiskHits: 3, PrefixBuilds: 2, PrefixForks: 2})
	if snaps := mustGlob(t, filepath.Join(dir, "snaps", "*.snap")); len(snaps) != 3 {
		t.Errorf("%d snapshot files, want the warm image and two prefix images", len(snaps))
	}
	h.restart()
	check("after the restart", points(0.9, 1.4),
		exp.Stats{Executed: 4, Forked: 4, PrefixForks: 4})
	h.end()
}
