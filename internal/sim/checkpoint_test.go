package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/snapshot"
	"nocmem/internal/trace"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden checkpoint under testdata")

// takeSnapshot runs the warmup under cfg with the given stepper, writing a
// checkpoint at Run.CheckpointAt, and returns the snapshot bytes plus the
// straight-through result of completing the same run.
func takeSnapshot(t *testing.T, cfg config.Config, apps []trace.Profile, dense bool, shards int) ([]byte, []byte, *Result) {
	t.Helper()
	cfg.Run.Shards = shards
	s, err := New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	s.SetDenseStepping(dense)
	var snap bytes.Buffer
	res, err := s.RunWithCheckpoint(&snap)
	if err != nil {
		t.Fatal(err)
	}
	var j bytes.Buffer
	if err := res.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	return snap.Bytes(), j.Bytes(), res
}

// resumeRun restores the snapshot under cfg and completes the run.
func resumeRun(t *testing.T, cfg config.Config, apps []trace.Profile, dense bool, shards int, snap []byte) ([]byte, *Result) {
	t.Helper()
	cfg.Run.Shards = shards
	cfg.Run.ResumeFrom = cfg.Run.CheckpointAt
	s, err := Restore(cfg, apps, bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	s.SetDenseStepping(dense)
	res := s.Run()
	var j bytes.Buffer
	if err := res.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), res
}

// TestCheckpointForkEquivalence is the tentpole's gate: a run that
// checkpoints at the warmup boundary and a run that restores from that
// checkpoint must produce byte-identical statistics — summaries, raw core
// and network counters, and full per-application latency histograms — under
// every stepper (dense, event-driven, sharded with 2 and 4 workers).
func TestCheckpointForkEquivalence(t *testing.T) {
	cfg := smallConfig()
	cfg.Run.CheckpointAt = cfg.Run.WarmupCycles
	apps := fillApps(cfg, "milc", 6)

	modes := []struct {
		name   string
		dense  bool
		shards int
	}{
		{"dense", true, 1},
		{"event", false, 1},
		{"sharded_2", false, 2},
		{"sharded_4", false, 4},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			snap, wantJSON, want := takeSnapshot(t, cfg, apps, m.dense, m.shards)
			if len(snap) == 0 {
				t.Fatal("no checkpoint written")
			}
			gotJSON, got := resumeRun(t, cfg, apps, m.dense, m.shards, snap)
			expectSame(t, m.name+"_resumed", wantJSON, want, gotJSON, got)
		})
	}
}

// TestRestoreImageSharesOneImage is the forkrun cache's contract with
// RestoreImage: several restores decoding one in-memory image at once each
// finish with the bytes Restore gives from its own copy, and the image is
// left as it was.
func TestRestoreImageSharesOneImage(t *testing.T) {
	cfg := smallConfig()
	cfg.Run.CheckpointAt = cfg.Run.WarmupCycles
	apps := fillApps(cfg, "milc", 6)
	snap, _, _ := takeSnapshot(t, cfg, apps, false, 1)
	pristine := bytes.Clone(snap)
	wantJSON, want := resumeRun(t, cfg, apps, false, 1, pristine)

	rcfg := cfg
	rcfg.Run.ResumeFrom = cfg.Run.CheckpointAt
	const forks = 4
	results := make([]*Result, forks)
	errs := make([]error, forks)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := RestoreImage(rcfg, apps, snap)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = s.Run()
		}()
	}
	wg.Wait()
	for i, got := range results {
		if errs[i] != nil {
			t.Fatalf("fork %d: %v", i, errs[i])
		}
		var j bytes.Buffer
		if err := got.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		expectSame(t, fmt.Sprintf("fork_%d", i), wantJSON, want, j.Bytes(), got)
	}
	if !bytes.Equal(snap, pristine) {
		t.Fatal("RestoreImage modified the shared image")
	}
	if _, err := RestoreImage(rcfg, apps, snap[:len(snap)/2]); !errors.Is(err, snapshot.ErrFormat) {
		t.Fatalf("truncated image: got %v, want ErrFormat", err)
	}
}

// TestCheckpointPartitionAgnostic pins the property the forkrun cache's key
// relies on: snapshots carry no stepping layout, so an image taken under one
// worker count restores under any other — and the resumed run still
// reproduces the producer's straight-through result byte for byte. One warm
// image therefore serves the whole worker-count sweep.
func TestCheckpointPartitionAgnostic(t *testing.T) {
	cfg := smallConfig()
	cfg.Run.CheckpointAt = cfg.Run.WarmupCycles
	apps := fillApps(cfg, "milc", 6)

	// The oracle: the sequential producer's complete run.
	seqSnap, wantJSON, want := takeSnapshot(t, cfg, apps, false, 1)

	for _, shards := range []int{2, 3, 4, 8} {
		name := fmt.Sprintf("resume_%d_workers", shards)
		t.Run(name, func(t *testing.T) {
			gotJSON, got := resumeRun(t, cfg, apps, false, shards, seqSnap)
			expectSame(t, name, wantJSON, want, gotJSON, got)
		})
	}

	// And the reverse direction: a sharded producer's image resumes
	// sequentially into the same pinned result.
	t.Run("sharded_snapshot_sequential_resume", func(t *testing.T) {
		shSnap, shJSON, shRes := takeSnapshot(t, cfg, apps, false, 4)
		expectSame(t, "sharded_producer", wantJSON, want, shJSON, shRes)
		gotJSON, got := resumeRun(t, cfg, apps, false, 1, shSnap)
		expectSame(t, "sequential_resume", wantJSON, want, gotJSON, got)
	})
}

// TestCheckpointMidMeasurementFork covers the other checkpoint placement: a
// snapshot taken inside the measurement window carries the partially-filled
// collectors, and resuming completes the window byte-identically.
func TestCheckpointMidMeasurementFork(t *testing.T) {
	cfg := smallConfig()
	cfg.Run.CheckpointAt = cfg.Run.WarmupCycles + cfg.Run.MeasureCycles/2
	apps := fillApps(cfg, "mcf", 4)
	snap, wantJSON, want := takeSnapshot(t, cfg, apps, false, 1)
	gotJSON, got := resumeRun(t, cfg, apps, false, 1, snap)
	expectSame(t, "mid_measurement_resumed", wantJSON, want, gotJSON, got)
}

// TestCheckpointDrainedHighPriorityVC checkpoints at cycles where router
// input VCs are mid-packet but empty — a bypassing high-priority header
// already left, its body flits are still upstream. Such a VC's priority class
// is router state derived from the header, which no buffered flit can give
// back to a restored router; the body flits must still arbitrate as
// high-priority, or the resumed run drifts from the uninterrupted one. A
// single snapshot rarely catches a contended arbitration, so the loaded S1+S2
// warmup is sampled at several such cycles.
func TestCheckpointDrainedHighPriorityVC(t *testing.T) {
	cfg := smallConfig().WithSchemes(true, true)
	cfg.Run.WarmupCycles = 12_000
	cfg.Run.MeasureCycles = 10_000
	apps := make([]trace.Profile, cfg.Mesh.Nodes())
	for i, name := range []string{"mcf", "milc", "lbm", "gcc"} {
		for tile := i; tile < len(apps); tile += 4 {
			apps[tile] = trace.MustLookup(name)
		}
	}
	s, err := New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(6_000) // long enough for both schemes to be tagging under load
	var snaps [][]byte
	for last := int64(0); len(snaps) < 4 && s.Now() < cfg.Run.WarmupCycles; s.Step(1) {
		if s.net.DebugDrainedHighVCs() < 2 || s.Now() < last+150 {
			continue
		}
		var snap bytes.Buffer
		if err := s.Checkpoint(&snap); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap.Bytes())
		last = s.Now()
	}
	if len(snaps) < 4 {
		t.Fatalf("found %d of 4 cycles with drained high-priority VCs during warmup; the test exercises too little", len(snaps))
	}
	finish := func(s *Simulator) ([]byte, *Result) {
		res := s.Run()
		var j bytes.Buffer
		if err := res.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), res
	}
	wantJSON, want := finish(s)
	for i, snap := range snaps {
		restored, err := Restore(cfg, apps, bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, got := finish(restored)
		expectSame(t, fmt.Sprintf("restored_at_drained_high_vc_%d", i), wantJSON, want, gotJSON, got)
	}
}

// TestCheckpointForksAcrossSchemes exercises the policy-leniency path the
// experiment runner relies on: a warmup snapshot taken under the baseline
// restores into Scheme-1+2 and application-aware measurement configurations
// (the schemes start cold), so one warmup serves every policy variant.
func TestCheckpointForksAcrossSchemes(t *testing.T) {
	base := smallConfig()
	base.Run.CheckpointAt = base.Run.WarmupCycles
	apps := fillApps(base, "mcf", 6)
	snap, _, _ := takeSnapshot(t, base, apps, false, 1)

	schemes := base.WithSchemes(true, true)
	schemes.S1.UpdatePeriod = 2_000
	appAware := base
	appAware.AppAwareNet = true

	for name, cfg := range map[string]config.Config{"schemes": schemes, "app_aware": appAware} {
		_, res := resumeRun(t, cfg, apps, false, 1, snap)
		active := 0
		for _, tile := range res.ActiveTiles() {
			if res.CoreStats[tile].Retired > 0 {
				active++
			}
		}
		if active == 0 {
			t.Fatalf("%s: restored fork retired nothing", name)
		}
		if name == "schemes" && res.S1Checked == 0 {
			t.Fatalf("schemes: Scheme-1 never classified a response after forking")
		}
	}

	// The reverse direction: a snapshot that carries both scheme blocks
	// restores into the schemes-off machine by skipping them. Restore
	// refuses an image with bytes left over, and the collector and the idle
	// series sit behind the blocks, so core.SkipScheme1/2 out of step with
	// Encode cannot pass here.
	schemes.Run.CheckpointAt = schemes.Run.WarmupCycles
	snap, _, tagged := takeSnapshot(t, schemes, apps, false, 1)
	if tagged.S1Checked == 0 || tagged.S2Checked == 0 {
		t.Fatalf("the scheme run classified nothing: %d responses, %d requests", tagged.S1Checked, tagged.S2Checked)
	}
	_, res := resumeRun(t, base, apps, false, 1, snap)
	if res.S1Checked != 0 || res.S2Checked != 0 || res.CoreStats[res.ActiveTiles()[0]].Retired == 0 {
		t.Errorf("schemes-off fork: %d/%d classified, %d retired", res.S1Checked, res.S2Checked, res.CoreStats[res.ActiveTiles()[0]].Retired)
	}
	// Cut short — inside the idle series, the collector, the scheme blocks
	// and beyond — the image is refused as a format error.
	for _, cut := range []int{1, 64, 4096, len(snap) / 4, len(snap) / 2} {
		if _, err := Restore(base, apps, bytes.NewReader(snap[:len(snap)-cut])); !errors.Is(err, snapshot.ErrFormat) {
			t.Errorf("image cut by %d bytes: %v, want ErrFormat", cut, err)
		}
	}
}

// TestCheckpointRoundTrip asserts the format's determinism directly:
// serialize, restore, serialize again — the two images must be identical
// byte for byte, as must a re-serialization of the original simulator
// (the encoder may not mutate what it walks).
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := smallConfig()
	apps := fillApps(cfg, "mcf", 5)
	s, err := New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(7_000) // enough to have packets, MSHRs and DRAM queues in flight

	var first, again bytes.Buffer
	if err := s.Checkpoint(&first); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatal("re-encoding the same simulator produced different bytes")
	}

	restored, err := Restore(cfg, apps, bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := restored.Checkpoint(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip is not byte-stable: %d vs %d bytes", first.Len(), second.Len())
	}
}

// goldenConfig pins the configuration of the checked-in golden checkpoint.
// internal/snapshot's fuzz target mirrors it; keep the two in sync.
func goldenConfig() (config.Config, []trace.Profile) {
	cfg := config.Baseline16()
	// Shrunken caches keep the checked-in image (and the fuzz corpus seeded
	// from it) small; the encoding walk they exercise is identical.
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

// TestCheckpointGolden is the cross-version regression gate: a pinned
// checkpoint file under testdata must keep restoring into a simulator that
// completes the run with exactly the pinned statistics. It fails loudly
// when the format changes without a version bump (silent corruption) or
// with one (stale golden file), and tells the developer what to do.
//
// Regenerate both files after a deliberate format change with:
//
//	go test ./internal/sim -run TestCheckpointGolden -update
func TestCheckpointGolden(t *testing.T) {
	cfg, apps := goldenConfig()
	snapPath := filepath.Join("testdata", "golden.snap")
	jsonPath := filepath.Join("testdata", "golden.json")

	if *updateGolden {
		snap, resJSON, _ := takeSnapshot(t, cfg, apps, false, 1)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, resJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes) and %s", snapPath, len(snap), jsonPath)
		return
	}

	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("missing golden checkpoint: %v — generate it with: go test ./internal/sim -run TestCheckpointGolden -update", err)
	}
	wantJSON, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := resumeRun(t, cfg, apps, false, 1, snap)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("restoring the golden checkpoint no longer reproduces the pinned results.\n"+
			"If you changed the snapshot encoding, bump snapshot.Version (currently %d) and regenerate with:\n"+
			"  go test ./internal/sim -run TestCheckpointGolden -update\n--- want ---\n%s\n--- got ---\n%s",
			snapshot.Version, wantJSON, gotJSON)
	}
}

// goldenSettled is what separates golden.snap from an image of the same state
// written today: offset -> byte, as the binary of 1eec9ad writes them.
// golden.snap was written before Checkpoint settled sleeping tiles (PR 16), so
// it holds the twelve coreless tiles' lastCoreTick at the cycle each last ran
// and tile 14's stalled core before its elided ticks were replayed; every
// binary since restores that and writes it settled: lastCoreTick 2999 (0xb7)
// and the core's stall integrals moved up. Empty this table when golden.snap
// is regenerated.
var goldenSettled = map[int]byte{
	47045: 0xb7, 69378: 0xb7, 116974: 0xb7, 139690: 0xb7, 162251: 0xb7, 184792: 0xb7,
	207540: 0xb7, 277949: 0xb7, 300538: 0xb7, 322871: 0xb7, 346999: 0xb7, 369428: 0xb7,
	324207: 184, 324231: 11, 324239: 82, 324247: 120,
}

// TestCheckpointGoldenReencodes pins the encoder across commits. The golden
// test above holds the decoder to an image written by an earlier binary, and
// the round trip compares two encodings by this one — so a slip mirrored on
// both sides (valid and dirty swapped in cache.Encode and cache.Decode alike)
// passes both. Here the earlier binary's image is restored and checkpointed
// again at once, and the bytes must be the file's (but for goldenSettled): what
// this binary writes an earlier one reads, and the other way round.
func TestCheckpointGoldenReencodes(t *testing.T) {
	cfg, apps := goldenConfig()
	want, err := os.ReadFile(filepath.Join("testdata", "golden.snap"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := RestoreImage(cfg, apps, want)
	if err != nil {
		t.Fatal(err)
	}
	for off, b := range goldenSettled {
		want[off] = b
	}
	if got := checkpointBytes(t, s); !bytes.Equal(got, want) {
		t.Fatalf("golden.snap restored and checkpointed is %d bytes that leave the file's %d at offset %d: the encoder no longer writes the pinned format",
			len(got), len(want), firstDiff(got, want))
	}
}

func checkpointBytes(t *testing.T, s *Simulator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestRestoreBareMatchesPrewarmed is the oracle for what a Restore builds: a
// machine with empty caches and directories, where New would have prewarmed
// them. That is sound only if the decode replaces everything prewarm writes,
// so one image is restored twice — by RestoreImage, into the bare machine, and
// by restoreFrom into a machine New built — and the two must checkpoint to the
// same bytes at once (and to the image's), checkpoint to the same bytes 2 000
// cycles on, and finish the window with the same summary. Both directory
// forms run: the one-word masks of a mesh of up to 64 tiles, and the wide
// masks with their free list on the 16x16 mesh of TestLargeMeshRegression.
// Both machines have small L2 banks under enough load to evict resident lines
// before the checkpoint, so the image's directories lack entries New installs
// (asserted: without that a decode that merged into what it found would pass),
// and entries go on being retired after the restore (asserted too), which on
// the wide form sends masks decoded from the image through the free list.
//
// Mutations that must fail it, each tried when this was written: Decode
// leaving a cache's tick alone (the prewarmed machine keeps its fill count:
// first comparison, both machines); node.decode filling the directory New
// built instead of a new one (first comparison, both); cache.Decode skipping
// the lines the image holds invalid (first comparison, both). Not observable, by
// construction: dirFree — a retired mask is zeroed before it is kept and a
// reused one cannot be told from a fresh one, so the list is capacity, not
// state; decode drops it because its masks belong to a directory that no
// longer exists.
func TestRestoreBareMatchesPrewarmed(t *testing.T) {
	narrow := smallConfig()
	narrow.L2.SizeBytes = 64 << 10
	wide := smallConfig()
	wide.Mesh.Width, wide.Mesh.Height = 16, 16
	wide.L1.SizeBytes = 8 << 10
	wide.L2.SizeBytes = 8 << 10 // a 2 MB image, where the full-size caches make 47
	wide.Run.WarmupCycles = 1_000
	wide.Run.MeasureCycles = 3_500
	wideApps := make([]trace.Profile, wide.Mesh.Nodes())
	for tile := 0; tile < len(wideApps); tile += 5 {
		wideApps[tile] = trace.MustLookup("mcf")
	}
	for _, tc := range []struct {
		name string
		cfg  config.Config
		apps []trace.Profile
		at   int64
	}{
		{"16_tiles_dir", narrow, fillApps(narrow, "mcf", 6), 6_000},
		{"256_tiles_dirWide", wide, wideApps, 2_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			producer, err := New(tc.cfg, tc.apps)
			if err != nil {
				t.Fatal(err)
			}
			producer.Step(tc.at)
			img := checkpointBytes(t, producer)
			if wideDir := producer.nodes[0].dirWide != nil; wideDir != (len(producer.nodes) > 64) {
				t.Fatalf("%d tiles run on the wrong directory form", len(producer.nodes))
			}

			bare, err := RestoreImage(tc.cfg, tc.apps, img)
			if err != nil {
				t.Fatal(err)
			}
			prewarmed, err := New(tc.cfg, tc.apps)
			if err != nil {
				t.Fatal(err)
			}
			evicted := 0
			for i, n := range prewarmed.nodes {
				for line := range n.dir {
					if _, ok := producer.nodes[i].dir[line]; !ok {
						evicted++
					}
				}
				for line := range n.dirWide {
					if _, ok := producer.nodes[i].dirWide[line]; !ok {
						evicted++
					}
				}
			}
			if evicted == 0 {
				t.Fatal("every directory entry New installs is still in the image: the test could not tell a merge from a replacement")
			}
			r, err := snapshot.NewReaderBytes(img)
			if err != nil {
				t.Fatal(err)
			}
			if err := prewarmed.restoreFrom(r); err != nil {
				t.Fatal(err)
			}

			same := func(when string) {
				t.Helper()
				b, p := checkpointBytes(t, bare), checkpointBytes(t, prewarmed)
				if !bytes.Equal(b, p) {
					t.Fatalf("%s: the bare restore and the prewarmed one checkpoint differently from offset %d", when, firstDiff(b, p))
				}
				if when == "at once" && !bytes.Equal(b, img) {
					t.Fatalf("at once: a restored machine does not checkpoint to its image (offset %d)", firstDiff(b, img))
				}
			}
			same("at once")
			invalidated := bare.collector().Invalidations
			bare.Step(2_000)
			prewarmed.Step(2_000)
			same("2000 cycles on")
			if bare.collector().Invalidations == invalidated {
				t.Error("no L2 eviction back-invalidated an L1 in the window: no directory entry, and no wide mask, was retired after the restore")
			}
			if b, p := bare.Run().Summary(), prewarmed.Run().Summary(); !reflect.DeepEqual(b, p) {
				t.Fatalf("summaries differ at the end of the window:\nbare      %+v\nprewarmed %+v", b, p)
			}
		})
	}
}

// firstL2Array locates tile 0's L2 line array in a checkpoint taken under cfg
// and returns its byte range [lo, hi). A cache is encoded as its LRU clock,
// the set and way counts as u32 lengths, sets x ways records of 18 bytes and
// five counters; the L1 and L2 headers must therefore stand exactly one L1
// array, 40 bytes of counters and one clock apart, which no other part of the
// image reproduces by accident. internal/snapshot's fuzz target carries a
// copy (it cannot import a test helper); keep the two in step.
func firstL2Array(t *testing.T, img []byte, cfg config.Config) (lo, hi int) {
	t.Helper()
	header := func(c config.Cache) ([]byte, int) {
		h := binary.LittleEndian.AppendUint32(nil, uint32(c.Sets()))
		return binary.LittleEndian.AppendUint32(h, uint32(c.Ways)), c.Sets() * c.Ways * 18
	}
	l1, l1Array := header(cfg.L1)
	l2, l2Array := header(cfg.L2)
	for at := 0; ; at++ {
		i := bytes.Index(img[at:], l1)
		if i < 0 {
			t.Fatal("no L1 header followed by an L2 header in the image")
		}
		at += i
		if next := at + len(l1) + l1Array + 40 + 8; next+len(l2) <= len(img) && bytes.Equal(img[next:next+len(l2)], l2) {
			lo = next + len(l2)
			return lo, lo + l2Array
		}
	}
}

// TestRestoreErrors is the table-driven gate on Restore's validation: every
// mismatch between the snapshot and the restoring configuration — and every
// form of byte-level corruption — must surface as an error, never a panic
// or a silently half-restored simulator.
func TestRestoreErrors(t *testing.T) {
	cfg := smallConfig()
	apps := fillApps(cfg, "milc", 4)
	s, err := New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(6_000)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	l2lo, l2hi := firstL2Array(t, snap, cfg)

	cases := []struct {
		name    string
		cfg     func() config.Config
		apps    func() []trace.Profile
		data    func() []byte
		wantSub string
	}{
		{
			name: "structural_mismatch",
			cfg: func() config.Config {
				c := config.Baseline32()
				c.Run = cfg.Run
				return c
			},
			apps:    func() []trace.Profile { return fillApps(config.Baseline32(), "milc", 4) },
			wantSub: "incompatible configuration",
		},
		{
			name: "seed_mismatch",
			cfg:  func() config.Config { c := cfg; c.Run.Seed = 99; return c },
			// A different seed is a different machine: the generators replay
			// a different stream, so the structural key must reject it.
			wantSub: "incompatible configuration",
		},
		{
			name:    "application_placement_mismatch",
			apps:    func() []trace.Profile { return fillApps(cfg, "mcf", 4) },
			wantSub: "in the snapshot",
		},
		{
			name:    "resume_cycle_mismatch",
			cfg:     func() config.Config { c := cfg; c.Run.ResumeFrom = 123; return c },
			wantSub: "resumes from cycle 123",
		},
		{
			name:    "bad_magic",
			data:    func() []byte { d := append([]byte(nil), snap...); d[0] ^= 0xff; return d },
			wantSub: "bad magic",
		},
		{
			name: "future_version",
			data: func() []byte {
				d := append([]byte(nil), snap...)
				d[8], d[9], d[10], d[11] = 0xff, 0xff, 0xff, 0xff
				return d
			},
			wantSub: "regenerate the checkpoint",
		},
		{
			name:    "truncated",
			data:    func() []byte { return snap[:len(snap)/2] },
			wantSub: "",
		},
		{
			name:    "trailing_garbage",
			data:    func() []byte { return append(append([]byte(nil), snap...), 0xA5) },
			wantSub: "trailing",
		},
		// The cache arrays are decoded from one view of the image, not field
		// by field: every check the field decoder made is still made.
		{
			name:    "cache_valid_byte_2",
			data:    func() []byte { d := bytes.Clone(snap); d[l2lo+8] = 2; return d },
			wantSub: "invalid bool byte",
		},
		{
			name:    "cache_dirty_byte_ff",
			data:    func() []byte { d := bytes.Clone(snap); d[l2lo+18+9] = 0xff; return d },
			wantSub: "invalid bool byte",
		},
		{
			name:    "truncated_inside_cache_array",
			data:    func() []byte { return snap[:(l2lo+l2hi)/2] },
			wantSub: "truncated",
		},
		{
			name:    "truncated_one_byte_before_cache_array_end",
			data:    func() []byte { return snap[:l2hi-1] },
			wantSub: "truncated",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, a, d := cfg, apps, snap
			if tc.cfg != nil {
				c = tc.cfg()
			}
			if tc.apps != nil {
				a = tc.apps()
			}
			if tc.data != nil {
				d = tc.data()
			}
			s, err := Restore(c, a, bytes.NewReader(d))
			if err == nil {
				t.Fatal("Restore accepted an invalid snapshot")
			}
			if s != nil || !errors.Is(err, snapshot.ErrFormat) {
				t.Fatalf("got simulator %v and error %q; want none and one wrapping snapshot.ErrFormat", s != nil, err)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestRestoreNeverPanicsOnPrefixes walks every header-region truncation
// point and a sweep of body truncations: all must fail cleanly with
// snapshot.ErrFormat, proving the sticky-reader discipline holds end to
// end (the fuzz target in internal/snapshot extends this to arbitrary
// mutations).
func TestRestoreNeverPanicsOnPrefixes(t *testing.T) {
	cfg := smallConfig()
	apps := fillApps(cfg, "milc", 3)
	s, err := New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(5_000)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	cuts := []int{0, 1, 7, 8, 11, 12, 20, 50}
	for n := 100; n < len(snap); n += len(snap) / 37 {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		if n >= len(snap) {
			continue
		}
		_, err := Restore(cfg, apps, bytes.NewReader(snap[:n]))
		if err == nil {
			t.Fatalf("Restore accepted a %d-byte prefix of a %d-byte snapshot", n, len(snap))
		}
		if !errors.Is(err, snapshot.ErrFormat) {
			t.Fatalf("prefix %d: error %v is not tagged snapshot.ErrFormat", n, err)
		}
	}
}

// TestRunWithCheckpointPlacement pins the checkpoint-cycle semantics Run
// and the runner depend on: the snapshot records exactly CheckpointAt as
// its cycle, and a boundary snapshot is taken before the statistics reset.
func TestRunWithCheckpointPlacement(t *testing.T) {
	for _, ck := range []int64{2_000, 5_000, 9_000} {
		cfg := smallConfig()
		cfg.Run.WarmupCycles = 5_000
		cfg.Run.MeasureCycles = 6_000
		cfg.Run.CheckpointAt = ck
		apps := fillApps(cfg, "milc", 2)
		snap, _, _ := takeSnapshot(t, cfg, apps, false, 1)
		cfg.Run.ResumeFrom = ck
		s, err := Restore(cfg, apps, bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("CheckpointAt=%d: %v", ck, err)
		}
		if s.Now() != ck {
			t.Fatalf("CheckpointAt=%d: snapshot restored at cycle %d", ck, s.Now())
		}
	}
}
