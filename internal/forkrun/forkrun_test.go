package forkrun

import (
	"bytes"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/sim"
	"nocmem/internal/trace"
)

func testConfig() (config.Config, []trace.Profile) {
	cfg := config.Baseline16()
	cfg.Run.WarmupCycles = 4_000
	cfg.Run.MeasureCycles = 8_000
	cfg.S1.UpdatePeriod = 2_000
	apps := make([]trace.Profile, cfg.Mesh.Nodes())
	p := trace.MustLookup("mcf")
	for i := 0; i < 6; i++ {
		apps[i] = p
	}
	return cfg, apps
}

// TestForkedBaselineMatchesCold: for a configuration whose measurement
// policy IS the canonical warmup policy, forking changes nothing — the
// forked run must reproduce the cold run byte for byte. This is the
// correctness anchor of the whole amortization.
func TestForkedBaselineMatchesCold(t *testing.T) {
	cfg, apps := testConfig()
	s, err := sim.New(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	var cold bytes.Buffer
	if err := s.Run().WriteJSON(&cold); err != nil {
		t.Fatal(err)
	}

	var c Cache
	res, err := c.Run(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	var forked bytes.Buffer
	if err := res.WriteJSON(&forked); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), forked.Bytes()) {
		t.Fatalf("forked baseline run differs from cold run\n--- cold ---\n%s\n--- forked ---\n%s", cold.Bytes(), forked.Bytes())
	}
}

// TestPolicyVariantsShareOneSnapshot: the scheme cross product of one
// workload — the shape of every figure sweep — and every other dimension
// config.SnapshotKey zeroes (a scheme parameter, application-aware network
// arbitration, the DRAM scheduler) must execute exactly one warmup, and each
// forked variant must still produce a live measurement.
func TestPolicyVariantsShareOneSnapshot(t *testing.T) {
	cfg, apps := testConfig()
	var c Cache
	for _, variant := range []config.Config{
		cfg,
		cfg.WithSchemes(true, false),
		cfg.WithSchemes(false, true),
		cfg.WithSchemes(true, true),
		func() config.Config { v := cfg.WithSchemes(true, false); v.S1.ThresholdFactor = 1.0; return v }(),
		func() config.Config { v := cfg; v.AppAwareNet = true; return v }(),
		func() config.Config { v := cfg; v.DRAM.Sched = config.FCFS; return v }(),
		func() config.Config { v := cfg; v.DRAM.Sched = config.AppAwareMem; return v }(),
	} {
		res, err := c.Run(variant, apps)
		if err != nil {
			t.Fatal(err)
		}
		var retired int64
		for _, cs := range res.CoreStats {
			retired += cs.Retired
		}
		if retired == 0 {
			t.Fatal("forked variant retired nothing during measurement")
		}
	}
	if got := c.Snapshots(); got != 1 {
		t.Fatalf("policy variants produced %d warmup snapshots, want 1 shared", got)
	}
}

// TestSubstrateVariantsDoNotShare: anything sim.Restore would reject —
// different seed, different warmup length — must land in its own snapshot
// group rather than poison a shared one.
func TestSubstrateVariantsDoNotShare(t *testing.T) {
	cfg, apps := testConfig()
	var c Cache
	seed := cfg
	seed.Run.Seed = 99
	shorter := cfg
	shorter.Run.WarmupCycles = 2_000
	for _, variant := range []config.Config{cfg, seed, shorter} {
		if _, err := c.Run(variant, apps); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Snapshots(); got != 3 {
		t.Fatalf("substrate variants produced %d warmup snapshots, want 3 distinct", got)
	}
	// An image lives as long as the cache does: it carries no unused tail.
	for _, e := range c.snaps {
		if len(e.snap) == 0 || cap(e.snap) != len(e.snap) {
			t.Errorf("retained image of %d bytes has capacity %d", len(e.snap), cap(e.snap))
		}
	}
}
