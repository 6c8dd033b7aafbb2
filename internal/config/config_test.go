package config

import (
	"strings"
	"testing"
)

func TestBaselinePresetsValid(t *testing.T) {
	for name, cfg := range map[string]Config{
		"baseline32":      Baseline32(),
		"baseline16":      Baseline16(),
		"schemes-on":      Baseline32().WithSchemes(true, true),
		"2-stage routers": func() Config { c := Baseline32(); c.NoC.Pipeline = Pipeline2; return c }(),
		"sharded":         func() Config { c := Baseline32(); c.Run.Shards = 4; return c }(),
		"16x16 mesh":      func() Config { c := Baseline32(); c.Mesh = Mesh{Width: 16, Height: 16}; return c }(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBaseline32MatchesTable1(t *testing.T) {
	c := Baseline32()
	if c.Mesh.Width != 8 || c.Mesh.Height != 4 || c.Mesh.Nodes() != 32 {
		t.Errorf("mesh %dx%d", c.Mesh.Width, c.Mesh.Height)
	}
	if c.L1.SizeBytes != 32<<10 || c.L1.Ways != 1 || c.L1.Latency != 3 || c.L1.LineBytes != 64 {
		t.Errorf("L1 %+v", c.L1)
	}
	if c.L2.SizeBytes != 512<<10 || c.L2.Latency != 10 {
		t.Errorf("L2 %+v", c.L2)
	}
	if c.DRAM.Controllers != 4 || c.DRAM.BanksPerCtl != 16 || c.DRAM.BusMultiplier != 5 {
		t.Errorf("DRAM %+v", c.DRAM)
	}
	if c.CPU.WindowSize != 128 || c.CPU.LSQSize != 64 {
		t.Errorf("CPU %+v", c.CPU)
	}
	if c.NoC.Pipeline != Pipeline5 || c.NoC.FlitBits != 128 || c.NoC.BufferDepth != 5 || c.NoC.VCsPerPort != 4 {
		t.Errorf("NoC %+v", c.NoC)
	}
	if c.S1.ThresholdFactor != 1.2 {
		t.Errorf("scheme-1 threshold factor %v", c.S1.ThresholdFactor)
	}
	if c.S2.HistoryWindow != 2000 || c.S2.IdleThreshold != 1 {
		t.Errorf("scheme-2 defaults %+v", c.S2)
	}
}

func TestValidationRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"tiny mesh", func(c *Config) { c.Mesh.Width = 1 }},
		{"huge mesh", func(c *Config) { c.Mesh.Width = 64; c.Mesh.Height = 64 }},
		{"non-pow2 tiles", func(c *Config) { c.Mesh = Mesh{Width: 6, Height: 4} }},
		{"non-pow2 tiles, square", func(c *Config) { c.Mesh = Mesh{Width: 24, Height: 24} }},
		{"odd VCs", func(c *Config) { c.NoC.VCsPerPort = 3 }},
		{"zero buffers", func(c *Config) { c.NoC.BufferDepth = 0 }},
		{"buffers past the ring cursors", func(c *Config) { c.NoC.BufferDepth = 256 }},
		{"narrow flits", func(c *Config) { c.NoC.FlitBits = 32 }},
		{"bad pipeline", func(c *Config) { c.NoC.Pipeline = 3 }},
		{"negative starvation", func(c *Config) { c.NoC.StarvationWindow = -1 }},
		{"bad L1 line", func(c *Config) { c.L1.LineBytes = 48 }},
		{"L1/L2 line mismatch", func(c *Config) { c.L1.LineBytes = 128 }},
		{"L2 zero ways", func(c *Config) { c.L2.Ways = 0 }},
		{"3 controllers", func(c *Config) { c.DRAM.Controllers = 3 }},
		{"non-pow2 banks", func(c *Config) { c.DRAM.BanksPerCtl = 12 }},
		{"zero bus mult", func(c *Config) { c.DRAM.BusMultiplier = 0 }},
		{"tiny row", func(c *Config) { c.DRAM.RowBytes = 32 }},
		{"zero CAS", func(c *Config) { c.DRAM.TCAS = 0 }},
		{"bad interleave", func(c *Config) { c.DRAM.BankInterleaveLines = 12 }},
		{"interleave too big", func(c *Config) { c.DRAM.BankInterleaveLines = 1 << 20 }},
		{"zero drain", func(c *Config) { c.DRAM.WriteDrainHigh = 0 }},
		{"negative starve", func(c *Config) { c.DRAM.StarveLimit = -1 }},
		{"zero window", func(c *Config) { c.CPU.WindowSize = 0 }},
		{"LSQ > window", func(c *Config) { c.CPU.LSQSize = c.CPU.WindowSize + 1 }},
		{"zero MSHR limit", func(c *Config) { c.CPU.MaxOutMiss = 0 }},
		{"S1 zero factor", func(c *Config) { c.S1.Enabled = true; c.S1.ThresholdFactor = 0 }},
		{"S1 zero period", func(c *Config) { c.S1.Enabled = true; c.S1.UpdatePeriod = 0 }},
		{"S2 zero window", func(c *Config) { c.S2.Enabled = true; c.S2.HistoryWindow = 0 }},
		{"S2 zero threshold", func(c *Config) { c.S2.Enabled = true; c.S2.IdleThreshold = 0 }},
		{"no measurement", func(c *Config) { c.Run.MeasureCycles = 0 }},
		{"negative shards", func(c *Config) { c.Run.Shards = -2 }},
		{"too many shards", func(c *Config) { c.Run.Shards = 128 }},
		{"shards > tiles", func(c *Config) { c.Mesh = Mesh{Width: 2, Height: 2}; c.Run.Shards = 8 }},
	}
	for _, tc := range cases {
		cfg := Baseline32()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

// TestValidateVCsPerVNet pins the divisibility rule: the router splits
// VCsPerPort across NumVNets virtual networks by integer division, so any
// remainder would silently strand trailing VCs on every port.
func TestValidateVCsPerVNet(t *testing.T) {
	cases := []struct {
		vcs int
		ok  bool
	}{
		{0, false},
		{1, false},
		{2, true},
		{3, false},
		{4, true},
		{5, false},
		{6, true},
		{7, false},
		{8, true},
		{12, true},
		{14, false}, // 5 ports x 14 VCs no longer fit the routers' 64-bit VC masks
		{-2, false},
	}
	for _, tc := range cases {
		cfg := Baseline32()
		cfg.NoC.VCsPerPort = tc.vcs
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("VCsPerPort=%d: rejected valid config: %v", tc.vcs, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("VCsPerPort=%d: accepted (must be a multiple of %d vnets, at most %d)",
				tc.vcs, NumVNets, MaxVCsPerPort)
		}
	}
}

// TestValidateStarvationWindow pins both ends of the window's range: the
// router adds it to message ages inside a packed arbitration key, so it is
// bounded above as well as below.
func TestValidateStarvationWindow(t *testing.T) {
	cases := []struct {
		window int64
		ok     bool
	}{
		{-1, false},
		{0, true},
		{100, true},
		{MaxStarvationWindow, true},
		{MaxStarvationWindow + 1, false},
		{1 << 62, false},
	}
	for _, tc := range cases {
		for _, mode := range []AntiStarvation{AgeWindow, Batching} {
			cfg := Baseline32()
			cfg.NoC.StarvationMode, cfg.NoC.StarvationWindow = mode, tc.window
			if err := cfg.Validate(); (err == nil) != tc.ok {
				t.Errorf("StarvationWindow=%d mode %d: Validate = %v, want ok=%v", tc.window, mode, err, tc.ok)
			}
		}
	}
}

// TestValidateCheckpointFields covers the checkpoint/resume configuration
// surface. Snapshots are partition-agnostic — the stepping layout (Shards)
// is free to differ between save and restore — so no cross-config
// agreement is enforced here; see TestCheckpointForkEquivalence's
// cross-worker-count modes in internal/sim.
func TestValidateCheckpointFields(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Run)
		wantErr string // substring of the expected error; "" = must validate
	}{
		{"disabled", func(r *Run) {}, ""},
		{"checkpoint at warmup boundary", func(r *Run) {
			r.CheckpointAt = r.WarmupCycles
		}, ""},
		{"checkpoint mid-measurement", func(r *Run) {
			r.CheckpointAt = r.WarmupCycles + r.MeasureCycles/2
		}, ""},
		{"checkpoint at end of window", func(r *Run) {
			r.CheckpointAt = r.WarmupCycles + r.MeasureCycles
		}, ""},
		{"resume at checkpoint", func(r *Run) {
			r.CheckpointAt = r.WarmupCycles
			r.ResumeFrom = r.WarmupCycles
		}, ""},
		{"resume without checkpoint", func(r *Run) {
			r.ResumeFrom = r.WarmupCycles
		}, ""},
		{"negative checkpoint cycle", func(r *Run) {
			r.CheckpointAt = -1
		}, "CheckpointAt"},
		{"negative resume cycle", func(r *Run) {
			r.ResumeFrom = -200_000
		}, "ResumeFrom"},
		{"checkpoint past run window", func(r *Run) {
			r.CheckpointAt = r.WarmupCycles + r.MeasureCycles + 1
		}, "past"},
		{"resume past checkpoint", func(r *Run) {
			r.CheckpointAt = r.WarmupCycles
			r.ResumeFrom = r.WarmupCycles + 1
		}, "resumes past"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Baseline32()
			tc.mutate(&cfg.Run)
			err := cfg.Validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("valid config rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("invalid config accepted")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateShards pins the worker-count rules: any positive count up to
// min(64, tiles) is legal (contiguous cost-balanced ranges replaced the old
// rectangular quadrant split, so power-of-two is no longer required), zero
// selects the sequential stepper, and negative or oversized counts are
// configuration errors.
func TestValidateShards(t *testing.T) {
	cases := []struct {
		name    string
		w, h, k int
		wantErr string // substring of the expected error; "" = must validate
	}{
		{"sequential", 8, 4, 0, ""},
		{"single worker", 8, 4, 1, ""},
		{"pow2 workers", 8, 4, 4, ""},
		{"non-pow2 workers", 8, 4, 3, ""},
		{"non-pow2 workers large", 16, 16, 7, ""},
		{"workers equal tiles", 2, 2, 4, ""},
		{"cap", 16, 16, 64, ""},
		{"negative", 8, 4, -2, "positive"},
		{"above cap", 16, 16, 65, "max 64"},
		{"more workers than tiles", 2, 2, 5, "exceeds the 4 mesh tiles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Baseline32()
			cfg.Mesh = Mesh{Width: tc.w, Height: tc.h}
			cfg.Run.Shards = tc.k
			err := cfg.Validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Shards=%d on %dx%d rejected: %v", tc.k, tc.w, tc.h, err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("Shards=%d on %dx%d accepted", tc.k, tc.w, tc.h)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestMCNodesCorners(t *testing.T) {
	c := Baseline32()
	got := c.MCNodes()
	want := []int{0, 7, 24, 31} // four corners of the 8x4 mesh
	if len(got) != 4 {
		t.Fatalf("%d MC nodes", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MC %d at tile %d, want %d", i, got[i], want[i])
		}
	}
	c16 := Baseline16()
	got16 := c16.MCNodes()
	if len(got16) != 2 || got16[0] != 0 || got16[1] != 15 {
		t.Errorf("16-core MCs at %v, want opposite corners [0 15]", got16)
	}
}

func TestFlitCounts(t *testing.T) {
	c := Baseline32()
	if got := c.RequestFlits(); got != 1 {
		t.Errorf("request flits %d", got)
	}
	if got := c.ResponseFlits(); got != 5 { // header + 512/128
		t.Errorf("response flits %d", got)
	}
	c.NoC.FlitBits = 256
	if got := c.ResponseFlits(); got != 3 {
		t.Errorf("response flits at 256-bit %d", got)
	}
}

func TestWithSchemes(t *testing.T) {
	c := Baseline32().WithSchemes(true, false)
	if !c.S1.Enabled || c.S2.Enabled {
		t.Error("WithSchemes toggles wrong")
	}
	if Baseline32().S1.Enabled {
		t.Error("WithSchemes mutated the preset")
	}
}

func TestCacheSets(t *testing.T) {
	c := Baseline32()
	if got := c.L1.Sets(); got != 512 {
		t.Errorf("L1 sets %d", got)
	}
	if got := c.L2.Sets(); got != 1024 {
		t.Errorf("L2 sets %d", got)
	}
}
