package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nocmem/internal/config"
)

// modes is one row per router configuration that the quick figure goldens
// (all AgeWindow, X-Y, 4 VCs, depth 5, bypass on) never run, and one per
// priority policy they never run alone (each scheme by itself, and each
// application-aware baseline with the schemes off): the equivalence oracles
// compare these dense = event = sharded within one binary, and this table
// pins their bytes across commits.
var modes = []struct {
	name string
	set  func(*config.Config)
}{
	{"default", func(*config.Config) {}},
	{"batching", func(c *config.Config) {
		c.NoC.StarvationMode = config.Batching
		c.NoC.BatchInterval = 500
	}},
	{"westfirst", func(c *config.Config) { c.NoC.Routing = config.RoutingWestFirst }},
	{"vcs2", func(c *config.Config) { c.NoC.VCsPerPort = 2 }},
	{"vcs8", func(c *config.Config) { c.NoC.VCsPerPort = 8 }},
	{"depth3", func(c *config.Config) { c.NoC.BufferDepth = 3 }},
	{"depth16", func(c *config.Config) { c.NoC.BufferDepth = 16 }},
	{"nobypass", func(c *config.Config) { c.NoC.EnableBypass = false }},
	{"pipeline2", func(c *config.Config) { c.NoC.Pipeline = config.Pipeline2 }},
	{"window100", func(c *config.Config) { c.NoC.StarvationWindow = 100 }},
	{"clockdiv", func(c *config.Config) { c.NoC.ClockDivisors = map[int]int{5: 2, 10: 3} }},
	{"batching_westfirst_div", func(c *config.Config) {
		c.NoC.StarvationMode = config.Batching
		c.NoC.BatchInterval = 300
		c.NoC.Routing = config.RoutingWestFirst
		c.NoC.VCsPerPort = 2
		c.NoC.ClockDivisors = map[int]int{6: 2}
	}},
	{"s1only", func(c *config.Config) { c.S2.Enabled = false }},
	{"s2only", func(c *config.Config) { c.S1.Enabled = false }},
	{"appnet", func(c *config.Config) {
		c.S1.Enabled, c.S2.Enabled = false, false
		c.AppAwareNet = true
	}},
	{"appmem", func(c *config.Config) {
		c.S1.Enabled, c.S2.Enabled = false, false
		c.DRAM.Sched = config.AppAwareMem
	}},
}

// TestRouterModesGolden runs the memory-intensive workload 7, halved onto the
// 16-tile machine with both schemes on (unless the row turns them off), once
// per row of modes and compares the summary JSON with
// testdata/modes/<name>.json. The router rows were written by the simulator of
// dbe616d, before the router's allocators were rewritten, the policy rows by
// that of 3e943c8, before the priority hooks became one decision; regenerate
// them only in a PR that means to change simulated bytes:
//
//	go test ./internal/sim -run TestRouterModesGolden -update
func TestRouterModesGolden(t *testing.T) {
	apps := halved(t, 7)
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := config.Baseline16().WithSchemes(true, true)
			cfg.Run.WarmupCycles = 2_000
			cfg.Run.MeasureCycles = 10_000
			m.set(&cfg)
			s, err := New(cfg, apps)
			if err != nil {
				t.Fatal(err)
			}
			var j bytes.Buffer
			if err := s.Run().WriteJSON(&j); err != nil {
				t.Fatal(err)
			}
			got := j.Bytes()
			path := filepath.Join("testdata", "modes", m.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("summary differs from %s\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
			}
		})
	}
}
