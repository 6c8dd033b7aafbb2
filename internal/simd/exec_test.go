package simd_test

import (
	"encoding/json"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/simd"
)

// FuzzResolveSpec feeds arbitrary request bytes through the daemon's decode
// and resolve path. ResolveSpec must never panic, and a spec it accepts must
// be runnable and stably keyed: its configuration validates, it places no
// more applications than the mesh has tiles, and resolving it again — directly
// or after the JSON round trip a coordinator's lease puts it through — yields
// the same key.
func FuzzResolveSpec(f *testing.F) {
	for _, cfg := range []config.Config{config.Baseline16(), config.Baseline32()} {
		for _, sp := range []simd.RunSpec{
			{Config: cfg, Workload: 7},
			{Config: cfg, Apps: []string{"mcf", "lbm", "milc"}},
			{Config: cfg, Workload: 1, Estimate: true},
			{Config: cfg, Apps: []string{"libquantum"}, Estimate: true},
		} {
			b, err := json.Marshal(sp)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":3,"apps":["mcf"]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sp simd.RunSpec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		rp, err := simd.ResolveSpec(sp)
		if err != nil {
			return
		}
		if err := rp.Cfg.Validate(); err != nil {
			t.Fatalf("accepted a spec whose config does not validate: %v", err)
		}
		if tiles := rp.Cfg.Mesh.Nodes(); len(rp.Apps) > tiles {
			t.Fatalf("accepted %d applications for %d tiles", len(rp.Apps), tiles)
		}
		again, err := simd.ResolveSpec(sp)
		if err != nil || again.Key != rp.Key {
			t.Fatalf("resolving twice: key %q then %q (err %v)", rp.Key, again.Key, err)
		}
		wire, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		var leased simd.RunSpec
		if err := json.Unmarshal(wire, &leased); err != nil {
			t.Fatalf("accepted spec does not decode its own encoding: %v", err)
		}
		if got, err := simd.ResolveSpec(leased); err != nil || got.Key != rp.Key {
			t.Fatalf("after a JSON round trip: key %q, want %q (err %v)", got.Key, rp.Key, err)
		}
	})
}
