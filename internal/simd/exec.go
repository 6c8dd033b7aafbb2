package simd

import (
	"encoding/json"
	"fmt"
	"strings"

	"nocmem/internal/analytic"
	"nocmem/internal/config"
	"nocmem/internal/exp"
	"nocmem/internal/trace"
	"nocmem/internal/workload"
)

// ResolvedSpec is a RunSpec after validation: profiles looked up, label and
// store key fixed. Both the daemon's local execution path and the
// distributed-sweep worker loop (internal/simdclient) resolve specs through
// ResolveSpec and execute them through ExecuteSpec, so every path computes
// the same key and the same canonical summary bytes for a given spec.
type ResolvedSpec struct {
	Spec     RunSpec
	Cfg      config.Config
	Apps     []trace.Profile
	Label    string
	Key      string
	Estimate bool
}

// ResolveSpec validates one spec and fixes its label and dedup/store key.
func ResolveSpec(sp RunSpec) (ResolvedSpec, error) {
	rp := ResolvedSpec{Spec: sp, Cfg: sp.Config, Estimate: sp.Estimate}
	if err := rp.Cfg.Validate(); err != nil {
		return rp, err
	}
	switch {
	case sp.Workload > 0 && len(sp.Apps) > 0:
		return rp, fmt.Errorf("point names both a workload and an explicit app list")
	case sp.Workload > 0:
		wl, err := workload.Get(sp.Workload)
		if err != nil {
			return rp, err
		}
		if rp.Apps, err = wl.Profiles(); err != nil {
			return rp, err
		}
		rp.Label = wl.Name()
	case len(sp.Apps) > 0:
		for _, name := range sp.Apps {
			p, err := trace.Lookup(name)
			if err != nil {
				return rp, err
			}
			rp.Apps = append(rp.Apps, p)
		}
		rp.Label = "apps:" + strings.Join(sp.Apps, "+")
	default:
		return rp, fmt.Errorf("point names neither a workload nor an app list")
	}
	if len(rp.Apps) > rp.Cfg.Mesh.Nodes() {
		return rp, fmt.Errorf("%d applications for %d tiles", len(rp.Apps), rp.Cfg.Mesh.Nodes())
	}
	rp.Key = exp.RunKey(rp.Cfg, rp.Label)
	if rp.Estimate {
		rp.Key = "estimate|" + rp.Key
	}
	return rp, nil
}

// ExecuteSpec computes one resolved point on the given runner: the
// closed-form analytic estimate when rp.Estimate is set, a (possibly cached
// or forked) simulation otherwise. Returns the canonical summary JSON —
// the bytes every execution path (local daemon, remote worker, direct
// runner) must agree on for a given key. The runner's cache keeps these
// bytes, not the run's Result.
func ExecuteSpec(runner *exp.Runner, rp ResolvedSpec) ([]byte, error) {
	if rp.Estimate {
		est, err := analytic.Predict(rp.Cfg, rp.Apps)
		if err != nil {
			return nil, err
		}
		return json.Marshal(est.Summary())
	}
	return runner.RunSummary(rp.Cfg, rp.Apps, rp.Label)
}
