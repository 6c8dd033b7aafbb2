package nocmem

import (
	"nocmem/internal/analytic"
	"nocmem/internal/sim"
	"nocmem/internal/stats"
)

// Estimate is the closed-form prediction of one configuration produced by the
// analytic model (internal/analytic): per-app IPC and per-leg latencies,
// memory-controller queueing, and network latency, all without simulating a
// single cycle.
type Estimate = analytic.Estimate

// Summary is the JSON-friendly digest of a run (simulated or estimated).
type Summary = sim.Summary

// EstimateApps predicts an explicit application placement (tiles past the end
// of apps stay idle) in closed form.
func EstimateApps(cfg Config, apps []Profile) (*Estimate, error) {
	return analytic.Predict(cfg, apps)
}

// EstimateWorkload predicts one workload on cfg in closed form.
func EstimateWorkload(cfg Config, w Workload) (*Estimate, error) {
	apps, err := w.Profiles()
	if err != nil {
		return nil, err
	}
	return EstimateApps(cfg, apps)
}

// EstimatedWeightedSpeedup predicts WS = sum IPC_shared/IPC_alone for an
// application placement, with both numerator and denominator from the
// analytic model (consistent estimates divide out the model's bias). The
// denominator is the closed-form counterpart of AloneIPC: the application by
// itself on the unprioritized system.
func EstimatedWeightedSpeedup(cfg Config, apps []Profile) (float64, error) {
	e, err := EstimateApps(cfg, apps)
	if err != nil {
		return 0, err
	}
	var shared, alone []float64
	for _, p := range apps {
		if p.Name == "" {
			continue
		}
		a, err := EstimateApps(cfg.WithSchemes(false, false), []Profile{p})
		if err != nil {
			return 0, err
		}
		shared = append(shared, e.Apps[len(shared)].IPC)
		alone = append(alone, a.Apps[0].IPC)
	}
	return stats.WeightedSpeedup(shared, alone)
}
