package nocmem

import (
	"fmt"

	"nocmem/internal/analytic"
	"nocmem/internal/sim"
	"nocmem/internal/stats"
)

// Estimate is the closed-form prediction of one configuration produced by the
// analytic model (internal/analytic): per-app IPC and per-leg latencies,
// memory-controller queueing, and network latency, all without simulating a
// single cycle.
type Estimate = analytic.Estimate

// EstimateReport is the outcome of one model-vs-simulator cross-check.
type EstimateReport = analytic.Report

// Summary is the JSON-friendly digest of a run (simulated or estimated).
type Summary = sim.Summary

// Divergence bands for CrossCheckRun: the model holds EstimateCalibratedBand
// per leg on the golden scenarios; EstimateOracleBand is the looser tripwire
// used to spot simulator bugs rather than model error.
const (
	EstimateCalibratedBand = analytic.CalibratedBand
	EstimateOracleBand     = analytic.OracleBand
)

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

// EstimatedAloneIPC predicts the application's IPC when it runs alone on the
// unprioritized system — the closed-form counterpart of AloneIPC.
func EstimatedAloneIPC(cfg Config, app Profile) (float64, error) {
	e, err := EstimateApps(cfg.WithSchemes(false, false), []Profile{app})
	if err != nil {
		return 0, err
	}
	if len(e.Apps) == 0 || e.Apps[0].IPC <= 0 {
		return 0, fmt.Errorf("nocmem: estimated alone IPC of %s is not positive", app.Name)
	}
	return e.Apps[0].IPC, nil
}

// EstimatedWeightedSpeedup predicts WS = sum IPC_shared/IPC_alone for an
// application placement, with both numerator and denominator from the
// analytic model (consistent estimates divide out the model's bias).
func EstimatedWeightedSpeedup(cfg Config, apps []Profile) (float64, error) {
	e, err := EstimateApps(cfg, apps)
	if err != nil {
		return 0, err
	}
	var shared, alone []float64
	i := 0
	for _, p := range apps {
		if p.Name == "" {
			continue
		}
		a, err := EstimatedAloneIPC(cfg, p)
		if err != nil {
			return 0, err
		}
		shared = append(shared, e.Apps[i].IPC)
		alone = append(alone, a)
		i++
	}
	return stats.WeightedSpeedup(shared, alone)
}

// CrossCheckRun is the divergence oracle: it predicts the run's configuration
// with the analytic model and compares the prediction against the simulated
// result, flagging per-leg divergence beyond band and structural anomalies
// (tiles the model expects to make progress but the simulator reports as
// silent). Use EstimateOracleBand to hunt simulator bugs,
// EstimateCalibratedBand to gate model accuracy.
func CrossCheckRun(cfg Config, apps []Profile, r *Result, band float64) (*EstimateReport, error) {
	return analytic.CrossCheck(cfg, apps, r.Summary(), band)
}
