package core

import (
	"sort"

	"nocmem/internal/noc"
)

// AppAware is the application-aware network prioritization baseline the
// paper contrasts with (Section 2.3, citing Das et al.): applications are
// ranked by memory intensity and ALL packets of the less-intensive half are
// prioritized in the network, on the rationale that each of their few
// off-chip requests is likely a bottleneck. Unlike Scheme-1/2 it is
// oblivious to the latency each individual message has actually accumulated
// and to the momentary bank load.
type AppAware struct {
	pri []noc.Priority
}

// NewAppAware ranks the applications by the given memory intensities
// (misses per kilo-instruction; 0 or NaN-free for idle tiles, which are
// ignored). Applications strictly below the median intensity of the active
// ones get high priority.
func NewAppAware(mpki []float64, active []bool) *AppAware {
	a := &AppAware{pri: make([]noc.Priority, len(mpki))}
	var vals []float64
	for i, on := range active {
		if on {
			vals = append(vals, mpki[i])
		}
	}
	if len(vals) == 0 {
		return a
	}
	sort.Float64s(vals)
	median := vals[len(vals)/2]
	for i, on := range active {
		if on && mpki[i] < median {
			a.pri[i] = noc.High
		}
	}
	return a
}

// Priority returns the static network priority of every packet belonging to
// the given application.
func (a *AppAware) Priority(coreID int) noc.Priority {
	if a == nil || coreID < 0 || coreID >= len(a.pri) {
		return noc.Normal
	}
	return a.pri[coreID]
}
