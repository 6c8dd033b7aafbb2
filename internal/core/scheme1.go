// Package core implements the paper's primary contribution: the two
// cooperative network-prioritization schemes.
//
// Scheme-1 (latency balancing, Section 3.1) tags memory *response* messages
// whose so-far delay, observed right after DRAM service, exceeds a
// per-application threshold. The threshold is derived from the application's
// dynamic average round-trip latency (default 1.2x) measured at the core and
// pushed to the memory controllers periodically.
//
// Scheme-2 (bank-load balancing, Section 3.2) tags memory *request* messages
// destined for DRAM banks that look idle from the sending node's local
// vantage point: a per-node Bank History Table counts the requests the node
// sent to each bank within the last T cycles, and a bank with fewer than th
// recent requests is presumed idle.
package core

import (
	"fmt"
	"sync/atomic"

	"nocmem/internal/config"
	"nocmem/internal/noc"
)

// Scheme1 is the response-message latency balancer.
type Scheme1 struct {
	cfg config.Scheme1

	// Core-side state: per-application cumulative average of completed
	// off-chip round-trip delays.
	sum []int64
	n   []int64
	// MC-side state: the last thresholds pushed by the cores. Stale
	// between pushes, exactly like the paper's periodic (per-ms) updates.
	published []int64

	nextPush int64

	// Counters.
	Tagged  int64 // responses marked High
	Checked int64 // responses classified
}

// NewScheme1 builds the balancer for the given number of applications.
func NewScheme1(cfg config.Scheme1, numCores int) *Scheme1 {
	if numCores < 1 {
		panic(fmt.Sprintf("core: scheme-1 over %d cores", numCores))
	}
	s := &Scheme1{
		cfg:       cfg,
		sum:       make([]int64, numCores),
		n:         make([]int64, numCores),
		published: make([]int64, numCores),
		nextPush:  cfg.UpdatePeriod,
	}
	for i := range s.published {
		s.published[i] = cfg.InitialThreshold
	}
	return s
}

// RecordRoundTrip is called at the core when an off-chip access completes,
// with its total end-to-end delay. This updates the core-local average; the
// memory controllers only see it at the next periodic push.
func (s *Scheme1) RecordRoundTrip(coreID int, delay int64) {
	if delay < 0 {
		delay = 0
	}
	s.sum[coreID] += delay
	s.n[coreID]++
}

// Average returns the application's current average round-trip delay as
// maintained at the core (0 until the first completion).
func (s *Scheme1) Average(coreID int) float64 {
	if s.n[coreID] == 0 {
		return 0
	}
	return float64(s.sum[coreID]) / float64(s.n[coreID])
}

// Tick pushes fresh thresholds to the memory controllers when the update
// period elapses. The push messages themselves are a few bytes per core and
// are prioritized in the network (Section 3.1); their bandwidth is treated
// as negligible here.
func (s *Scheme1) Tick(now int64) {
	if now < s.nextPush {
		return
	}
	s.nextPush = now + s.cfg.UpdatePeriod
	for i := range s.published {
		if s.n[i] == 0 {
			continue // keep the seed threshold until data exists
		}
		s.published[i] = int64(s.cfg.ThresholdFactor * s.Average(i))
	}
}

// HasData reports whether some application has completed a round trip. A
// push publishes a measured threshold, and so reads ThresholdFactor, exactly
// when this holds at its cycle; every earlier push leaves the seed thresholds
// in place.
func (s *Scheme1) HasData() bool {
	for _, n := range s.n {
		if n > 0 {
			return true
		}
	}
	return false
}

// NextPush returns the cycle of the next periodic threshold push; Tick is a
// no-op on every earlier cycle.
func (s *Scheme1) NextPush() int64 { return s.nextPush }

// Threshold returns the lateness threshold currently visible at the MCs for
// the given application.
func (s *Scheme1) Threshold(coreID int) int64 { return s.published[coreID] }

// Classify decides the network priority of a response message about to be
// injected by a memory controller, given the message's so-far delay (which
// at that point includes the memory queueing and service time).
//
// Under sharded stepping Classify runs concurrently from the shard workers
// (one per memory-controller-owning shard). published is only written in the
// serial section (Tick) and the counters are plain commutative tallies, so
// atomic increments are the only synchronization needed and the totals are
// independent of shard count.
func (s *Scheme1) Classify(coreID int, soFarAge int64) noc.Priority {
	atomic.AddInt64(&s.Checked, 1)
	if soFarAge > s.published[coreID] {
		atomic.AddInt64(&s.Tagged, 1)
		return noc.High
	}
	return noc.Normal
}
