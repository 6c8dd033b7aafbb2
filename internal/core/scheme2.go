package core

import (
	"fmt"
	"sync/atomic"

	"nocmem/internal/config"
	"nocmem/internal/noc"
)

// BankHistory is one node's Bank History Table: for every (controller, bank)
// pair it remembers the timestamps of the last th off-chip requests the node
// sent there, enough to answer "did I send fewer than th requests to this
// bank in the last T cycles?".
type BankHistory struct {
	window int64
	th     int
	stamps [][]int64 // [bank][th] ring of send times, -1 = never
	pos    []int
}

// NewBankHistory builds a table over the given number of global banks.
func NewBankHistory(banks int, window int64, th int) *BankHistory {
	if banks < 1 || window <= 0 || th < 1 {
		panic(fmt.Sprintf("core: bad bank history shape banks=%d window=%d th=%d", banks, window, th))
	}
	h := &BankHistory{window: window, th: th, stamps: make([][]int64, banks), pos: make([]int, banks)}
	backing := make([]int64, banks*th)
	for i := range backing {
		backing[i] = -1
	}
	for b := range h.stamps {
		h.stamps[b] = backing[b*th : (b+1)*th : (b+1)*th]
	}
	return h
}

// Record notes that a request to the given bank was sent at the given cycle.
func (h *BankHistory) Record(bank int, now int64) {
	h.stamps[bank][h.pos[bank]] = now
	h.pos[bank] = (h.pos[bank] + 1) % h.th
}

// Idle reports whether fewer than th requests were sent to the bank within
// the last window cycles — the node's local estimate that the bank is idle.
//
// The window is pinned as the half-open interval (now-window, now]: a stamp
// counts as recent iff now-t < window, so a request sent exactly window
// cycles ago has just aged out. Tests lock this boundary down at the
// paper's T=2000; changing it silently shifts every Scheme-2 tagging
// decision.
func (h *BankHistory) Idle(bank int, now int64) bool {
	recent := 0
	for _, t := range h.stamps[bank] {
		if t >= 0 && now-t < h.window {
			recent++
		}
	}
	return recent < h.th
}

// Scheme2 is the request-message bank-load balancer: one BankHistory per
// node, consulted when an L2 miss generates an off-chip request.
type Scheme2 struct {
	cfg    config.Scheme2
	tables []*BankHistory

	Tagged  int64
	Checked int64
}

// NewScheme2 builds the balancer for the given node and global-bank counts.
func NewScheme2(cfg config.Scheme2, nodes, banks int) *Scheme2 {
	s := &Scheme2{cfg: cfg, tables: make([]*BankHistory, nodes)}
	for i := range s.tables {
		s.tables[i] = NewBankHistory(banks, cfg.HistoryWindow, cfg.IdleThreshold)
	}
	return s
}

// Classify decides the priority of an off-chip request injected at the given
// node toward the given global bank, and records the send in the node's
// table.
//
// Under sharded stepping Classify runs concurrently from the shard workers,
// always with node = the injecting L2 tile, so each table is only touched by
// its owning shard; the counters are commutative tallies kept atomic, making
// the totals independent of shard count. A nil Scheme2 (disabled) answers
// noc.Normal and records nothing.
func (s *Scheme2) Classify(node, bank int, now int64) noc.Priority {
	if s == nil {
		return noc.Normal
	}
	atomic.AddInt64(&s.Checked, 1)
	t := s.tables[node]
	idle := t.Idle(bank, now)
	t.Record(bank, now)
	if idle {
		atomic.AddInt64(&s.Tagged, 1)
		return noc.High
	}
	return noc.Normal
}
