package dram

import (
	"fmt"

	"nocmem/internal/config"
)

// Request is one memory access handed to a controller.
type Request struct {
	Addr    uint64
	IsWrite bool
	Payload any // opaque transaction handle owned by the caller

	// Sensitive marks requests of latency-sensitive applications; only
	// the AppAwareMem scheduling policy consults it.
	Sensitive bool

	// Filled in by the controller.
	Bank        int
	Row         int64
	EnqueuedAt  int64 // cycle the request entered the controller
	ScheduledAt int64 // cycle the bank started serving it
	DoneAt      int64 // cycle service (including data transfer) finished
}

// QueueDelay returns the cycles the request waited before service.
func (r *Request) QueueDelay() int64 { return r.ScheduledAt - r.EnqueuedAt }

// ServiceDelay returns the cycles the DRAM spent serving the request.
func (r *Request) ServiceDelay() int64 { return r.DoneAt - r.ScheduledAt }

// TotalDelay returns the full memory delay (queueing + service), which is
// what the paper's "Mem" leg measures and what the MC adds to a response's
// age field.
func (r *Request) TotalDelay() int64 { return r.DoneAt - r.EnqueuedAt }

// Stats counts controller events since the last reset.
type Stats struct {
	Reads        int64
	Writes       int64
	RowHits      int64
	RowMisses    int64 // closed-row activations
	RowConflicts int64 // wrong-row precharge+activate
	QueueWait    int64 // accumulated queueing cycles
	Refreshes    int64
	BusBusy      int64 // cycles the shared channel bus carried data
	QueueDepth   int64 // sum of per-sample pending-request counts
	QueueSamples int64
}

// RowHitRate returns the fraction of accesses served from an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// AvgQueueDepth returns the average number of pending requests per sample
// across the whole controller.
func (s Stats) AvgQueueDepth() float64 {
	if s.QueueSamples == 0 {
		return 0
	}
	return float64(s.QueueDepth) / float64(s.QueueSamples)
}

type bank struct {
	openRow   int64 // -1 = closed (precharged)
	busyUntil int64 // bank occupied through this cycle (exclusive)
	reads     []*Request
	writes    []*Request
	inFlight  *Request

	idleSamples int64
	idleHits    int64
}

func (b *bank) pending() int { return len(b.reads) + len(b.writes) }

// Controller models one memory channel: a set of DRAM banks behind a shared
// data bus, scheduled with FR-FCFS (row hits first, then oldest), plus
// periodic refresh. Completion is reported through a callback so the caller
// (the simulator's MC node) can inject the response into the network.
type Controller struct {
	id    int
	cfg   config.DRAM
	banks []bank

	busFreeAt   int64
	nextRefresh int64

	// starveLimit forces oldest-first scheduling for any request that has
	// waited this long, bounding FR-FCFS starvation.
	starveLimit int64

	onComplete func(*Request, int64)
	stats      Stats

	sampleEvery int64
	nextSample  int64
	idleSeries  func(cycle int64, avgIdle float64)

	// ticks counts Tick invocations (DebugTicks).
	ticks int64
}

// NewController builds a channel controller. onComplete is invoked from Tick
// for every finished request (reads and writes alike), with the current
// cycle.
func NewController(cfg config.DRAM, id int, onComplete func(*Request, int64)) *Controller {
	c := &Controller{
		id:          id,
		cfg:         cfg,
		banks:       make([]bank, cfg.BanksPerCtl),
		starveLimit: cfg.StarveLimit,
		onComplete:  onComplete,
		sampleEvery: 100,
	}
	if c.starveLimit == 0 {
		c.starveLimit = 1_500
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	if cfg.RefreshPeriod > 0 {
		c.nextRefresh = cfg.RefreshPeriod
	}
	return c
}

// SetIdleSeries registers a sink receiving the controller-average idleness
// sample at every monitoring interval (used by Figure 14).
func (c *Controller) SetIdleSeries(f func(cycle int64, avgIdle float64)) { c.idleSeries = f }

// Enqueue accepts a request at the given cycle. The bank and row are decoded
// by the caller via AddrMap and must be pre-filled in Bank/Row. The request
// becomes schedulable after the fixed controller latency.
func (c *Controller) Enqueue(r *Request, now int64) error {
	if r.Bank < 0 || r.Bank >= len(c.banks) {
		return fmt.Errorf("dram: controller %d has no bank %d", c.id, r.Bank)
	}
	b := &c.banks[r.Bank]
	if c.cfg.QueueCap > 0 && b.pending() >= c.cfg.QueueCap {
		return fmt.Errorf("dram: controller %d bank %d queue full", c.id, r.Bank)
	}
	r.EnqueuedAt = now
	if r.IsWrite {
		b.writes = append(b.writes, r)
	} else {
		b.reads = append(b.reads, r)
	}
	return nil
}

// PendingAll returns the total number of waiting requests across banks.
func (c *Controller) PendingAll() int {
	n := 0
	for i := range c.banks {
		n += c.banks[i].pending()
		if c.banks[i].inFlight != nil {
			n++
		}
	}
	return n
}

// memCycles converts memory-controller cycles to CPU cycles.
func (c *Controller) memCycles(n int) int64 { return int64(n) * int64(c.cfg.BusMultiplier) }

// Tick advances the controller by one CPU cycle: finishes in-flight
// requests, refreshes if due, schedules newly-ready requests with FR-FCFS,
// and samples bank idleness.
func (c *Controller) Tick(now int64) {
	c.ticks++
	if c.nextRefresh > 0 && now >= c.nextRefresh {
		c.refresh(now)
		c.nextRefresh = now + c.cfg.RefreshPeriod
	}

	for i := range c.banks {
		b := &c.banks[i]
		if b.inFlight != nil && now >= b.inFlight.DoneAt {
			done := b.inFlight
			b.inFlight = nil
			c.onComplete(done, now)
		}
	}

	for i := range c.banks {
		c.schedule(i, now)
	}

	if now >= c.nextSample {
		c.sampleIdleness(now)
		c.nextSample = now + c.sampleEvery
	}
}

// NextWake returns the earliest cycle at which the controller can have any
// effect, assuming nothing new is enqueued, so that the simulator may skip
// its ticks until then. Every per-cycle decision in Tick is governed by an
// exact timer: a completion fires at DoneAt; a bank with waiters issues the
// moment it is free and a request is past the controller latency (the shared
// bus delays only the transfer, not the issue, and the starvation and
// write-drain rules change which request is picked, never when); refresh and
// idleness sampling are periodic. Queues are FIFO by arrival (picks preserve
// order), so the head entries carry the earliest readiness times. ok is
// false when the controller has work this very cycle and must keep ticking.
func (c *Controller) NextWake(now int64) (wake int64, ok bool) {
	wake = c.nextSample
	if c.nextRefresh > 0 && c.nextRefresh < wake {
		wake = c.nextRefresh
	}
	for i := range c.banks {
		b := &c.banks[i]
		if b.inFlight != nil {
			// Completion; any waiters are reconsidered that same cycle.
			if b.inFlight.DoneAt < wake {
				wake = b.inFlight.DoneAt
			}
			continue
		}
		if b.pending() == 0 {
			continue
		}
		// Idle bank with waiters: next issue is when the bank frees
		// (post-refresh occupancy) or the earliest request becomes ready.
		next := b.busyUntil
		if next <= now {
			next = int64(1)<<62 - 1
			if len(b.reads) > 0 {
				next = b.reads[0].EnqueuedAt + int64(c.cfg.CtlLatency)
			}
			if len(b.writes) > 0 {
				if t := b.writes[0].EnqueuedAt + int64(c.cfg.CtlLatency); t < next {
					next = t
				}
			}
		}
		if next <= now {
			return 0, false // issuable right now; keep ticking
		}
		if next < wake {
			wake = next
		}
	}
	if wake <= now {
		return 0, false
	}
	return wake, true
}

// DebugTicks returns how many times Tick ran.
func (c *Controller) DebugTicks() int64 { return c.ticks }

// frfcfsPick returns the scheduling choice within one queue under the
// configured policy. For FR-FCFS: the oldest row-buffer hit, or the oldest
// ready request when there is no hit or when the oldest request has starved
// past the limit. For FCFS: strictly the oldest ready request. For
// AppAwareMem: FR-FCFS restricted to latency-sensitive requests when any is
// ready, else FR-FCFS over the rest; the starvation cap spans both classes.
// Returns -1 when nothing is ready.
func (c *Controller) frfcfsPick(q []*Request, openRow, now int64) int {
	ready := func(r *Request) bool { return now >= r.EnqueuedAt+int64(c.cfg.CtlLatency) }
	pick, oldest := -1, -1
	pickSens, oldestSens := -1, -1
	for j, r := range q {
		if !ready(r) {
			continue
		}
		if oldest == -1 {
			oldest = j
		}
		if r.Row == openRow && pick == -1 {
			pick = j
		}
		if r.Sensitive {
			if oldestSens == -1 {
				oldestSens = j
			}
			if r.Row == openRow && pickSens == -1 {
				pickSens = j
			}
		}
	}
	if oldest == -1 {
		return -1
	}
	if now-q[oldest].EnqueuedAt > c.starveLimit {
		return oldest
	}
	switch c.cfg.Sched {
	case config.FCFS:
		return oldest
	case config.AppAwareMem:
		if pickSens != -1 {
			return pickSens
		}
		if oldestSens != -1 {
			return oldestSens
		}
	}
	if pick == -1 {
		pick = oldest
	}
	return pick
}

// schedule picks the next request for bank i if the bank is free. Reads have
// priority; writes drain opportunistically when no read is ready, or
// forcibly once the write queue passes the high watermark.
func (c *Controller) schedule(i int, now int64) {
	b := &c.banks[i]
	if b.inFlight != nil || now < b.busyUntil || b.pending() == 0 {
		return
	}

	var q *[]*Request
	pick := -1
	if len(b.writes) >= c.cfg.WriteDrainHigh {
		if pick = c.frfcfsPick(b.writes, b.openRow, now); pick >= 0 {
			q = &b.writes
		}
	}
	if pick < 0 {
		if pick = c.frfcfsPick(b.reads, b.openRow, now); pick >= 0 {
			q = &b.reads
		}
	}
	if pick < 0 {
		if pick = c.frfcfsPick(b.writes, b.openRow, now); pick >= 0 {
			q = &b.writes
		}
	}
	if pick < 0 {
		return
	}

	r := (*q)[pick]
	*q = append((*q)[:pick], (*q)[pick+1:]...)

	var access int64
	switch {
	case b.openRow == r.Row:
		access = c.memCycles(c.cfg.TCAS)
		c.stats.RowHits++
	case b.openRow == -1:
		access = c.memCycles(c.cfg.TActivate + c.cfg.TCAS)
		c.stats.RowMisses++
	default:
		access = c.memCycles(c.cfg.TPrecharge + c.cfg.TActivate + c.cfg.TCAS)
		c.stats.RowConflicts++
	}
	b.openRow = r.Row

	// The data transfer must also win the shared channel bus.
	transferStart := now + access
	if transferStart < c.busFreeAt {
		transferStart = c.busFreeAt
	}
	transferEnd := transferStart + c.memCycles(c.cfg.TBurst)
	c.busFreeAt = transferEnd
	c.stats.BusBusy += c.memCycles(c.cfg.TBurst)

	r.ScheduledAt = now
	r.DoneAt = transferEnd
	b.busyUntil = transferEnd
	b.inFlight = r

	c.stats.QueueWait += r.QueueDelay()
	if r.IsWrite {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
}

// refresh closes every row and occupies every bank for the refresh duration.
func (c *Controller) refresh(now int64) {
	dur := c.memCycles(c.cfg.RefreshCycles)
	for i := range c.banks {
		b := &c.banks[i]
		start := now
		if b.busyUntil > start {
			start = b.busyUntil
		}
		if b.inFlight != nil && b.inFlight.DoneAt > start {
			start = b.inFlight.DoneAt
		}
		b.busyUntil = start + dur
		b.openRow = -1
	}
	c.stats.Refreshes++
}

// sampleIdleness records, for each bank, whether it is idle right now
// (empty queue and nothing in flight) — the paper's idleness metric.
func (c *Controller) sampleIdleness(now int64) {
	var idle int
	for i := range c.banks {
		b := &c.banks[i]
		b.idleSamples++
		c.stats.QueueDepth += int64(b.pending())
		c.stats.QueueSamples++
		if b.pending() == 0 && b.inFlight == nil {
			b.idleHits++
			idle++
		}
	}
	if c.idleSeries != nil {
		c.idleSeries(now, float64(idle)/float64(len(c.banks)))
	}
}

// Idleness returns the fraction of monitoring samples at which each bank was
// idle (Figure 6 / Figure 13).
func (c *Controller) Idleness() []float64 {
	out := make([]float64, len(c.banks))
	for i := range c.banks {
		b := &c.banks[i]
		if b.idleSamples > 0 {
			out[i] = float64(b.idleHits) / float64(b.idleSamples)
		}
	}
	return out
}

// Stats returns a copy of the event counters.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats zeroes event counters and idleness samples (warmup boundary).
func (c *Controller) ResetStats() {
	c.stats = Stats{}
	for i := range c.banks {
		c.banks[i].idleSamples = 0
		c.banks[i].idleHits = 0
	}
}
