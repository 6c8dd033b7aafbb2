// Package cpu models the out-of-order cores of the target system
// (Section 2.3): a fixed-size instruction window (ROB) filled at a given
// width, in-order commit, and memory-level parallelism bounded by the LSQ
// size and the L1 MSHRs. A load that completes late blocks the window head
// and stalls the application — precisely the bottleneck behaviour the
// paper's Scheme-1 targets.
package cpu

import (
	"fmt"
	"math"

	"nocmem/internal/config"
	"nocmem/internal/trace"
)

// IssueFunc sends one memory access into the memory hierarchy. slot is the
// ROB slot the access occupies; the hierarchy must call Complete(slot, cycle)
// exactly once, at the cycle the access's data is available. Carrying the
// slot as plain data (rather than a completion closure) keeps in-flight
// accesses serializable for checkpointing. The return value is false when
// the hierarchy cannot accept the access this cycle (e.g. all L1 MSHRs
// busy); the core then stalls and retries.
type IssueFunc func(addr uint64, isWrite bool, slot int) bool

type robEntry struct {
	isMem  bool
	done   bool
	doneAt int64
}

// Stats counts core events within the current measurement window.
type Stats struct {
	Cycles       int64
	Retired      int64
	MemRetired   int64
	FetchStalls  int64 // cycles fetch was blocked (window/LSQ/MSHR full)
	WindowStalls int64 // cycles commit was blocked by an unfinished head
	OutstandSum  int64 // sum over cycles of in-flight memory instructions
}

// IPC returns retired instructions per cycle in the window.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// MLP returns the time-weighted average number of in-flight memory
// instructions (the memory-level parallelism of Section 2.3).
func (s Stats) MLP() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.OutstandSum) / float64(s.Cycles)
}

// Core is one simulated out-of-order core. Not safe for concurrent use.
type Core struct {
	id    int
	cfg   config.CPU
	src   trace.Source
	issue IssueFunc

	rob   []robEntry
	head  int
	count int

	memInFlight int

	pending    trace.Instr
	hasPending bool

	// refused records that the last tick's fetch stopped on a memory access
	// the hierarchy would not take. Derived state: every Tick recomputes it,
	// so a restored core relearns it on its first tick.
	refused bool

	stats Stats
}

// New builds a core running the given instruction stream.
func New(id int, cfg config.CPU, src trace.Source, issue IssueFunc) *Core {
	if src == nil || issue == nil {
		panic(fmt.Sprintf("cpu: core %d missing instruction source or issue path", id))
	}
	return &Core{id: id, cfg: cfg, src: src, issue: issue, rob: make([]robEntry, cfg.WindowSize)}
}

// ID returns the core's tile index.
func (c *Core) ID() int { return c.id }

// Complete marks the in-flight memory access in the given ROB slot done at
// cycle. A slot holds at most one in-flight access (it is reused only after
// commit, which requires done), so a slot is never completed twice.
func (c *Core) Complete(slot int, cycle int64) {
	e := &c.rob[slot]
	e.done = true
	e.doneAt = cycle
	c.memInFlight--
}

// Tick advances the core one cycle: commit in order, then fetch/issue.
func (c *Core) Tick(now int64) {
	c.stats.Cycles++
	c.stats.OutstandSum += int64(c.memInFlight)
	c.commit(now)
	c.fetch(now)
}

func (c *Core) commit(now int64) {
	for i := 0; i < c.cfg.Width && c.count > 0; i++ {
		e := &c.rob[c.head]
		if !e.done || now < e.doneAt {
			if c.count == c.cfg.WindowSize {
				c.stats.WindowStalls++
			}
			return
		}
		if e.isMem {
			c.stats.MemRetired++
		}
		c.head = (c.head + 1) % len(c.rob)
		c.count--
		c.stats.Retired++
	}
}

func (c *Core) fetch(now int64) {
	c.refused = false
	for i := 0; i < c.cfg.Width; i++ {
		if c.count == c.cfg.WindowSize {
			c.stats.FetchStalls++
			return
		}
		if !c.hasPending {
			c.pending = c.src.Next()
			c.hasPending = true
		}
		in := c.pending
		slot := (c.head + c.count) % len(c.rob)
		if !in.IsMem {
			c.rob[slot] = robEntry{done: true, doneAt: now + c.cfg.NonMemLat}
			c.count++
			c.hasPending = false
			continue
		}
		if c.memInFlight >= c.cfg.LSQSize {
			c.stats.FetchStalls++
			return
		}
		e := &c.rob[slot]
		*e = robEntry{isMem: true} // written before issue so a same-cycle completion is kept
		accepted := c.issue(in.Addr, in.IsStore, slot)
		if !accepted {
			c.refused = true
			c.stats.FetchStalls++
			return
		}
		c.count++
		c.memInFlight++
		c.hasPending = false
	}
}

// SleepUntil reports whether the core is stalled in a way that makes its
// per-cycle effects closed-form (see CatchUpStall), so the simulator may
// elide its ticks: commit cannot retire — the window is empty or its head
// unfinished — and fetch cannot place an instruction. Fetch is stuck either
// on a full window (the hard stall) or on a resource: the next instruction is
// a memory access that the LSQ has no room for or that the hierarchy refused
// last tick (Refused). Neither resource frees itself: LSQ room and MSHR
// entries come back only through Complete calls and fills, which reach the
// core through its owning tile and re-activate it first.
//
// The returned cycle is when the head becomes committable; math.MaxInt64
// means the core waits on a memory completion alone.
func (c *Core) SleepUntil(now int64) (wake int64, ok bool) {
	if c.count != c.cfg.WindowSize &&
		!(c.hasPending && c.pending.IsMem && (c.refused || c.memInFlight >= c.cfg.LSQSize)) {
		return 0, false
	}
	if c.count == 0 {
		return math.MaxInt64, true
	}
	e := &c.rob[c.head]
	if !e.done {
		return math.MaxInt64, true
	}
	if e.doneAt <= now {
		return 0, false
	}
	return e.doneAt, true
}

// Refused reports whether the last tick's fetch ended on a memory access the
// hierarchy refused. While the core sleeps on such a stall, every elided tick
// would have re-issued — and been refused — the same access; the tile replays
// the hierarchy's side of those retries next to CatchUpStall.
func (c *Core) Refused() bool { return c.refused }

// CatchUpStall accounts k elided ticks during which the core was provably
// stalled (SleepUntil returned ok and no completion fired): each such cycle
// the dense loop would add exactly one fetch stall, memInFlight to the
// outstanding-instruction integral, one window stall when the window is full,
// and nothing else.
func (c *Core) CatchUpStall(k int64) {
	c.stats.Cycles += k
	c.stats.OutstandSum += k * int64(c.memInFlight)
	c.stats.FetchStalls += k
	if c.count == c.cfg.WindowSize {
		c.stats.WindowStalls += k
	}
}

// Outstanding returns the number of in-flight memory instructions.
func (c *Core) Outstanding() int { return c.memInFlight }

// WindowOccupancy returns the number of instructions in the ROB.
func (c *Core) WindowOccupancy() int { return c.count }

// Stats returns a copy of the window counters.
func (c *Core) Stats() Stats { return c.stats }

// ResetStats zeroes the counters at the warmup/measurement boundary.
func (c *Core) ResetStats() { c.stats = Stats{} }
