package dram

import (
	"testing"

	"nocmem/internal/config"
)

// completion is one onComplete invocation, in order.
type completion struct {
	addr  uint64
	write bool
	at    int64
}

// wakePair is a controller ticked only at its own NextWake deadlines plus the
// twin, ticked every cycle, that serves as its reference.
type wakePair struct {
	chain, ref   *Controller
	chainC, refC []completion
}

func newWakePair(cfg config.DRAM) *wakePair {
	p := &wakePair{}
	p.chain = NewController(cfg, 0, func(r *Request, now int64) {
		p.chainC = append(p.chainC, completion{r.Addr, r.IsWrite, now})
	})
	p.ref = NewController(cfg, 0, func(r *Request, now int64) {
		p.refC = append(p.refC, completion{r.Addr, r.IsWrite, now})
	})
	return p
}

// enqueue files the same request into both controllers.
func (p *wakePair) enqueue(t *testing.T, addr uint64, write bool, bank int, row, now int64) {
	t.Helper()
	for _, c := range []*Controller{p.chain, p.ref} {
		r := &Request{Addr: addr, IsWrite: write, Bank: bank, Row: row}
		if err := c.Enqueue(r, now); err != nil {
			t.Fatal(err)
		}
	}
}

// compare checks that both controllers reached the same externally-visible
// and internal timing state: completion log, event counters, bus and per-bank
// row/occupancy state, and queue depths.
func (p *wakePair) compare(t *testing.T) {
	t.Helper()
	if len(p.chainC) != len(p.refC) {
		t.Fatalf("wake chain produced %d completions, ticked reference %d", len(p.chainC), len(p.refC))
	}
	for i := range p.chainC {
		if p.chainC[i] != p.refC[i] {
			t.Fatalf("completion %d: wake chain %+v, reference %+v", i, p.chainC[i], p.refC[i])
		}
	}
	if p.chain.stats != p.ref.stats {
		t.Fatalf("stats diverged:\nwake chain %+v\nreference  %+v", p.chain.stats, p.ref.stats)
	}
	if p.chain.busFreeAt != p.ref.busFreeAt || p.chain.nextRefresh != p.ref.nextRefresh ||
		p.chain.nextSample != p.ref.nextSample {
		t.Fatalf("timers diverged: bus %d/%d refresh %d/%d sample %d/%d",
			p.chain.busFreeAt, p.ref.busFreeAt, p.chain.nextRefresh, p.ref.nextRefresh,
			p.chain.nextSample, p.ref.nextSample)
	}
	for i := range p.chain.banks {
		f, r := &p.chain.banks[i], &p.ref.banks[i]
		if f.openRow != r.openRow || f.busyUntil != r.busyUntil ||
			len(f.reads) != len(r.reads) || len(f.writes) != len(r.writes) ||
			(f.inFlight == nil) != (r.inFlight == nil) {
			t.Fatalf("bank %d diverged: wake chain %+v, reference %+v", i, f, r)
		}
	}
}

// run ticks one controller through (now, before) the way the event stepper
// does — at each deadline NextWake names, or the next cycle when it names
// none — ticks the twin every cycle of the same window, then compares.
func (p *wakePair) run(t *testing.T, now, before int64) {
	t.Helper()
	for cur := now; ; {
		next, ok := p.chain.NextWake(cur)
		if !ok {
			next = cur + 1
		}
		if next >= before {
			break
		}
		p.chain.Tick(next)
		cur = next
	}
	for c := now + 1; c < before; c++ {
		p.ref.Tick(c)
	}
	p.compare(t)
}

// TestNextWakeChain pins NextWake's exactness contract: a controller ticked
// only at the deadlines it names keeps the timeline of its twin ticked every
// cycle, across the WriteDrainHigh watermark, row-locality extremes, bank
// interleavings, refresh interference and pure idleness.
func TestNextWakeChain(t *testing.T) {
	base := config.Baseline32().DRAM
	cases := []struct {
		name   string
		cfg    func() config.DRAM
		fill   func(t *testing.T, p *wakePair)
		window int64
	}{
		{
			// Below the watermark writes drain opportunistically (no reads
			// around to beat them); the wake chain must issue them at
			// the same cycles.
			name: "below_watermark_row_hits",
			cfg:  func() config.DRAM { return base },
			fill: func(t *testing.T, p *wakePair) {
				for i := 0; i < 8; i++ {
					p.enqueue(t, uint64(i)*64, true, 0, 7, 0)
				}
			},
			window: 6_000,
		},
		{
			// Past the watermark the forced-drain branch picks writes first;
			// same-row traffic exercises the pure row-hit service time.
			name: "above_watermark_row_hits",
			cfg:  func() config.DRAM { return base },
			fill: func(t *testing.T, p *wakePair) {
				for i := 0; i < base.WriteDrainHigh+8; i++ {
					p.enqueue(t, uint64(i)*64, true, 0, 3, 0)
				}
			},
			window: 10_000,
		},
		{
			// Alternating rows in one bank: every access is a row conflict
			// (precharge+activate+CAS), the slowest drain timeline.
			name: "row_conflicts",
			cfg:  func() config.DRAM { return base },
			fill: func(t *testing.T, p *wakePair) {
				for i := 0; i < 24; i++ {
					p.enqueue(t, uint64(i)*64, true, 0, int64(i%2), 0)
				}
			},
			window: 20_000,
		},
		{
			// Writes spread over four banks: drains proceed in parallel but
			// serialize on the shared data bus, so bank issue times couple
			// through busFreeAt.
			name: "bank_interleaved_bus_contention",
			cfg:  func() config.DRAM { return base },
			fill: func(t *testing.T, p *wakePair) {
				for i := 0; i < 40; i++ {
					p.enqueue(t, uint64(i)*64, true, i%4, int64(i%3), 0)
				}
			},
			window: 15_000,
		},
		{
			// A refresh lands mid-drain: rows close, banks stall for the
			// refresh duration, then draining resumes. The period is off
			// the 100-cycle idleness-sample grid, so only the refresh
			// deadline itself can wake the controller on time.
			name: "refresh_mid_drain",
			cfg: func() config.DRAM {
				c := base
				c.RefreshPeriod = 530
				c.RefreshCycles = 20
				return c
			},
			fill: func(t *testing.T, p *wakePair) {
				for i := 0; i < 20; i++ {
					p.enqueue(t, uint64(i)*64, true, i%2, 1, 0)
				}
			},
			window: 12_000,
		},
		{
			// Reads beside a write drain, over two banks and alternating
			// rows: the FR-FCFS pick and the forced drain interleave, and
			// every read completion is a deadline of its own.
			name: "reads_beside_drain",
			cfg:  func() config.DRAM { return base },
			fill: func(t *testing.T, p *wakePair) {
				for i := 0; i < 30; i++ {
					p.enqueue(t, uint64(i)*64, i%3 != 0, i%2, int64(i%4), 0)
				}
			},
			window: 15_000,
		},
		{
			// Nothing queued at all: only idleness samples and refreshes,
			// off the sample grid, fire; stats and timers must advance
			// identically.
			name: "idle_only",
			cfg: func() config.DRAM {
				c := base
				c.RefreshPeriod = 1_030
				c.RefreshCycles = 10
				return c
			},
			fill:   func(t *testing.T, p *wakePair) {},
			window: 5_000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newWakePair(tc.cfg())
			tc.fill(t, p)
			// Both controllers tick at cycle 0, as a freshly built
			// simulator's active set does.
			p.chain.Tick(0)
			p.ref.Tick(0)
			p.run(t, 0, tc.window)
		})
	}
}
