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

// ffPair is a controller plus the twin that serves as its ticked reference.
type ffPair struct {
	fast, ref   *Controller
	fastC, refC []completion
}

func newFFPair(cfg config.DRAM) *ffPair {
	p := &ffPair{}
	p.fast = NewController(cfg, 0, func(r *Request, now int64) {
		p.fastC = append(p.fastC, completion{r.Addr, r.IsWrite, now})
	})
	p.ref = NewController(cfg, 0, func(r *Request, now int64) {
		p.refC = append(p.refC, completion{r.Addr, r.IsWrite, now})
	})
	return p
}

// enqueue files the same request into both controllers.
func (p *ffPair) enqueue(t *testing.T, addr uint64, write bool, bank int, row, now int64) {
	t.Helper()
	for _, c := range []*Controller{p.fast, p.ref} {
		r := &Request{Addr: addr, IsWrite: write, Bank: bank, Row: row}
		if err := c.Enqueue(r, now); err != nil {
			t.Fatal(err)
		}
	}
}

// compare checks that both controllers reached the same externally-visible
// and internal timing state: completion log, event counters, bus and per-bank
// row/occupancy state, and queue depths.
func (p *ffPair) compare(t *testing.T) {
	t.Helper()
	if len(p.fastC) != len(p.refC) {
		t.Fatalf("fast-forward produced %d completions, ticked reference %d", len(p.fastC), len(p.refC))
	}
	for i := range p.fastC {
		if p.fastC[i] != p.refC[i] {
			t.Fatalf("completion %d: fast-forward %+v, reference %+v", i, p.fastC[i], p.refC[i])
		}
	}
	if p.fast.stats != p.ref.stats {
		t.Fatalf("stats diverged:\nfast-forward %+v\nreference    %+v", p.fast.stats, p.ref.stats)
	}
	if p.fast.busFreeAt != p.ref.busFreeAt || p.fast.nextRefresh != p.ref.nextRefresh ||
		p.fast.nextSample != p.ref.nextSample {
		t.Fatalf("timers diverged: bus %d/%d refresh %d/%d sample %d/%d",
			p.fast.busFreeAt, p.ref.busFreeAt, p.fast.nextRefresh, p.ref.nextRefresh,
			p.fast.nextSample, p.ref.nextSample)
	}
	for i := range p.fast.banks {
		f, r := &p.fast.banks[i], &p.ref.banks[i]
		if f.openRow != r.openRow || f.busyUntil != r.busyUntil ||
			len(f.reads) != len(r.reads) || len(f.writes) != len(r.writes) ||
			(f.inFlight == nil) != (r.inFlight == nil) {
			t.Fatalf("bank %d diverged: fast-forward %+v, reference %+v", i, f, r)
		}
	}
}

// run fast-forwards one controller over (now, before) and ticks the twin
// every cycle of the same window, then compares.
func (p *ffPair) run(t *testing.T, now, before int64) {
	t.Helper()
	if !p.fast.FastForwardable() {
		t.Fatal("controller not FastForwardable")
	}
	resume := p.fast.FastForward(now, before)
	if resume < before {
		t.Fatalf("FastForward resume wake %d is before the horizon %d", resume, before)
	}
	for c := now + 1; c < before; c++ {
		p.ref.Tick(c)
	}
	p.compare(t)
}

// TestFastForwardWriteDrain pins the fast-forwarded drain timeline against
// the per-cycle reference across the WriteDrainHigh watermark, row-locality
// extremes, bank interleavings, refresh interference and pure idleness.
func TestFastForwardWriteDrain(t *testing.T) {
	base := config.Baseline32().DRAM
	cases := []struct {
		name   string
		cfg    func() config.DRAM
		fill   func(t *testing.T, p *ffPair)
		window int64
	}{
		{
			// Below the watermark writes drain opportunistically (no reads
			// around to beat them); the analytical walk must issue them at
			// the same cycles.
			name: "below_watermark_row_hits",
			cfg:  func() config.DRAM { return base },
			fill: func(t *testing.T, p *ffPair) {
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
			fill: func(t *testing.T, p *ffPair) {
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
			fill: func(t *testing.T, p *ffPair) {
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
			fill: func(t *testing.T, p *ffPair) {
				for i := 0; i < 40; i++ {
					p.enqueue(t, uint64(i)*64, true, i%4, int64(i%3), 0)
				}
			},
			window: 15_000,
		},
		{
			// A refresh lands mid-drain: rows close, banks stall for the
			// refresh duration, then draining resumes.
			name: "refresh_mid_drain",
			cfg: func() config.DRAM {
				c := base
				c.RefreshPeriod = 500
				c.RefreshCycles = 20
				return c
			},
			fill: func(t *testing.T, p *ffPair) {
				for i := 0; i < 20; i++ {
					p.enqueue(t, uint64(i)*64, true, i%2, 1, 0)
				}
			},
			window: 12_000,
		},
		{
			// Nothing queued at all: only idleness samples (and refreshes)
			// fire; stats and sample timers must advance identically.
			name: "idle_only",
			cfg: func() config.DRAM {
				c := base
				c.RefreshPeriod = 1_000
				c.RefreshCycles = 10
				return c
			},
			fill:   func(t *testing.T, p *ffPair) {},
			window: 5_000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newFFPair(tc.cfg())
			tc.fill(t, p)
			// Align both controllers with one real tick at cycle 0, as the
			// simulator would have before the quiescent window opens.
			p.fast.Tick(0)
			p.ref.Tick(0)
			p.run(t, 0, tc.window)
		})
	}
}

// TestFastForwardableRejectsReads proves the gate: any queued or in-flight
// read disqualifies the controller, while pure writes pass.
func TestFastForwardableRejectsReads(t *testing.T) {
	cfg := config.Baseline32().DRAM
	c := NewController(cfg, 0, func(*Request, int64) {})
	if !c.FastForwardable() {
		t.Fatal("empty controller must be fast-forwardable")
	}
	if err := c.Enqueue(&Request{Addr: 0, IsWrite: true, Bank: 0, Row: 0}, 0); err != nil {
		t.Fatal(err)
	}
	if !c.FastForwardable() {
		t.Fatal("writes-only controller must be fast-forwardable")
	}
	if err := c.Enqueue(&Request{Addr: 64, Bank: 1, Row: 0}, 0); err != nil {
		t.Fatal(err)
	}
	if c.FastForwardable() {
		t.Fatal("queued read must disqualify fast-forward")
	}
	// Serve the read so it moves in flight: still disqualified until done.
	for cyc := int64(1); c.banks[1].inFlight == nil && cyc < 1_000; cyc++ {
		c.Tick(cyc)
	}
	if c.banks[1].inFlight == nil {
		t.Fatal("read never issued")
	}
	if c.FastForwardable() {
		t.Fatal("in-flight read must disqualify fast-forward")
	}
}

// TestFastForwardCountsTicks proves the Tick/fast-forward counter split: the
// replayed drain executes far fewer ticks than the window spans, and the
// split attributes them to FastForward.
func TestFastForwardCountsTicks(t *testing.T) {
	cfg := config.Baseline32().DRAM
	c := NewController(cfg, 0, func(*Request, int64) {})
	for i := 0; i < 16; i++ {
		if err := c.Enqueue(&Request{Addr: uint64(i) * 64, IsWrite: true, Bank: 0, Row: 0}, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Tick(0)
	const window = 10_000
	c.FastForward(0, window)
	total, ff := c.DebugTicks()
	if total != ff+1 {
		t.Fatalf("tick split: total=%d ff=%d, want total = ff+1", total, ff)
	}
	if ff >= window/2 {
		t.Fatalf("fast-forward executed %d ticks over a %d-cycle window; expected sparse event ticks", ff, window)
	}
	if ff == 0 {
		t.Fatal("fast-forward executed no ticks despite a pending drain")
	}
}
