package sim

import (
	"fmt"
	"math"
)

// The event-driven scheduler replaces the dense per-cycle sweep over every
// component with active sets plus a timing wheel of timed wakes:
//
//   - A component (node, memory controller, router) is *active* while it may
//     change state this cycle; active components are ticked exactly like the
//     dense loop, in the same canonical order.
//   - A component with only future-dated work sleeps and registers a timed
//     wake for its earliest deadline; external events (packet delivery, a
//     request enqueue, a flit hand-off) re-activate their target directly.
//   - When every set is empty, no packet is in flight and the policy has no
//     push due, the simulator fast-forwards now to the earliest timed wake
//     in O(1) instead of sweeping O(tiles) empty cycles.
//
// The single invariant that makes this byte-identical to the dense stepper:
// effects happen only when due, wakes may be spurious but never missing. A
// spurious tick of a quiescent component is a no-op by construction (every
// tick body checks its own deadlines), so the active sets may safely
// over-approximate. Two components have dense ticks that are *not* no-ops
// while nothing can change for them, and both are replayed in closed form
// when the tile next runs or is observed (node.replay): a stalled core still
// counts stall cycles — and, when its fetch is refused for want of an MSHR,
// re-issues the access — and a bank whose jobs all wait for an L2 MSHR
// retries them. Those are the three kinds of sleep node.trySleep spells out:
// idle, window-full, resource-blocked. The network has its own instance of
// the third: a credit returned to a router nothing waits in is banked late
// (noc.Network.creditReturned).
//
// Active sets are bitset.Set values ([]uint64), sized to the component
// count: the set panics on out-of-range indices and scales to any mesh
// config.Validate accepts.
//
// The scheduler state lives on simShard (shard.go): with Run.Shards > 1 the
// mesh is partitioned and one worker goroutine steps each shard, with the
// single-shard sequential loop below as the reference semantics.

// activateAll marks every component active and re-arms the policy timer;
// called at construction and when switching from dense to event-driven
// stepping, after which the sets shrink back to the truly busy components.
func (s *Simulator) activateAll() {
	for _, sh := range s.shards {
		sh.nodeActive.Clear()
		sh.mcActive.Clear()
		// Pending wakes are redundant while everything is active — each
		// sleeper re-derives its exact deadline through trySleep — so the
		// wheels restart empty rather than carrying stale entries.
		sh.nodeWakes.Reset()
		sh.mcWakes.Reset()
		for _, n := range sh.nodes {
			sh.nodeActive.Add(n.id)
		}
		for _, m := range sh.mcs {
			sh.mcActive.Add(m.idx)
		}
	}
	s.polNext = s.pol.NextWake()
}

// SetDenseStepping switches between the event-driven scheduler (default) and
// the dense reference stepper that ticks every component every cycle. Both
// produce byte-identical results; the dense stepper is retained as the
// equivalence oracle for tests and benchmarks. Safe to call between Step
// calls at any time.
func (s *Simulator) SetDenseStepping(dense bool) {
	if dense {
		s.settle() // the dense loop replays nothing: hand it settled tiles
	}
	s.dense = dense
	s.net.SetEventDriven(!dense)
	if !dense {
		s.activateAll()
	}
}

// stepDense is the retained dense reference loop: every component, every
// cycle, in canonical order.
func (s *Simulator) stepDense(cycles int64) {
	for c := int64(0); c < cycles; c++ {
		now := s.now
		s.pol.Tick(now)
		for _, mc := range s.mcs {
			mc.ctl.Tick(now)
		}
		for _, n := range s.nodes {
			n.dispatchInbox(now)
			n.tickL2(now)
		}
		s.net.Tick(now)
		for _, n := range s.nodes {
			n.tickCore(now)
		}
		s.now++
	}
}

// quietTarget reports whether the whole system is quiescent at now — no
// active or resource-blocked component, no wake or policy push due — and if
// so, the cycle to fast-forward to: the earliest future deadline, capped at
// end. A due wake (head at <= now) means the cycle must execute; phaseFront
// (and TickShard, for router wakes) drains it into the active sets. Routers
// contribute their own wake horizon: a router waiting only on future-dated
// arrivals or credit returns no longer blocks fast-forward, it merely bounds
// how far it may jump.
func (s *Simulator) quietTarget(now, end int64) (int64, bool) {
	routerNext, quiet := s.net.QuietTarget(now)
	if !quiet {
		return 0, false
	}
	next := end
	if routerNext < next {
		next = routerNext
	}
	mcNext := int64(math.MaxInt64)
	for _, sh := range s.shards {
		if !sh.nodeActive.Empty() || !sh.mcActive.Empty() || sh.blocked > 0 {
			return 0, false
		}
		if at, ok := sh.nodeWakes.Min(); ok {
			if at <= now {
				return 0, false
			} else if at < next {
				next = at
			}
		}
		if at, ok := sh.mcWakes.Min(); ok {
			if at <= now {
				return 0, false
			} else if at < mcNext {
				mcNext = at
			}
		}
	}
	if s.polNext < next {
		next = s.polNext
	}
	if mcNext < next {
		// The only deadlines before next are memory-controller-internal. A
		// controller's exact wake is at most one sample period out
		// (dram.Controller samples idleness every 100 cycles), so a long
		// write-drain or idle tail would otherwise cap every jump at ~100
		// cycles. When every controller's remaining work is externally
		// inert — draining writes or pure idleness — replay their timelines
		// up to next right here instead of executing cycles for them.
		if !s.tryDrainFastForward(now, next) {
			next = mcNext
		}
	}
	if next <= now { // cannot happen (all deadlines are future); guard anyway
		next = now + 1
	}
	return next, true
}

// tryDrainFastForward advances every memory controller through its internal
// events in (now, next) — write-drain issues/completions, refreshes, idleness
// samples — without executing simulator cycles, re-arming each controller's
// timed wake at its first deadline >= next. Only legal when the rest of the
// system is quiescent until next (nothing can enqueue mid-window) and every
// controller is FastForwardable (no read anywhere: write completions recycle
// the request without any external effect, so the replay is invisible outside
// the controller). Runs in the serial section under sharded stepping, so
// touching foreign shards' wheels is safe. Reports false, changing nothing,
// when some controller holds a read.
func (s *Simulator) tryDrainFastForward(now, next int64) bool {
	for _, mc := range s.mcs {
		if !mc.ctl.FastForwardable() {
			return false
		}
	}
	for _, sh := range s.shards {
		sh.mcWakes.Reset()
	}
	for _, mc := range s.mcs {
		at := mc.ctl.FastForward(now, next)
		mc.sh.mcWakes.Push(at, int32(mc.idx))
	}
	return true
}

// stepEvent is the event-driven scheduler. Within an executed cycle the
// phase order is identical to stepDense (policy, MCs, node front-ends,
// network, cores), and active components of each class are ticked in
// ascending index order, so the state evolution matches the dense loop
// exactly on the components that have work; the rest provably have none.
// With more than one shard the cycle runs under the parallel driver
// (shard.go) — byte-identical by the boundary-queue construction.
func (s *Simulator) stepEvent(cycles int64) {
	end := s.now + cycles
	if len(s.shards) > 1 {
		s.stepSharded(end)
		return
	}
	sh := s.shards[0]
	for s.now < end {
		if now, exec := s.cycleHead(end); exec {
			sh.phaseFront(now)
			sh.phaseBack(now)
		}
	}
}

// cycleHead is the serial head of one cycle of the event-driven scheduler,
// shared by the sequential loop above and the parallel driver's serial
// section (cycleSerial): the policy ticks when due, then either the whole
// system is quiescent and the clock fast-forwards to the next deadline
// (capped at end; exec is false and no phase runs), or cycle now is counted
// as executed and the caller runs its two phases. The clock advances before
// the phases run; within the cycle every code path receives the executing
// cycle as a parameter (node.issue reads it from lastCoreTick), so nothing
// observes the early advance.
func (s *Simulator) cycleHead(end int64) (now int64, exec bool) {
	now = s.now
	if now >= s.polNext {
		s.pol.Tick(now)
		s.polNext = s.pol.NextWake()
	}
	if next, quiet := s.quietTarget(now, end); quiet {
		s.now = next
		return now, false
	}
	s.ticked++
	s.now = now + 1
	return now, true
}

// settle brings every sleeping tile up to the current cycle — the elided
// ticks of stalled cores and blocked banks are replayed in closed form
// (node.replay) — so that reading, resetting or serializing state observes
// exactly what the dense loop would have left. Called at the
// warmup/measurement boundary, before collecting results, before a
// checkpoint and before handing over to the dense stepper. Idempotent. (The
// network settles its own deferred credits when its state is read.)
func (s *Simulator) settle() {
	last := s.now - 1
	for _, n := range s.nodes {
		if last > n.lastCoreTick {
			n.replay(last - n.lastCoreTick)
			n.lastCoreTick = last
		}
	}
}

// trySleep retires the node from the active set when it has no work this
// cycle, registering a timed wake for its earliest future deadline. The
// queues consulted are all sorted by deadline (deliveries, L2 pipeline jobs
// and delayed L1 actions are appended with nondecreasing times), so the head
// entry is the earliest.
//
// There are three kinds of sleep. An idle tile has nothing queued. A tile
// whose core is hard-stalled on a full window sleeps past the core, because
// the elided core ticks are closed-form. And a tile may sleep
// resource-blocked: its core's fetch is refused by the LSQ or the L1 MSHRs
// behind an unfinished head (cpu.SleepUntil), or its bank is blocked — every
// job in the L2 pipeline was refused an MSHR this cycle, so each has
// done = now+1 and would be retried, and refused, every cycle. What unblocks
// either is a fill (the only way an MSHR frees or a missing line appears),
// and a fill reaches the tile through its inbox, whose delivery wakes it; so
// a blocked bank contributes no deadline of its own. replay accounts the
// retries when the tile next runs or is observed.
//
// A resource-blocked sleeper still holds the global clock (simShard.blocked): the
// cycles it sleeps through execute, as they did when such a tile stayed in
// the active set, so DebugTickedCycles keeps meaning "cycles in which some
// component was busy or blocked" and fast-forward only skips cycles in which
// nothing waits on anything.
func (n *node) trySleep(now int64) {
	if n.l2Queue.len() > 0 {
		return
	}
	wakeAt := int64(math.MaxInt64)
	if len(n.inbox) > 0 {
		if at := n.inbox[0].at; at <= now {
			return
		} else if at < wakeAt {
			wakeAt = at
		}
	}
	onResource := false
	if len(n.l2Busy) > 0 {
		if n.l2Refused == len(n.l2Busy) {
			onResource = true
		} else if d := n.l2Busy[0].done; d <= now {
			return
		} else if d < wakeAt {
			wakeAt = d
		}
	}
	if len(n.delayed) > 0 {
		if at := n.delayed[0].at; at <= now {
			return
		} else if at < wakeAt {
			wakeAt = at
		}
	}
	if n.core != nil {
		cw, ok := n.core.SleepUntil(now)
		if !ok {
			return
		}
		if cw < wakeAt {
			wakeAt = cw
		}
		if n.core.WindowOccupancy() < n.s.cfg.CPU.WindowSize {
			onResource = true
		}
	}
	if wakeAt <= now+1 {
		return // due next cycle: staying active beats a wheel round trip
	}
	n.sh.nodeActive.Remove(n.id)
	if wakeAt != math.MaxInt64 {
		n.sh.nodeWakes.Push(wakeAt, int32(n.id))
	}
	if onResource {
		n.blocked = true
		n.sh.blocked++
	}
}

// trySleep retires the memory controller from the active set when the DRAM
// model reports an exact next deadline (completion, refresh, or idleness
// sample) and nothing is waiting to be scheduled.
func (m *mcNode) trySleep(now int64) {
	wakeAt, ok := m.ctl.NextWake(now)
	if !ok || wakeAt <= now+1 {
		return
	}
	m.sh.mcActive.Remove(m.idx)
	m.sh.mcWakes.Push(wakeAt, int32(m.idx))
}

// DebugTickedCycles returns the number of cycles the event-driven scheduler
// actually executed (as opposed to fast-forwarded over); used by tests to
// prove quiescent stretches are skipped.
func (s *Simulator) DebugTickedCycles() int64 { return s.ticked }

// DebugDRAMTicks sums the controllers' Tick invocations: total, and the
// subset absorbed by the write-drain fast-forward (executed without a
// surrounding simulator cycle). Tests and benchmarks use the split to prove
// drain tails are replayed instead of stepped.
func (s *Simulator) DebugDRAMTicks() (total, fastForwarded int64) {
	for _, mc := range s.mcs {
		t, ff := mc.ctl.DebugTicks()
		total += t
		fastForwarded += ff
	}
	return total, fastForwarded
}

// QuiesceCheck verifies that no work is pending anywhere outside the cores:
// the network holds no packet, every tile's inbox, L2 pipeline and delayed
// queues are empty, and every memory controller is drained. With the
// event-driven scheduler this doubles as a lost-wakeup detector — a message
// stranded by a missing wake stays visibly parked in one of these queues.
func (s *Simulator) QuiesceCheck() error {
	if err := s.net.Quiesce(); err != nil {
		return err
	}
	for _, n := range s.nodes {
		if k := len(n.inbox) + n.l2Queue.len() + len(n.l2Busy) + len(n.delayed); k != 0 {
			return fmt.Errorf("sim: tile %d holds %d undone items (inbox=%d l2Queue=%d l2Busy=%d delayed=%d)",
				n.id, k, len(n.inbox), n.l2Queue.len(), len(n.l2Busy), len(n.delayed))
		}
	}
	for _, mc := range s.mcs {
		if p := mc.ctl.PendingAll(); p != 0 {
			return fmt.Errorf("sim: memory controller at tile %d still holds %d requests", mc.tile, p)
		}
	}
	return nil
}

// BlockedStats counts what the resource-blocked sleeps spared the event
// stepper, since construction: work the dense stepper executes cycle by cycle
// and the event stepper replays in closed form or applies late.
type BlockedStats struct {
	// CoreStallCycles: core ticks elided while fetch was refused by the LSQ
	// or the L1 MSHRs behind an unfinished window head.
	CoreStallCycles int64
	// L2RetryPolls: retries of L2 demand misses that the bank's full MSHR
	// table was bound to refuse again, replayed instead of executed.
	L2RetryPolls int64
	// CreditWakes: router ticks that would only have banked a returned
	// credit, skipped because the router had nothing waiting on it.
	CreditWakes int64
}

// DebugBlockedStats reports the elision counters. Host-side measurement only:
// never part of a Summary, stored result bytes or a checkpoint, and zero
// under the dense stepper.
func (s *Simulator) DebugBlockedStats() BlockedStats {
	var b BlockedStats
	for i, n := range s.nodes {
		b.CoreStallCycles += n.elidedStalls
		b.L2RetryPolls += n.elidedPolls
		_, _, elided := s.net.DebugRouterTicks(i)
		b.CreditWakes += elided
	}
	return b
}
