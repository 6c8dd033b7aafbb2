package sim

import (
	"fmt"
	"io"

	"nocmem/internal/cache"
	"nocmem/internal/config"
	"nocmem/internal/core"
	"nocmem/internal/noc"
	"nocmem/internal/snapshot"
	"nocmem/internal/trace"
)

// Checkpoint serializes the complete simulator state to w, so a later
// Restore continues the run byte-identically to never having stopped.
//
// The walk is strictly deterministic: nodes, controllers and routers in
// ascending index order, maps in sorted key order, and shared pointers
// (transactions, packets) interned in first-encounter order. Per-shard
// accumulators (collectors, network stats) are encoded merged — only their
// sums are observable — which makes snapshots partition-agnostic: an image
// taken under any worker count or chunk layout restores into any other
// (results are partition-independent, and Restore re-derives all scheduler
// state via activateAll).
//
// The only legal checkpoint boundary is between Step calls: the encoder
// fails if any cross-shard boundary queue still holds traffic. Sleeping tiles
// are settled first (the closed-form replay of their elided ticks, and
// likewise the network's deferred credits), so the image is the one the dense
// stepper would write at the same cycle, whichever stepper ran.
//
// Not captured, by design: free lists and scratch buffers (pure capacity),
// event-scheduler active sets and wake wheels (Restore re-activates every
// component; spurious ticks are no-ops), and whatever the restoring
// configuration rebuilds as it was (a generator's region bases and stream
// slices). The trace generators' PRNG registers are captured: a restore
// resumes each stream where it stopped.
func (s *Simulator) Checkpoint(wr io.Writer) error {
	s.settle()
	w := snapshot.NewWriter(wr)
	x := &walker{k: snapshot.EncodeTo(w), s: s, pktIdx: make(map[*noc.Packet]uint32), txnIdx: make(map[*Txn]uint32)}
	x.walk()
	return w.Err()
}

// Restore builds a simulator from cfg and apps and overlays the state read
// from rd. The snapshot must have been taken under a structurally compatible
// configuration (same SnapshotKey — geometry, timing, seed) and the same
// application placement; the stepping layout (Run.Shards) is free to
// differ — snapshots are partition-agnostic. The prioritization schemes and
// the memory scheduling policy may differ: a baseline warmup snapshot restores
// into a scheme-enabled measurement configuration, with the scheme state
// starting cold.
//
// The machine is wired as New wires it, except that nothing is prewarmed:
// everything the functional warming writes — every L1 and L2 line, the LRU
// clocks, the cache counters, the directory — is state the image carries in
// full and the decode replaces wholesale (Cache.Walk, node.walk), as it
// replaces each generator's PRNG state and stream cursors.
//
// If cfg.Run.ResumeFrom is non-zero it must equal the cycle the snapshot
// was taken at.
func Restore(cfg config.Config, apps []trace.Profile, rd io.Reader) (*Simulator, error) {
	s, err := newSynthetic(cfg, apps, false)
	if err != nil {
		return nil, err
	}
	return s.restored(snapshot.NewReader(rd))
}

// RestoreImage is Restore over a checkpoint image already in memory. It
// decodes img in place — the image is only read, so any number of concurrent
// restores may share it — where Restore must first buffer its stream.
func RestoreImage(cfg config.Config, apps []trace.Profile, img []byte) (*Simulator, error) {
	s, err := newSynthetic(cfg, apps, false)
	if err != nil {
		return nil, err
	}
	return s.restored(snapshot.NewReaderBytes(img))
}

// RestoreFromSources is Restore over explicit instruction sources (e.g.
// recorded trace files), mirroring NewFromSources.
func RestoreFromSources(cfg config.Config, srcs []trace.AppSource, apps []trace.Profile, rd io.Reader) (*Simulator, error) {
	s, err := newFromSources(cfg, srcs, apps, false)
	if err != nil {
		return nil, err
	}
	return s.restored(snapshot.NewReader(rd))
}

// restored finishes a Restore: s with the image behind r decoded into it, or
// no simulator at all.
func (s *Simulator) restored(r *snapshot.Reader, err error) (*Simulator, error) {
	if err == nil {
		err = s.restoreFrom(r)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// restoreFrom decodes the image behind r into s, which must be as its
// constructor left it (prewarmed or not: the oracle in checkpoint_test.go
// holds the two to the same bytes).
func (s *Simulator) restoreFrom(r *snapshot.Reader) error {
	(&walker{k: snapshot.DecodeFrom(r), s: s}).walk()
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after the checkpoint image", snapshot.ErrFormat, r.Remaining())
	}
	// Re-arm the scheduler for the restored state: re-derive the network's
	// mode-dependent sets, mark every component active (spurious ticks are
	// no-ops; the sets shrink back on their own) and recompute the policy
	// timer. This makes snapshots stepper-agnostic: a dense-mode snapshot
	// restores into an event-driven run and vice versa.
	s.SetDenseStepping(s.dense)
	s.activateAll()
	return nil
}

// RunWithCheckpoint executes the configured warmup and measurement window
// like Run, additionally writing one checkpoint to sink when it is non-nil
// and Run.CheckpointAt names a cycle inside the remaining window. On a
// simulator positioned past cycle 0 (a Restore), the already-elapsed part
// of the window is skipped, so restore-and-run continues exactly where the
// snapshot producer stopped.
//
// A checkpoint at the warmup boundary is taken before the statistics reset,
// so resuming from it replays the reset — byte-identical to the
// straight-through run.
func (s *Simulator) RunWithCheckpoint(sink io.Writer) (*Result, error) {
	warm := s.cfg.Run.WarmupCycles
	total := warm + s.cfg.Run.MeasureCycles
	ck := s.cfg.Run.CheckpointAt
	start := s.now
	doCk := sink != nil && ck > start && ck <= total
	if doCk && ck <= warm {
		s.stepTo(ck)
		if err := s.Checkpoint(sink); err != nil {
			return nil, err
		}
	}
	if warm >= start {
		s.stepTo(warm)
		s.resetStats()
	}
	if doCk && ck > warm {
		s.stepTo(ck)
		if err := s.Checkpoint(sink); err != nil {
			return nil, err
		}
	}
	s.stepTo(total)
	return s.results(), nil
}

// RunToPush executes the configured window like RunWithCheckpoint, from the
// current cycle, and stops before D, the first cycle whose Scheme-1 threshold
// push will publish a measured average (core.Scheme1.HasData). That push is
// the first read of S1.ThresholdFactor, so every cycle before D is the same
// under any factor: a checkpoint taken at D, restored with Run.ResumeFrom = D
// into a configuration that differs only in the factor, and Run to the end
// reproduces that configuration's own run byte for byte. RunToPush returns D,
// or the window's end when no push in the window has data (Scheme-1 off
// included); the run is then shared whole. The statistics reset at the
// warmup boundary happens on the way unless D lies at or before it, in which
// case the resumed Run replays it.
func (s *Simulator) RunToPush() int64 {
	warm := s.cfg.Run.WarmupCycles
	total := warm + s.cfg.Run.MeasureCycles
	s1 := s.pol.S1
	reset := warm >= s.now
	for {
		d := total
		if s1 != nil {
			// A push overdue at a restored cycle happens at that cycle.
			d = min(d, max(s1.NextPush(), s.now))
		}
		publishes := func() bool { return d == total || s1.HasData() }
		if reset && warm <= d {
			s.stepTo(warm)
			if warm == d && publishes() {
				return d
			}
			s.resetStats()
			reset = false
		}
		s.stepTo(d)
		if publishes() {
			return d
		}
		s.Step(1) // a push without data: it changes nothing the factor reads
	}
}

// stepTo steps up to cycle target, if it lies ahead.
func (s *Simulator) stepTo(target int64) {
	if target > s.now {
		s.Step(target - s.now)
	}
}

// walker is one pass of the checkpoint walk over a simulator, encoding or
// decoding as its Codec does. Shared pointers (transactions, packets) are
// interned: the first occurrence walks the 1-based index followed by the
// full body, later ones the index alone, and nil is 0. The encoder numbers
// pointers in pktIdx/txnIdx; the decoder requires every index to be 0, one
// already in pkts/txns, or the next one, which introduces a new body.
type walker struct {
	k      *snapshot.Codec
	s      *Simulator
	pktIdx map[*noc.Packet]uint32
	txnIdx map[*Txn]uint32
	pkts   []*noc.Packet
	txns   []*Txn
}

// walk walks the whole machine: the header, the tiles, the memory
// controllers, the network, the scheme blocks, the merged collector and the
// idle series.
func (x *walker) walk() {
	k, s := x.k, x.s
	key := s.cfg.SnapshotKey()
	k.String(&key)
	if k.Err() == nil && key != s.cfg.SnapshotKey() {
		k.Fail("snapshot was taken under an incompatible configuration")
		return
	}
	napps := k.Len(len(s.apps), 4)
	if k.Err() == nil && napps != len(s.apps) {
		k.Fail("snapshot has %d application slots, configuration has %d", napps, len(s.apps))
		return
	}
	for i := 0; i < napps && k.Err() == nil; i++ {
		name := s.apps[i].Name
		k.String(&name)
		if k.Err() == nil && name != s.apps[i].Name {
			k.Fail("tile %d ran %q in the snapshot, %q in this configuration", i, name, s.apps[i].Name)
			return
		}
	}
	now, ticked := s.now, s.ticked
	k.I64(&now)
	k.I64(&ticked)
	if k.Decoding() && k.Err() == nil {
		x.checkCycles(now, ticked)
		s.now, s.ticked = now, ticked
	}
	if k.Err() != nil {
		return
	}

	for _, n := range s.nodes {
		if n.walk(x); k.Err() != nil {
			return
		}
	}
	for _, mc := range s.mcs {
		if mc.ctl.Walk(k, func(p *any) { x.mcPayload(p, mc.tile) }); k.Err() != nil {
			return
		}
	}
	if s.net.WalkState(k, x.pkt); k.Err() != nil {
		return
	}

	// Each scheme block follows a presence flag. A snapshot of an enabled
	// scheme restores into a configuration without it by walking the block
	// into a zero scheme, which takes the image's shape.
	hasS1 := s.pol.S1 != nil
	if k.Bool(&hasS1); hasS1 {
		s1 := s.pol.S1
		if s1 == nil {
			s1 = new(core.Scheme1)
		}
		s1.Walk(k)
	}
	hasS2 := s.pol.S2 != nil
	if k.Bool(&hasS2); hasS2 {
		s2 := s.pol.S2
		if s2 == nil {
			s2 = new(core.Scheme2)
		}
		s2.Walk(k)
	}

	// Per-shard collectors are encoded merged; a decode lands them in shard
	// 0's, and the other shards keep the empty ones they were built with.
	col := s.shards[0].col
	if !k.Decoding() {
		col = s.collector()
	}
	if walkCollector(k, col); k.Err() != nil {
		return
	}
	if k.Decoding() {
		for _, sh := range s.shards[1:] {
			sh.col.measuring = col.measuring
		}
	}

	nse := k.Len(len(s.idleSeries), 8)
	if k.Err() == nil && nse != len(s.idleSeries) {
		k.Fail("%d idle-series streams for %d controllers", nse, len(s.idleSeries))
		return
	}
	for _, se := range s.idleSeries {
		// Decoded in place: the controllers' sampling closures capture
		// these exact Series objects.
		se.Walk(k)
	}
}

// checkCycles validates a decoded cycle position against the restoring
// configuration.
func (x *walker) checkCycles(now, ticked int64) {
	k, cfg := x.k, x.s.cfg
	switch total := cfg.Run.WarmupCycles + cfg.Run.MeasureCycles; {
	case now < 0 || ticked < 0 || ticked > now:
		k.Fail("implausible cycle counters (now=%d ticked=%d)", now, ticked)
	// A snapshot is only restorable into a window it lies inside: resuming
	// exists to complete the configured run. The check also bounds the
	// generators' issue counts, which a core fetches a bounded number of per
	// cycle.
	case now > total:
		k.Fail("snapshot cycle %d lies past the configured %d-cycle run window", now, total)
	case cfg.Run.ResumeFrom != 0 && cfg.Run.ResumeFrom != now:
		k.Fail("configuration resumes from cycle %d but the snapshot was taken at cycle %d", cfg.Run.ResumeFrom, now)
	}
}

// ref walks the intern index of *p and reports whether the body follows (the
// pointer's first occurrence). A decode of a first occurrence stores a new
// zero value in *p, for the caller to walk the body into.
func ref[T any](k *snapshot.Codec, p **T, idx map[*T]uint32, table *[]*T, what string) bool {
	var i uint32
	if !k.Decoding() {
		seen := true
		if *p != nil {
			if i, seen = idx[*p]; !seen {
				i = uint32(len(idx) + 1)
				idx[*p] = i
			}
		}
		k.U32(&i)
		return !seen
	}
	k.U32(&i)
	switch {
	case k.Err() != nil || i == 0:
		*p = nil
	case int(i) <= len(*table):
		*p = (*table)[i-1]
	case int(i) != len(*table)+1:
		k.Fail("%s reference %d out of intern order", what, i)
		*p = nil
	default:
		*p = new(T)
		*table = append(*table, *p)
		return true
	}
	return false
}

func (x *walker) txn(p **Txn) {
	k := x.k
	if !ref(k, p, x.txnIdx, &x.txns, "transaction") {
		return
	}
	t := *p
	k.U64(&t.ID)
	k.Int(&t.Core)
	k.U64(&t.Line)
	k.Bool(&t.Store)
	k.I64(&t.Birth)
	k.I64(&t.ReqAtL2)
	k.I64(&t.ReqAtMC)
	k.I64(&t.MemDone)
	k.I64(&t.RespAtL2)
	k.I64(&t.Done)
	k.I64(&t.AgeAtL2)
	k.Bool(&t.OffChip)
	k.I64(&t.SoFarAtMC)
	k.U8((*uint8)(&t.RespPriority))
	if k.Decoding() && k.Err() == nil && (t.Core < 0 || t.Core >= len(x.s.nodes) || t.RespPriority > noc.High) {
		k.Fail("transaction %d has invalid core %d or priority", t.ID, t.Core)
	}
}

func (x *walker) pkt(p **noc.Packet) {
	if ref(x.k, p, x.pktIdx, &x.pkts, "packet") {
		noc.WalkPacketBody(x.k, *p, len(x.s.nodes), x.payload)
	}
}

// payloadTag walks the tag of an opaque payload: 0 for nil, 1 for a T. An
// encode of any other type fails, and so does a decode of any other tag. It
// returns the payload as a T, which a decode of tag 1 allocates, or nil.
func payloadTag[T any](k *snapshot.Codec, a *any, what string) *T {
	var tag uint8
	v, ok := (*a).(*T)
	if !k.Decoding() {
		switch {
		case ok:
			tag = 1
		case *a != nil:
			k.Fail("unsupported %s payload %T", what, *a)
			return nil
		}
	}
	k.U8(&tag)
	switch {
	case !k.Decoding() || k.Err() != nil:
	case tag == 0:
		*a = nil
	case tag == 1:
		v = new(T)
		*a = v
	default:
		k.Fail("unknown payload tag")
		return nil
	}
	return v
}

// payload walks a packet's protocol message.
func (x *walker) payload(a *any) {
	k := x.k
	m := payloadTag[message](k, a, "packet")
	if m == nil {
		return
	}
	k.U8((*uint8)(&m.kind))
	if k.Decoding() && k.Err() == nil && m.kind > msgInvL2toL1 {
		k.Fail("unknown message kind %d", m.kind)
		return
	}
	x.txn(&m.txn)
	k.U64(&m.line)
}

// mcPayload walks a DRAM request's payload at the controller on mcTile.
func (x *walker) mcPayload(a *any, mcTile int) {
	k := x.k
	p := payloadTag[mcPayload](k, a, "DRAM request")
	if p == nil {
		return
	}
	x.txn(&p.txn)
	k.I64(&p.age)
	k.I64(&p.arrival)
	k.Int(&p.respDst)
	if k.Decoding() && k.Err() == nil && (p.respDst < 0 || p.respDst >= len(x.s.nodes)) {
		k.Fail("DRAM response destination %d out of range at tile %d", p.respDst, mcTile)
	}
}

// resize returns s with length n and every element zero, reusing its
// capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// walk walks one tile, validating on decode every index and cross-reference
// the running simulator would otherwise trust blindly.
func (n *node) walk(x *walker) {
	k, s := x.k, n.s
	dec := k.Decoding()
	k.U64(&n.txnSeq)
	hasCore := n.core != nil
	k.Bool(&hasCore)
	if k.Err() != nil {
		return
	}
	if hasCore != (n.core != nil) {
		k.Fail("tile %d application placement mismatch", n.id)
		return
	}
	if n.core != nil {
		n.core.Walk(k)
		if n.walkSource(k); k.Err() != nil {
			return
		}
	}
	n.l1.Walk(k)
	n.l2.Walk(k)
	cache.WalkMSHRs(k, n.l1m, func(slot *int32) {
		v := int64(*slot)
		k.I64(&v)
		*slot = int32(v)
		if dec && k.Err() == nil && v != int64(noWaiter) && (v < 0 || v >= int64(s.cfg.CPU.WindowSize) || n.core == nil) {
			k.Fail("tile %d: L1 MSHR waiter slot %d invalid", n.id, v)
		}
	})
	cache.WalkMSHRs(k, n.l2m, func(t **Txn) {
		x.txn(t)
		if dec && k.Err() == nil && *t == nil {
			k.Fail("tile %d: nil transaction waiting on an L2 MSHR", n.id)
		}
	})
	if n.dir.walk(k, len(s.nodes), n.id); k.Err() != nil {
		return
	}

	// item walks one queued packet and its cycle.
	item := func(it *inItem, what string) bool {
		x.pkt(&it.pkt)
		k.I64(&it.at)
		switch {
		case !dec:
		case k.Err() != nil:
			return false
		case it.pkt == nil:
			k.Fail("tile %d: nil packet in %s", n.id, what)
			return false
		default:
			if _, ok := it.pkt.Payload.(*message); !ok {
				k.Fail("tile %d: packet %d in %s carries no protocol message", n.id, it.pkt.ID, what)
				return false
			}
		}
		return true
	}
	ni := k.Len(len(n.inbox), 12)
	if dec {
		n.inbox = resize(n.inbox, ni)
	}
	for i := range n.inbox {
		if !item(&n.inbox[i], "inbox") {
			return
		}
	}
	nq := k.Len(n.l2Queue.len(), 12)
	if dec {
		n.l2Queue = itemQueue{q: resize(n.l2Queue.q, nq)}
	}
	for i := range nq {
		if !item(&n.l2Queue.q[n.l2Queue.head+i], "L2 queue") {
			return
		}
	}
	nb := k.Len(len(n.l2Busy), 20)
	if dec {
		n.l2Busy = resize(n.l2Busy, nb)
	}
	for i := range n.l2Busy {
		j := &n.l2Busy[i]
		if !item(&j.it, "L2 pipeline") {
			return
		}
		k.I64(&j.done)
	}
	na := k.Len(len(n.delayed), 28)
	if dec {
		n.delayed = resize(n.delayed, na)
	}
	for i := range n.delayed {
		a := &n.delayed[i]
		k.I64(&a.at)
		slot := int(a.slot)
		k.Int(&slot)
		a.slot = int32(slot)
		x.txn(&a.txn)
		k.U64(&a.line)
		if !dec {
			continue
		}
		if k.Err() != nil {
			return
		}
		if a.txn == nil && (n.core == nil || a.slot < 0 || int(a.slot) >= s.cfg.CPU.WindowSize) {
			k.Fail("tile %d: delayed completion for invalid ROB slot %d", n.id, a.slot)
			return
		}
	}
	k.I64(&n.lastCoreTick)
	if dec && k.Err() == nil && n.lastCoreTick < -1 {
		k.Fail("tile %d: lastCoreTick %d below -1", n.id, n.lastCoreTick)
	}
}

// walkSource walks the core's instruction source: a tag naming its kind,
// then its position.
func (n *node) walkSource(k *snapshot.Codec) {
	src := n.core.Source()
	var tag uint8
	switch src.(type) {
	case *trace.Generator:
		tag = 1
	case *trace.FileTrace:
		tag = 2
	default:
		if !k.Decoding() {
			k.Fail("tile %d runs an unsupported instruction source %T", n.id, src)
			return
		}
	}
	want := tag
	if k.U8(&tag); k.Err() != nil {
		return
	}
	if tag != want || tag == 0 {
		switch tag {
		case 1:
			k.Fail("tile %d: snapshot expects a synthetic generator, simulator has %T", n.id, src)
		case 2:
			k.Fail("tile %d: snapshot expects a trace file, simulator has %T", n.id, src)
		default:
			k.Fail("tile %d: unknown instruction source tag", n.id)
		}
		return
	}
	switch src := src.(type) {
	case *trace.Generator:
		// The core fetches at most Width instructions per cycle (and holds at
		// most a window of them), so any larger issue count is corruption.
		cpu := n.s.cfg.CPU
		src.Walk(k, uint64(n.s.now+1)*uint64(cpu.Width)+uint64(cpu.WindowSize))
	case *trace.FileTrace:
		src.Walk(k)
	}
}

// walkCollector walks the collector's per-tile and global accumulators.
func walkCollector(k *snapshot.Codec, c *Collector) {
	k.Bool(&c.measuring)
	nt := k.Len(len(c.RoundTrip), 1)
	if k.Err() != nil {
		return
	}
	if nt != len(c.RoundTrip) {
		k.Fail("collector covers %d tiles, configuration has %d", nt, len(c.RoundTrip))
		return
	}
	for i := range c.RoundTrip {
		c.RoundTrip[i].Walk(k)
		c.SoFar[i].Walk(k)
		c.Breakdown[i].Walk(k)
		k.I64(&c.OffChip[i])
		k.I64(&c.L2Hits[i])
		c.AvgDelay[i].Walk(k)
		if k.Err() != nil {
			return
		}
	}
	c.RetHigh.Walk(k)
	c.RetNormal.Walk(k)
	k.I64(&c.Invalidations)
}
