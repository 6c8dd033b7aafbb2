package sim

import (
	"fmt"
	"io"
	"sort"

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
// component; spurious ticks are no-ops), and PRNG internals (the trace
// generators are deterministic in (profile, core, seed), so only the issue
// count is stored and replayed).
func (s *Simulator) Checkpoint(wr io.Writer) error {
	s.settle()
	w := snapshot.NewWriter(wr)
	w.String(s.cfg.SnapshotKey())
	// Historical shard-count field, kept so the format (and the pinned
	// golden image) stays stable. Always 1: the stepping partition is not
	// simulator state — snapshots restore under any worker count.
	w.Int(1)
	w.Len(len(s.apps))
	for _, a := range s.apps {
		w.String(a.Name)
	}
	w.I64(s.now)
	w.I64(s.ticked)

	e := &encoder{w: w, pktIdx: make(map[*noc.Packet]uint32), txnIdx: make(map[*Txn]uint32)}
	for _, n := range s.nodes {
		n.encode(e)
	}
	for _, mc := range s.mcs {
		mc.ctl.Encode(w, e.mcPayload)
	}
	s.net.EncodeState(w, e.pkt)

	w.Bool(s.pol.S1 != nil)
	if s.pol.S1 != nil {
		s.pol.S1.Encode(w)
	}
	w.Bool(s.pol.S2 != nil)
	if s.pol.S2 != nil {
		s.pol.S2.Encode(w)
	}

	encodeCollector(w, s.collector())
	w.Len(len(s.idleSeries))
	for _, se := range s.idleSeries {
		se.Encode(w)
	}
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
// full and the decode replaces wholesale (cache.Decode, node.decode), and
// listing an application's resident lines draws nothing from its generator's
// PRNG, so the replayed issue count lands on the same stream.
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
	key := r.String()
	if r.Err() == nil && key != s.cfg.SnapshotKey() {
		return fmt.Errorf("%w: snapshot was taken under an incompatible configuration", snapshot.ErrFormat)
	}
	// The legacy shard-count field is no longer matched against the
	// restoring configuration — the stepping partition is not simulator
	// state — but an implausible value still means corruption.
	shards := r.Int()
	if r.Err() == nil && (shards < 1 || shards > config.MaxMeshTiles) {
		return fmt.Errorf("%w: implausible shard count %d", snapshot.ErrFormat, shards)
	}
	napps := r.Len(4)
	if r.Err() == nil && napps != len(s.apps) {
		return fmt.Errorf("%w: snapshot has %d application slots, configuration has %d", snapshot.ErrFormat, napps, len(s.apps))
	}
	for i := 0; i < napps && r.Err() == nil; i++ {
		name := r.String()
		if r.Err() == nil && name != s.apps[i].Name {
			return fmt.Errorf("%w: tile %d ran %q in the snapshot, %q in this configuration", snapshot.ErrFormat, i, name, s.apps[i].Name)
		}
	}
	now := r.I64()
	ticked := r.I64()
	if r.Err() == nil && (now < 0 || ticked < 0 || ticked > now) {
		return fmt.Errorf("%w: implausible cycle counters (now=%d ticked=%d)", snapshot.ErrFormat, now, ticked)
	}
	// A snapshot is only restorable into a window it lies inside: resuming
	// exists to complete the configured run. The check also caps the trace
	// replay (generators advance by issue count, bounded per cycle), so a
	// corrupted cycle counter cannot drive a near-endless replay loop.
	if total := s.cfg.Run.WarmupCycles + s.cfg.Run.MeasureCycles; r.Err() == nil && now > total {
		return fmt.Errorf("%w: snapshot cycle %d lies past the configured %d-cycle run window", snapshot.ErrFormat, now, total)
	}
	if rf := s.cfg.Run.ResumeFrom; r.Err() == nil && rf != 0 && rf != now {
		return fmt.Errorf("%w: configuration resumes from cycle %d but the snapshot was taken at cycle %d", snapshot.ErrFormat, rf, now)
	}
	if r.Err() != nil {
		return r.Err()
	}
	s.now = now
	s.ticked = ticked

	d := &decoder{r: r, s: s}
	for _, n := range s.nodes {
		n.decode(d)
		if r.Err() != nil {
			return r.Err()
		}
	}
	for _, mc := range s.mcs {
		mc.ctl.Decode(r, func() any { return d.mcPayload(mc.tile) })
		if r.Err() != nil {
			return r.Err()
		}
	}
	s.net.DecodeState(r, d.pkt)
	if r.Err() != nil {
		return r.Err()
	}

	if r.Bool() { // Scheme-1 present in the snapshot
		if s.pol.S1 != nil {
			s.pol.S1.Decode(r)
		} else {
			core.SkipScheme1(r)
		}
	}
	if r.Bool() { // Scheme-2 present in the snapshot
		if s.pol.S2 != nil {
			s.pol.S2.Decode(r)
		} else {
			core.SkipScheme2(r)
		}
	}

	// The merged collector lands in shard 0's; the other shards keep the
	// empty ones they were built with.
	col := s.shards[0].col
	decodeCollector(r, col)
	if r.Err() != nil {
		return r.Err()
	}
	for _, sh := range s.shards[1:] {
		sh.col.measuring = col.measuring
	}

	nse := r.Len(8)
	if r.Err() == nil && nse != len(s.idleSeries) {
		return fmt.Errorf("%w: %d idle-series streams for %d controllers", snapshot.ErrFormat, nse, len(s.idleSeries))
	}
	for _, se := range s.idleSeries {
		// Decoded in place: the controllers' sampling closures capture
		// these exact Series objects.
		se.Decode(r)
	}
	if r.Err() != nil {
		return r.Err()
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
	stepTo := func(target int64) {
		if target > s.now {
			s.Step(target - s.now)
		}
	}
	if doCk && ck <= warm {
		stepTo(ck)
		if err := s.Checkpoint(sink); err != nil {
			return nil, err
		}
	}
	if warm >= start {
		stepTo(warm)
		s.resetStats()
	}
	if doCk && ck > warm {
		stepTo(ck)
		if err := s.Checkpoint(sink); err != nil {
			return nil, err
		}
	}
	stepTo(total)
	return s.results(), nil
}

// encoder interns shared pointers while walking the state: the first
// encounter of a transaction or packet writes its 1-based index followed by
// the full body; later references write the index alone; nil writes 0.
type encoder struct {
	w      *snapshot.Writer
	pktIdx map[*noc.Packet]uint32
	txnIdx map[*Txn]uint32
}

func (e *encoder) txn(t *Txn) {
	if t == nil {
		e.w.U32(0)
		return
	}
	if idx, ok := e.txnIdx[t]; ok {
		e.w.U32(idx)
		return
	}
	idx := uint32(len(e.txnIdx) + 1)
	e.txnIdx[t] = idx
	e.w.U32(idx)
	e.w.U64(t.ID)
	e.w.Int(t.Core)
	e.w.U64(t.Line)
	e.w.Bool(t.Store)
	e.w.I64(t.Birth)
	e.w.I64(t.ReqAtL2)
	e.w.I64(t.ReqAtMC)
	e.w.I64(t.MemDone)
	e.w.I64(t.RespAtL2)
	e.w.I64(t.Done)
	e.w.I64(t.AgeAtL2)
	e.w.Bool(t.OffChip)
	e.w.I64(t.SoFarAtMC)
	e.w.U8(uint8(t.RespPriority))
}

func (e *encoder) pkt(p *noc.Packet) {
	if p == nil {
		e.w.U32(0)
		return
	}
	if idx, ok := e.pktIdx[p]; ok {
		e.w.U32(idx)
		return
	}
	idx := uint32(len(e.pktIdx) + 1)
	e.pktIdx[p] = idx
	e.w.U32(idx)
	noc.EncodePacketBody(e.w, p, e.payload)
}

// payload writes a packet's protocol message.
func (e *encoder) payload(a any) {
	if a == nil {
		e.w.U8(0)
		return
	}
	m, ok := a.(*message)
	if !ok {
		e.w.Fail("unsupported packet payload %T", a)
		return
	}
	e.w.U8(1)
	e.w.U8(uint8(m.kind))
	e.txn(m.txn)
	e.w.U64(m.line)
}

// mcPayload writes a DRAM request's payload.
func (e *encoder) mcPayload(a any) {
	if a == nil {
		e.w.U8(0)
		return
	}
	p, ok := a.(*mcPayload)
	if !ok {
		e.w.Fail("unsupported DRAM request payload %T", a)
		return
	}
	e.w.U8(1)
	e.txn(p.txn)
	e.w.I64(p.age)
	e.w.I64(p.arrival)
	e.w.Int(p.respDst)
}

// decoder mirrors encoder: index 0 is nil, an index equal to the table
// length plus one introduces a new body, anything else must already be in
// the table.
type decoder struct {
	r    *snapshot.Reader
	s    *Simulator
	pkts []*noc.Packet
	txns []*Txn
}

func (d *decoder) txn() *Txn {
	idx := d.r.U32()
	if d.r.Err() != nil || idx == 0 {
		return nil
	}
	if int(idx) <= len(d.txns) {
		return d.txns[idx-1]
	}
	if int(idx) != len(d.txns)+1 {
		d.r.Fail("transaction reference %d out of intern order", idx)
		return nil
	}
	t := &Txn{}
	d.txns = append(d.txns, t)
	t.ID = d.r.U64()
	t.Core = d.r.Int()
	t.Line = d.r.U64()
	t.Store = d.r.Bool()
	t.Birth = d.r.I64()
	t.ReqAtL2 = d.r.I64()
	t.ReqAtMC = d.r.I64()
	t.MemDone = d.r.I64()
	t.RespAtL2 = d.r.I64()
	t.Done = d.r.I64()
	t.AgeAtL2 = d.r.I64()
	t.OffChip = d.r.Bool()
	t.SoFarAtMC = d.r.I64()
	t.RespPriority = noc.Priority(d.r.U8())
	if d.r.Err() == nil && (t.Core < 0 || t.Core >= len(d.s.nodes) || t.RespPriority > noc.High) {
		d.r.Fail("transaction %d has invalid core %d or priority", t.ID, t.Core)
	}
	return t
}

func (d *decoder) pkt() *noc.Packet {
	idx := d.r.U32()
	if d.r.Err() != nil || idx == 0 {
		return nil
	}
	if int(idx) <= len(d.pkts) {
		return d.pkts[idx-1]
	}
	if int(idx) != len(d.pkts)+1 {
		d.r.Fail("packet reference %d out of intern order", idx)
		return nil
	}
	d.pkts = append(d.pkts, nil)
	slot := len(d.pkts) - 1
	p := noc.DecodePacketBody(d.r, len(d.s.nodes), d.payload)
	d.pkts[slot] = p
	return p
}

func (d *decoder) payload() any {
	switch d.r.U8() {
	case 0:
		return nil
	case 1:
		k := d.r.U8()
		if d.r.Err() != nil {
			return nil
		}
		if k > uint8(msgInvL2toL1) {
			d.r.Fail("unknown message kind %d", k)
			return nil
		}
		m := &message{kind: msgKind(k)}
		m.txn = d.txn()
		m.line = d.r.U64()
		return m
	default:
		d.r.Fail("unknown payload tag")
		return nil
	}
}

func (d *decoder) mcPayload(mcTile int) any {
	switch d.r.U8() {
	case 0:
		return nil
	case 1:
		p := &mcPayload{}
		p.txn = d.txn()
		p.age = d.r.I64()
		p.arrival = d.r.I64()
		p.respDst = d.r.Int()
		if d.r.Err() == nil && (p.respDst < 0 || p.respDst >= len(d.s.nodes)) {
			d.r.Fail("DRAM response destination %d out of range at tile %d", p.respDst, mcTile)
		}
		return p
	default:
		d.r.Fail("unknown payload tag")
		return nil
	}
}

// encode walks one tile in the canonical order decode mirrors.
func (n *node) encode(e *encoder) {
	w := e.w
	w.U64(n.txnSeq)
	w.Bool(n.core != nil)
	if n.core != nil {
		n.core.Encode(w)
		switch src := n.core.Source().(type) {
		case *trace.Generator:
			w.U8(1)
			w.U64(src.Issued())
		case *trace.FileTrace:
			pos, loops := src.Progress()
			w.U8(2)
			w.Int(pos)
			w.I64(loops)
		default:
			w.Fail("tile %d runs an unsupported instruction source %T", n.id, src)
		}
	}
	n.l1.Encode(w)
	n.l2.Encode(w)
	cache.EncodeMSHRs(w, n.l1m, func(wt int32) { w.I64(int64(wt)) })
	cache.EncodeMSHRs(w, n.l2m, e.txn)

	if n.dir != nil {
		lines := make([]uint64, 0, len(n.dir))
		for l := range n.dir {
			lines = append(lines, l)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		w.Len(len(lines))
		for _, l := range lines {
			w.U64(l)
			w.U64(n.dir[l])
		}
	} else {
		lines := make([]uint64, 0, len(n.dirWide))
		for l := range n.dirWide {
			lines = append(lines, l)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		w.Len(len(lines))
		for _, l := range lines {
			w.U64(l)
			for _, word := range n.dirWide[l] {
				w.U64(word)
			}
		}
	}

	w.Len(len(n.inbox))
	for _, it := range n.inbox {
		e.pkt(it.pkt)
		w.I64(it.at)
	}
	w.Len(n.l2Queue.len())
	for _, it := range n.l2Queue.q[n.l2Queue.head:] {
		e.pkt(it.pkt)
		w.I64(it.at)
	}
	w.Len(len(n.l2Busy))
	for _, j := range n.l2Busy {
		e.pkt(j.it.pkt)
		w.I64(j.it.at)
		w.I64(j.done)
	}
	w.Len(len(n.delayed))
	for _, a := range n.delayed {
		w.I64(a.at)
		w.Int(int(a.slot))
		e.txn(a.txn)
		w.U64(a.line)
	}
	w.I64(n.lastCoreTick)
}

// decode restores one tile, validating every index and cross-reference the
// running simulator would otherwise trust blindly.
func (n *node) decode(d *decoder) {
	r := d.r
	s := n.s
	n.txnSeq = r.U64()
	hasCore := r.Bool()
	if r.Err() != nil {
		return
	}
	if hasCore != (n.core != nil) {
		r.Fail("tile %d application placement mismatch", n.id)
		return
	}
	if n.core != nil {
		n.core.Decode(r)
		switch r.U8() {
		case 1:
			g, ok := n.core.Source().(*trace.Generator)
			if !ok {
				r.Fail("tile %d: snapshot expects a synthetic generator, simulator has %T", n.id, n.core.Source())
				return
			}
			issued := r.U64()
			if r.Err() != nil {
				return
			}
			// The replay bound doubles as a hang guard: the core fetches at
			// most Width instructions per cycle, so any larger count is
			// corruption and must not drive a near-endless Advance loop.
			limit := uint64(d.s.now+1)*uint64(s.cfg.CPU.Width) + uint64(s.cfg.CPU.WindowSize)
			if issued < g.Issued() || issued > limit {
				r.Fail("tile %d: trace cursor %d outside [%d,%d]", n.id, issued, g.Issued(), limit)
				return
			}
			g.Advance(issued - g.Issued())
		case 2:
			ft, ok := n.core.Source().(*trace.FileTrace)
			if !ok {
				r.Fail("tile %d: snapshot expects a trace file, simulator has %T", n.id, n.core.Source())
				return
			}
			pos := r.Int()
			loops := r.I64()
			if r.Err() != nil {
				return
			}
			if err := ft.SetProgress(pos, loops); err != nil {
				r.Fail("tile %d: %v", n.id, err)
				return
			}
		default:
			if r.Err() == nil {
				r.Fail("tile %d: unknown instruction source tag", n.id)
			}
			return
		}
	}
	n.l1.Decode(r)
	n.l2.Decode(r)
	cache.DecodeMSHRs(r, n.l1m, func() int32 {
		v := r.I64()
		if r.Err() == nil && v != int64(noWaiter) && (v < 0 || v >= int64(s.cfg.CPU.WindowSize) || n.core == nil) {
			r.Fail("tile %d: L1 MSHR waiter slot %d invalid", n.id, v)
		}
		return int32(v)
	})
	cache.DecodeMSHRs(r, n.l2m, func() *Txn {
		t := d.txn()
		if r.Err() == nil && t == nil {
			r.Fail("tile %d: nil transaction waiting on an L2 MSHR", n.id)
		}
		return t
	})
	if r.Err() != nil {
		return
	}

	nodes := len(s.nodes)
	if n.dir != nil {
		nd := r.Len(16)
		if r.Err() != nil {
			return
		}
		n.dir = make(map[uint64]uint64, nd)
		for i := 0; i < nd; i++ {
			line := r.U64()
			mask := r.U64()
			if r.Err() != nil {
				return
			}
			if mask == 0 || (nodes < 64 && mask>>uint(nodes) != 0) {
				r.Fail("tile %d: directory mask %#x invalid for %d tiles", n.id, mask, nodes)
				return
			}
			n.dir[line] = mask
		}
	} else {
		words := (nodes + 63) / 64
		nd := r.Len(8 * (1 + words))
		if r.Err() != nil {
			return
		}
		n.dirWide = make(map[uint64][]uint64, nd)
		n.dirFree = nil
		slab := make([]uint64, nd*words) // every mask of the bank in one allocation
		for i := 0; i < nd; i++ {
			line := r.U64()
			mask := slab[i*words:][:words:words]
			zero := true
			for wi := range mask {
				mask[wi] = r.U64()
				if mask[wi] != 0 {
					zero = false
				}
			}
			if r.Err() != nil {
				return
			}
			if zero {
				r.Fail("tile %d: empty wide directory mask", n.id)
				return
			}
			n.dirWide[line] = mask
		}
	}

	readItem := func(what string) (inItem, bool) {
		p := d.pkt()
		at := r.I64()
		if r.Err() != nil {
			return inItem{}, false
		}
		if p == nil {
			r.Fail("tile %d: nil packet in %s", n.id, what)
			return inItem{}, false
		}
		if _, ok := p.Payload.(*message); !ok {
			r.Fail("tile %d: packet %d in %s carries no protocol message", n.id, p.ID, what)
			return inItem{}, false
		}
		return inItem{pkt: p, at: at}, true
	}
	ni := r.Len(12)
	if r.Err() != nil {
		return
	}
	n.inbox = n.inbox[:0]
	for i := 0; i < ni; i++ {
		it, ok := readItem("inbox")
		if !ok {
			return
		}
		n.inbox = append(n.inbox, it)
	}
	nq := r.Len(12)
	if r.Err() != nil {
		return
	}
	n.l2Queue = itemQueue{q: n.l2Queue.q[:0]}
	for i := 0; i < nq; i++ {
		it, ok := readItem("L2 queue")
		if !ok {
			return
		}
		n.l2Queue.push(it)
	}
	nb := r.Len(20)
	if r.Err() != nil {
		return
	}
	n.l2Busy = n.l2Busy[:0]
	for i := 0; i < nb; i++ {
		it, ok := readItem("L2 pipeline")
		if !ok {
			return
		}
		done := r.I64()
		if r.Err() != nil {
			return
		}
		n.l2Busy = append(n.l2Busy, l2Job{it: it, done: done})
	}
	na := r.Len(28)
	if r.Err() != nil {
		return
	}
	n.delayed = n.delayed[:0]
	for i := 0; i < na; i++ {
		var a action
		a.at = r.I64()
		a.slot = int32(r.Int())
		a.txn = d.txn()
		a.line = r.U64()
		if r.Err() != nil {
			return
		}
		if a.txn == nil && (n.core == nil || a.slot < 0 || int(a.slot) >= s.cfg.CPU.WindowSize) {
			r.Fail("tile %d: delayed completion for invalid ROB slot %d", n.id, a.slot)
			return
		}
		n.delayed = append(n.delayed, a)
	}
	n.lastCoreTick = r.I64()
	if r.Err() == nil && n.lastCoreTick < -1 {
		r.Fail("tile %d: lastCoreTick %d below -1", n.id, n.lastCoreTick)
	}
}

func encodeCollector(w *snapshot.Writer, c *Collector) {
	w.Bool(c.measuring)
	w.Len(len(c.RoundTrip))
	for i := range c.RoundTrip {
		c.RoundTrip[i].Encode(w)
		c.SoFar[i].Encode(w)
		c.Breakdown[i].Encode(w)
		w.I64(c.OffChip[i])
		w.I64(c.L2Hits[i])
		c.AvgDelay[i].Encode(w)
	}
	c.RetHigh.Encode(w)
	c.RetNormal.Encode(w)
	w.I64(c.Invalidations)
}

func decodeCollector(r *snapshot.Reader, c *Collector) {
	c.measuring = r.Bool()
	nt := r.Len(1)
	if r.Err() != nil {
		return
	}
	if nt != len(c.RoundTrip) {
		r.Fail("collector covers %d tiles, configuration has %d", nt, len(c.RoundTrip))
		return
	}
	for i := range c.RoundTrip {
		c.RoundTrip[i].Decode(r)
		c.SoFar[i].Decode(r)
		c.Breakdown[i].Decode(r)
		c.OffChip[i] = r.I64()
		c.L2Hits[i] = r.I64()
		c.AvgDelay[i].Decode(r)
		if r.Err() != nil {
			return
		}
	}
	c.RetHigh.Decode(r)
	c.RetNormal.Decode(r)
	c.Invalidations = r.I64()
}
