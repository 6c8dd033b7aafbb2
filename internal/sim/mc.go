package sim

import (
	"fmt"

	"nocmem/internal/dram"
	"nocmem/internal/noc"
)

// mcPayload rides on a dram.Request through the controller.
type mcPayload struct {
	txn     *Txn
	age     int64 // so-far delay at controller arrival
	arrival int64
	respDst int // L2 bank tile awaiting the data
}

// mcNode hosts one memory controller on a corner tile.
type mcNode struct {
	tile int
	idx  int // controller index: position in Simulator.mcs and the active set
	s    *Simulator
	sh   *simShard // owning shard (same as the hosting tile's)
	ctl  *dram.Controller

	// reqFree recycles dram.Request+mcPayload pairs: the controller drops
	// a request before invoking the completion callback, so complete is
	// the final owner and can return it here. Single-goroutine.
	reqFree []*dram.Request
}

func newMCNode(tile, ctlIdx int, s *Simulator) *mcNode {
	m := &mcNode{tile: tile, idx: ctlIdx, s: s}
	m.ctl = dram.NewController(s.cfg.DRAM, ctlIdx, m.complete)
	return m
}

// getReq takes a zeroed request (with an attached zeroed payload) from the
// free list, or allocates a fresh pair.
func (m *mcNode) getReq() *dram.Request {
	if l := len(m.reqFree); l > 0 {
		r := m.reqFree[l-1]
		m.reqFree[l-1] = nil
		m.reqFree = m.reqFree[:l-1]
		pl := r.Payload.(*mcPayload)
		*pl = mcPayload{}
		*r = dram.Request{Payload: pl}
		return r
	}
	return &dram.Request{Payload: &mcPayload{}}
}

// accept turns a delivered packet into a DRAM request.
func (m *mcNode) accept(it inItem, now int64) {
	p := it.pkt
	msg := p.Payload.(*message)
	r := m.getReq()
	pl := r.Payload.(*mcPayload)
	pl.txn, pl.age, pl.arrival, pl.respDst = msg.txn, p.Age, it.at, p.Src
	r.Addr = msg.line
	r.IsWrite = msg.kind == msgWBL2toMC
	r.Bank = m.s.amap.Bank(msg.line)
	r.Row = m.s.amap.Row(msg.line)
	if msg.txn != nil {
		r.Sensitive = m.s.app.Priority(msg.txn.Core) == noc.High
	}
	if msg.txn != nil {
		msg.txn.ReqAtMC = it.at
	}
	if err := m.ctl.Enqueue(r, now); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	// Re-activate a sleeping controller: accept runs during the node phase,
	// after this cycle's MC phase, so the controller first considers the
	// request next cycle — exactly as under dense stepping.
	m.sh.mcActive.Add(m.idx)
}

// complete is the controller's completion callback: reads become response
// packets; the so-far delay is extended with the whole memory holding time
// and Scheme-1 classifies the message right here, "right after the memory
// controller" (Section 3.1).
func (m *mcNode) complete(r *dram.Request, now int64) {
	if r.IsWrite {
		m.reqFree = append(m.reqFree, r)
		return
	}
	p := r.Payload.(*mcPayload)
	t := p.txn
	age := p.age + (now - p.arrival)
	t.MemDone = now
	t.SoFarAtMC = age
	m.sh.col.soFar(t.Core, age)
	t.RespPriority = m.s.classify(siteMCtoL2, t, age, now)
	m.sh.send(now, m.tile, p.respDst, m.s.cfg.ResponseFlits(),
		noc.VNetResponse, t.RespPriority, age, msgRespMCtoL2, t, t.Line)
	m.reqFree = append(m.reqFree, r)
}
