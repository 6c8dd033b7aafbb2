// Package sim wires the substrates into the full target system of Figure 1:
// one out-of-order core, private L1 and shared S-NUCA L2 bank per tile, a
// mesh NoC connecting the tiles, and memory controllers on the corners. It
// drives the five-leg memory transaction lifecycle of Figure 2 and collects
// the measurements behind every figure in the paper.
package sim

import (
	"nocmem/internal/noc"
	"nocmem/internal/stats"
)

// msgKind identifies the role of a network message in the memory protocol.
type msgKind uint8

const (
	msgReqL1toL2  msgKind = iota // path 1: demand request to the L2 bank
	msgWBL1toL2                  // L1 dirty eviction
	msgReqL2toMC                 // path 2: off-chip demand request
	msgWBL2toMC                  // L2 dirty eviction (DRAM write)
	msgRespMCtoL2                // path 4: memory data response
	msgRespL2toL1                // path 5: data response to the core
	msgInvL2toL1                 // back-invalidation (inclusive L2 evicted the line)
)

func (k msgKind) String() string {
	switch k {
	case msgReqL1toL2:
		return "req-l1-l2"
	case msgWBL1toL2:
		return "wb-l1-l2"
	case msgReqL2toMC:
		return "req-l2-mc"
	case msgWBL2toMC:
		return "wb-l2-mc"
	case msgRespMCtoL2:
		return "resp-mc-l2"
	case msgRespL2toL1:
		return "resp-l2-l1"
	case msgInvL2toL1:
		return "inv-l2-l1"
	}
	return "?"
}

// message is the payload carried by every network packet.
type message struct {
	kind msgKind
	txn  *Txn   // nil for writebacks
	line uint64 // line-aligned address
}

// Txn is one demand memory transaction: an L1 miss and everything that
// happens until the line is back in the L1. The timestamps give the per-leg
// delays of Figure 4; their differences always telescope to Done-Birth.
type Txn struct {
	ID    uint64
	Core  int // requesting tile
	Line  uint64
	Store bool

	Birth    int64 // L1 miss detected
	ReqAtL2  int64 // request delivered at the L2 bank tile (end of leg 1)
	ReqAtMC  int64 // request delivered at the memory controller (end of leg 2)
	MemDone  int64 // DRAM service complete (end of leg 3)
	RespAtL2 int64 // response delivered back at the L2 bank (end of leg 4)
	Done     int64 // line filled into L1 (end of leg 5)

	// AgeAtL2 snapshots the request packet's so-far delay on arrival at
	// the L2 bank, so the bank can extend it with its local holding time
	// (the distributed age mechanism of Equation 1).
	AgeAtL2 int64

	// OffChip is set when the transaction missed in L2.
	OffChip bool

	// SoFarAtMC is the so-far delay observed right after DRAM service,
	// i.e. the value Scheme-1 compares against the threshold (Figure 9).
	SoFarAtMC int64

	// RespPriority is the network priority of the memory response
	// (classify at siteMCtoL2: Scheme-1 and the application-aware
	// baseline); the fill keeps it on the L2 -> L1 leg.
	RespPriority noc.Priority
}

// Total returns the end-to-end latency. Valid once Done is set.
func (t *Txn) Total() int64 { return t.Done - t.Birth }

// Legs returns the five path delays of Figure 2/4 for an off-chip
// transaction. They sum exactly to Total.
func (t *Txn) Legs() [stats.NumLegs]int64 {
	return [stats.NumLegs]int64{
		stats.LegL1ToL2: t.ReqAtL2 - t.Birth,
		stats.LegL2ToMC: t.ReqAtMC - t.ReqAtL2,
		stats.LegMemory: t.MemDone - t.ReqAtMC,
		stats.LegMCToL2: t.RespAtL2 - t.MemDone,
		stats.LegL2ToL1: t.Done - t.RespAtL2,
	}
}
