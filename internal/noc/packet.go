// Package noc implements the on-chip network: a 2D mesh of wormhole-switched
// virtual-channel routers with credit-based flow control, X-Y routing, a
// five-stage router pipeline (BW, RC, VA, SA, ST), and the paper's two
// network-prioritization hooks:
//
//   - priority-aware VC and switch arbitration with an age-based
//     anti-starvation rule (Section 3.3), and
//   - pipeline bypassing, which lets high-priority header flits collapse
//     BW/RC/VA/SA into a single setup stage (Figure 10).
//
// Messages carry an age field ("so-far delay") that every router increments
// with the message's local residence time (Equation 1); no global clock is
// required by the mechanism.
package noc

import (
	"fmt"
	"math"

	"nocmem/internal/config"
)

// Priority is a packet's network priority class.
type Priority uint8

const (
	// Normal is the default priority.
	Normal Priority = iota
	// High marks packets expedited by Scheme-1 or Scheme-2: they win VC
	// and switch arbitration (subject to anti-starvation) and may bypass
	// the router pipeline.
	High
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	if p == High {
		return "high"
	}
	return "normal"
}

// VNet is a virtual network. Requests and responses travel on disjoint VC
// classes so the request-response protocol cannot deadlock the network.
type VNet uint8

const (
	// VNetRequest carries L1->L2 requests, L2->MC requests and writebacks.
	VNetRequest VNet = iota
	// VNetResponse carries data responses (MC->L2, L2->L1).
	VNetResponse
	// NumVNets is the number of virtual networks.
	NumVNets
)

// config.Validate enforces VCsPerPort % config.NumVNets == 0 on behalf of
// vnetRange's even split; fail the build if the two constants ever diverge.
var _ = [1]struct{}{}[NumVNets-config.NumVNets]

// The routers keep one bit per input VC in uint64 masks and uint8 ring
// cursors; config.Validate bounds VCsPerPort and BufferDepth accordingly.
// Fail the build if the bounds ever outgrow those types.
const (
	_ = uint(64 - NumPorts*config.MaxVCsPerPort)
	_ = uint8(config.MaxBufferDepth)
)

// Packet is one network message. A packet is split into NumFlits flits at
// injection and reassembled at ejection (wormhole switching).
type Packet struct {
	ID       uint64
	Src, Dst int // tile indices
	NumFlits int
	VNet     VNet
	Priority Priority

	// Age is the message's so-far delay in cycles. The caller seeds it
	// with the delay accumulated before injection (e.g. a response
	// inherits its request's age plus the memory delay); every router
	// adds its local residence time as the message passes through.
	Age int64

	// Payload is an opaque handle owned by the endpoints.
	Payload any

	// Measurement fields, maintained by the network.
	InjectedAt int64 // cycle the packet was offered to the source node
	EjectedAt  int64 // cycle the tail flit left the destination router
	Hops       int   // routers traversed

	headerEjectAt int64
	ejectedFlits  int
}

// NetLatency returns the packet's total network latency including source
// queueing and serialization. Valid only after delivery.
func (p *Packet) NetLatency() int64 { return p.EjectedAt - p.InjectedAt }

// Validate reports structural problems in a packet about to be injected.
func (p *Packet) Validate(nodes int) error {
	switch {
	case p.NumFlits < 1 || p.NumFlits > math.MaxInt32: // flit.seq is an int32
		return fmt.Errorf("noc: packet %d has %d flits", p.ID, p.NumFlits)
	case p.Src < 0 || p.Src >= nodes:
		return fmt.Errorf("noc: packet %d source %d out of range", p.ID, p.Src)
	case p.Dst < 0 || p.Dst >= nodes:
		return fmt.Errorf("noc: packet %d destination %d out of range", p.ID, p.Dst)
	case p.VNet >= NumVNets:
		return fmt.Errorf("noc: packet %d on unknown vnet %d", p.ID, p.VNet)
	case p.Age < 0:
		return fmt.Errorf("noc: packet %d negative age %d", p.ID, p.Age)
	}
	return nil
}

// PacketPool is a free list of Packets for allocation-free steady-state
// simulation. It is NOT safe for concurrent use: each simulation instance
// owns its pool and runs on a single goroutine (see docs/ARCHITECTURE.md,
// "Concurrency model"), so no locking is needed on the hot path.
type PacketPool struct {
	free []*Packet
}

// Get returns a zeroed packet, reusing a retired one when available.
func (pp *PacketPool) Get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		return p
	}
	return &Packet{}
}

// Put retires a packet. The caller must not retain references: every field
// (including Payload) is cleared.
func (pp *PacketPool) Put(p *Packet) {
	if p == nil {
		return
	}
	*p = Packet{}
	pp.free = append(pp.free, p)
}

// pktQueue is a FIFO of packets with O(1) amortized pop that keeps its
// backing array, so a router outbox stops allocating once it reaches its
// steady-state depth. Inject's priority insertion operates on the live
// window q[head:].
type pktQueue struct {
	q    []*Packet
	head int
}

func (pq *pktQueue) len() int { return len(pq.q) - pq.head }

func (pq *pktQueue) pop() *Packet {
	p := pq.q[pq.head]
	pq.q[pq.head] = nil
	pq.head++
	if pq.head == len(pq.q) {
		pq.q = pq.q[:0]
		pq.head = 0
	}
	return p
}

// push appends p, placing high-priority packets ahead of every queued
// normal-priority packet (stable within each class, preserving FIFO order).
func (pq *pktQueue) push(p *Packet) {
	if p.Priority == High {
		i := len(pq.q)
		for i > pq.head && pq.q[i-1].Priority != High {
			i--
		}
		pq.q = append(pq.q, nil)
		copy(pq.q[i+1:], pq.q[i:])
		pq.q[i] = p
		return
	}
	pq.q = append(pq.q, p)
}

// flit is one flow-control unit of a packet. Flits are 24-byte values: they
// live in the routers' input rings and are copied through the link and
// boundary queues, so nothing allocates or recycles them.
type flit struct {
	pkt *Packet

	// routerEntry is the cycle this flit entered the current router's
	// buffer; the difference at departure is the local residence time
	// added to the packet age (header flits) and the local component of
	// the arbitration age.
	routerEntry int64

	seq  int32 // 0 = header
	tail bool
}

func (f *flit) header() bool { return f.seq == 0 }
