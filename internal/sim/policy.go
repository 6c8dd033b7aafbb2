package sim

import "nocmem/internal/noc"

// site is a point on a demand access's round trip where a message is
// injected into the network.
type site uint8

const (
	siteL1toL2 site = iota // L1 miss request to the home L2 bank
	siteL2toMC             // L2 miss request to the memory controller
	siteMCtoL2             // memory response back to the L2 bank
	siteL2toL1             // data response to the requester: L2 hit or fill
)

// classify returns the network priority of the message that transaction t
// injects at site at cycle now, with so-far delay age. It is the machine's
// only priority decision; writebacks and invalidations are always
// noc.Normal. The application-aware baseline rates every leg; Scheme-2 acts
// at the L2 miss and Scheme-1 right after the memory controller
// (Section 3.1), and the fill keeps the memory response's priority on its
// last leg (Figure 8). A disabled scheme is nil and answers noc.Normal.
//
// Scheme-2's Classify also records the send in the home tile's Bank History
// Table, so it runs on every L2 miss whatever the other term reads.
func (s *Simulator) classify(at site, t *Txn, age, now int64) noc.Priority {
	pri := s.app.Priority(t.Core)
	switch at {
	case siteL2toMC:
		pri = max(pri, s.s2.Classify(s.snuca.Bank(t.Line), s.amap.GlobalBank(t.Line), now))
	case siteMCtoL2:
		pri = max(pri, s.s1.Classify(t.Core, age))
	case siteL2toL1:
		if t.OffChip {
			pri = t.RespPriority
		}
	}
	return pri
}
