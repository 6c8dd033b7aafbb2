package cpu

import (
	"nocmem/internal/snapshot"
	"nocmem/internal/trace"
)

// Source returns the core's instruction source, so the checkpoint layer can
// serialize the stream position alongside the architectural state.
func (c *Core) Source() trace.Source { return c.src }

// Walk encodes or decodes the core's architectural state: the ROB image,
// commit cursor, in-flight memory count, the fetched-but-unissued
// instruction, and the window counters. A decode restores in place.
func (c *Core) Walk(k *snapshot.Codec) {
	n := k.Len(len(c.rob), 10)
	if k.Err() != nil {
		return
	}
	if n != len(c.rob) {
		k.Fail("ROB size mismatch: snapshot %d, config %d", n, len(c.rob))
		return
	}
	for i := range c.rob {
		e := &c.rob[i]
		k.Bool(&e.isMem)
		k.Bool(&e.done)
		k.I64(&e.doneAt)
	}
	k.Int(&c.head)
	k.Int(&c.count)
	k.Int(&c.memInFlight)
	k.Bool(&c.hasPending)
	k.Bool(&c.pending.IsMem)
	k.Bool(&c.pending.IsStore)
	k.U64(&c.pending.Addr)
	k.I64(&c.stats.Cycles)
	k.I64(&c.stats.Retired)
	k.I64(&c.stats.MemRetired)
	k.I64(&c.stats.FetchStalls)
	k.I64(&c.stats.WindowStalls)
	k.I64(&c.stats.OutstandSum)
	if !k.Decoding() || k.Err() != nil {
		return
	}
	if c.head < 0 || c.head >= len(c.rob) || c.count < 0 || c.count > len(c.rob) {
		k.Fail("ROB cursor out of range: head %d count %d of %d", c.head, c.count, len(c.rob))
		return
	}
	if c.memInFlight < 0 || c.memInFlight > c.cfg.LSQSize {
		k.Fail("in-flight memory count %d outside LSQ [0,%d]", c.memInFlight, c.cfg.LSQSize)
	}
}
