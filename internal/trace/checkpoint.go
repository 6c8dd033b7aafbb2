package trace

import "nocmem/internal/snapshot"

// Walk encodes or decodes the generator's position: its issue count. The
// stream is deterministic in (profile, coreID, seed), so a decode replays a
// freshly constructed generator up to the count (Advance) — the format
// stores no PRNG internals. limit bounds the count a decode accepts, so a
// corrupted one cannot drive a near-endless replay.
func (g *Generator) Walk(k *snapshot.Codec, limit uint64) {
	issued := g.issued
	k.U64(&issued)
	if !k.Decoding() || k.Err() != nil {
		return
	}
	if issued < g.issued || issued > limit {
		k.Fail("trace cursor %d outside [%d,%d]", issued, g.issued, limit)
		return
	}
	g.Advance(issued - g.issued)
}

// Advance replays n instructions and discards them.
func (g *Generator) Advance(n uint64) {
	for i := uint64(0); i < n; i++ {
		g.Next()
	}
}

// Walk encodes or decodes the replay cursor. A decoded cursor must land
// exactly on a record boundary of the capture; anything else is rejected so
// a corrupted checkpoint cannot make Next read past the buffer.
func (t *FileTrace) Walk(k *snapshot.Codec) {
	pos, loops := t.pos, t.loops
	k.Int(&pos)
	k.I64(&loops)
	if !k.Decoding() || k.Err() != nil {
		return
	}
	if pos < 0 || pos > len(t.data) || loops < 0 {
		k.Fail("trace: replay cursor %d/%d out of range", pos, loops)
		return
	}
	for p := 0; p < pos; {
		if t.data[p]&flagMem != 0 {
			p += 9
		} else {
			p++
		}
		if p > pos {
			k.Fail("trace: replay cursor %d inside a record", pos)
			return
		}
	}
	t.pos = pos
	t.loops = loops
}
