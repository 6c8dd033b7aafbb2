package trace

import "nocmem/internal/snapshot"

// Walk encodes or decodes the generator's state: its issue count, the
// round-robin cursor, each cold stream's pointer and burst count, and the
// PRNG's register and tap (its feed index follows from the tap). A decode
// overwrites the state of a generator built for the same (profile, core,
// seed), whose region bases and stream slices it keeps. limit bounds the
// issue count a decode accepts.
func (g *Generator) Walk(k *snapshot.Codec, limit uint64) {
	dec := k.Decoding()
	k.U64(&g.issued)
	if dec && k.Err() == nil && g.issued > limit {
		k.Fail("trace: issue count %d past the fetch bound %d", g.issued, limit)
		return
	}
	k.Int(&g.nextCStr)
	if dec && k.Err() == nil && (g.nextCStr < 0 || g.nextCStr >= len(g.cold)) {
		k.Fail("trace: cold-stream cursor %d outside [0,%d)", g.nextCStr, len(g.cold))
		return
	}
	for i := range g.cold {
		st := &g.cold[i]
		k.U64(&st.ptr)
		k.Int(&st.burstLeft)
		switch {
		case !dec || k.Err() != nil:
		case st.ptr-st.lo >= st.span: // wraps below lo too
			k.Fail("trace: cold stream %d pointer %d outside [%d,%d)", i, st.ptr, st.lo, st.lo+st.span)
			return
		case st.burstLeft < 0 || st.burstLeft > g.p.RowBurst:
			k.Fail("trace: cold stream %d burst count %d outside [0,%d]", i, st.burstLeft, g.p.RowBurst)
			return
		}
	}
	g.src.walk(k)
}

// walk encodes or decodes the register and the tap.
func (s *source) walk(k *snapshot.Codec) {
	k.Int(&s.tap)
	if k.Decoding() && k.Err() == nil {
		if s.tap < 0 || s.tap >= rngLen {
			k.Fail("trace: PRNG tap %d outside [0,%d)", s.tap, rngLen)
			return
		}
		s.feed = (s.tap + rngLen - rngTap) % rngLen
	}
	k.U64Array(s.vec[:])
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
