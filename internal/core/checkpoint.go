package core

import "nocmem/internal/snapshot"

// Walk encodes or decodes the Scheme-1 state: per-application delay averages,
// the thresholds last pushed to the controllers, the next push cycle, and the
// tagging counters. A decode restores in place; decoding into a zero Scheme1
// takes the image's core count, which is how a restore skips the block of a
// scheme its configuration has disabled.
func (s *Scheme1) Walk(k *snapshot.Codec) {
	cores := len(s.sum)
	k.I64s(&s.sum)
	k.I64s(&s.n)
	k.I64s(&s.published)
	if k.Err() != nil {
		return
	}
	if n := len(s.sum); (cores != 0 && n != cores) || len(s.n) != n || len(s.published) != n {
		k.Fail("scheme-1 core count mismatch: snapshot %d, config %d", n, cores)
		return
	}
	k.I64(&s.nextPush)
	k.I64(&s.Tagged)
	k.I64(&s.Checked)
}

// Walk encodes or decodes the Scheme-2 state: every node's Bank History Table
// (timestamp rings and cursors) plus the tagging counters. A decode restores
// in place; decoding into a zero Scheme2 takes the image's shape, which is how
// a restore skips the block of a scheme its configuration has disabled.
func (s *Scheme2) Walk(k *snapshot.Codec) {
	n := k.Len(len(s.tables), 12)
	if k.Err() != nil {
		return
	}
	if k.Decoding() && s.tables == nil {
		s.tables = make([]*BankHistory, n)
		for i := range s.tables {
			s.tables[i] = &BankHistory{}
		}
	}
	if n != len(s.tables) {
		k.Fail("scheme-2 node count mismatch: snapshot %d, config %d", n, len(s.tables))
		return
	}
	for _, t := range s.tables {
		banks := k.Len(len(t.stamps), 1)
		th := t.th
		k.Int(&th)
		if k.Err() != nil {
			return
		}
		if k.Decoding() && t.stamps == nil {
			if th < 1 || th > k.Remaining()/8 || banks > k.Remaining()/(8*th+8) {
				k.Fail("implausible bank-history shape")
				return
			}
			t.th, t.stamps, t.pos = th, make([][]int64, banks), make([]int, banks)
			for b := range t.stamps {
				t.stamps[b] = make([]int64, th)
			}
		}
		if banks != len(t.stamps) || th != t.th {
			k.Fail("bank-history shape mismatch: snapshot %dx%d, config %dx%d",
				banks, th, len(t.stamps), t.th)
			return
		}
		for b := range t.stamps {
			k.I64Array(t.stamps[b])
			k.Int(&t.pos[b])
			if k.Err() != nil {
				return
			}
			if k.Decoding() && (t.pos[b] < 0 || t.pos[b] >= t.th) {
				k.Fail("bank-history cursor %d outside [0,%d)", t.pos[b], t.th)
				return
			}
		}
	}
	k.I64(&s.Tagged)
	k.I64(&s.Checked)
}
