package cache

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"nocmem/internal/snapshot"
)

// refCache is the cache as it was before the tag array went flat: one
// 24-byte record per way, reached through a slice per set. It is kept as the
// oracle the flat layout is compared with, call for call.
type refCache struct {
	sets      [][]refLine
	lineShift uint
	setShift  uint
	setMask   uint64
	tick      uint64
	lip       bool
	stats     Stats
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64
}

func newRefCache(sizeBytes, lineBytes, ways int) *refCache {
	nsets := sizeBytes / (lineBytes * ways)
	c := &refCache{
		sets:      make([][]refLine, nsets),
		lineShift: log2(uint64(lineBytes)),
		setShift:  log2(uint64(nsets)),
		setMask:   uint64(nsets) - 1,
	}
	backing := make([]refLine, nsets*ways)
	for i := range c.sets {
		c.sets[i] = backing[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return c
}

func (c *refCache) index(addr uint64) (setIdx uint64, tag uint64) {
	lineNum := addr >> c.lineShift
	return lineNum & c.setMask, lineNum >> c.setShift
}

func (c *refCache) Access(addr uint64, isWrite bool) bool {
	set, tag := c.index(addr)
	c.tick++
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.used = c.tick
			if isWrite {
				l.dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *refCache) ReplayMisses(k int64) {
	c.tick += uint64(k)
	c.stats.Misses += k
}

func (c *refCache) WritebackHit(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			l.dirty = true
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *refCache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Fill(addr uint64, dirty bool) (Victim, bool) {
	set, tag := c.index(addr)
	c.tick++
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].used = c.tick
			ways[i].dirty = ways[i].dirty || dirty
			return Victim{}, false
		}
	}
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	var ev Victim
	evicted := ways[victim].valid
	if evicted {
		ev = Victim{Addr: (ways[victim].tag<<c.setShift | set) << c.lineShift, Dirty: ways[victim].dirty}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	used := c.tick
	if c.lip {
		used = 0
	}
	ways[victim] = refLine{tag: tag, valid: true, dirty: dirty, used: used}
	c.stats.Fills++
	return ev, evicted
}

func (c *refCache) Invalidate(addr uint64) (wasDirty bool) {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		l := &c.sets[set][i]
		if l.valid && l.tag == tag {
			wasDirty = l.dirty
			*l = refLine{}
			return wasDirty
		}
	}
	return false
}

// Encode writes the checkpoint format of Cache.Encode from the per-set
// records, a field at a time.
func (c *refCache) Encode(w *snapshot.Writer) {
	w.U64(c.tick)
	w.Len(len(c.sets))
	w.Len(len(c.sets[0]))
	for _, set := range c.sets {
		for _, l := range set {
			w.U64(l.tag)
			w.Bool(l.valid)
			w.Bool(l.dirty)
			w.U64(l.used)
		}
	}
	w.I64(c.stats.Hits)
	w.I64(c.stats.Misses)
	w.I64(c.stats.Fills)
	w.I64(c.stats.Evictions)
	w.I64(c.stats.Writebacks)
}

func encodeBytes(t *testing.T, enc func(*snapshot.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	enc(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlatTagsMatchReference drives the cache and refCache through the same
// seeded stream of every mutating and probing call, on the L1 shape (32 KB,
// direct mapped) and the L2 shape (512 KB, 8 ways, LIP), and requires equal
// return values and counters after every call, equal checkpoint bytes every
// 10^4 calls, and a Decode(Encode) round trip that re-encodes to the same
// bytes. Addresses mix a hot set, a footprint twice the capacity and
// arbitrary 64-bit addresses (the widest tags).
func TestFlatTagsMatchReference(t *testing.T) {
	const calls = 120_000
	for _, shape := range []struct {
		name             string
		size, line, ways int
		lip              bool
	}{
		{"l1", 32 << 10, 64, 1, false},
		{"l2", 512 << 10, 64, 8, true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			c, ref := New(shape.size, shape.line, shape.ways), newRefCache(shape.size, shape.line, shape.ways)
			c.SetLIPInsertion(shape.lip)
			ref.lip = shape.lip
			rng := rand.New(rand.NewSource(29))
			lines := 2 * shape.size / shape.line
			hot := make([]uint64, 64)
			for i := range hot {
				hot[i] = uint64(rng.Intn(lines)) * uint64(shape.line)
			}
			addr := func() uint64 {
				switch r := rng.Intn(16); {
				case r < 6:
					return hot[rng.Intn(len(hot))] + uint64(rng.Intn(shape.line))
				case r < 15:
					return uint64(rng.Intn(lines))*uint64(shape.line) + uint64(rng.Intn(shape.line))
				default:
					return rng.Uint64()
				}
			}
			for i := 1; i <= calls; i++ {
				a := addr()
				var got, want any
				switch op := rng.Intn(16); {
				case op < 6:
					w := rng.Intn(4) == 0
					got, want = c.Access(a, w), ref.Access(a, w)
				case op < 10:
					d := rng.Intn(3) == 0
					gv, ge := c.Fill(a, d)
					wv, we := ref.Fill(a, d)
					got, want = [2]any{gv, ge}, [2]any{wv, we}
				case op < 12:
					got, want = c.WritebackHit(a), ref.WritebackHit(a)
				case op < 14:
					got, want = c.Invalidate(a), ref.Invalidate(a)
				case op < 15:
					got, want = c.Contains(a), ref.Contains(a)
				default:
					k := int64(rng.Intn(5))
					c.ReplayMisses(k)
					ref.ReplayMisses(k)
				}
				if got != want {
					t.Fatalf("call %d on %#x: got %v, reference %v", i, a, got, want)
				}
				if c.Stats() != ref.stats {
					t.Fatalf("call %d: stats %+v, reference %+v", i, c.Stats(), ref.stats)
				}
				if i%10_000 != 0 {
					continue
				}
				img := encodeBytes(t, c.Encode)
				if !bytes.Equal(img, encodeBytes(t, ref.Encode)) {
					t.Fatalf("call %d: checkpoint bytes differ from the reference's", i)
				}
				back := New(shape.size, shape.line, shape.ways)
				rd, err := snapshot.NewReaderBytes(img)
				if err != nil {
					t.Fatal(err)
				}
				back.Decode(rd)
				if err := rd.Err(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encodeBytes(t, back.Encode), img) {
					t.Fatalf("call %d: Decode(Encode) re-encodes differently", i)
				}
			}
			if st := c.Stats(); st.Hits == 0 || st.Evictions == 0 || st.Writebacks == 0 {
				t.Errorf("the stream exercised too little: %+v", st)
			}
		})
	}
}

// TestDecodeRejectsWideTag: the valid bit is packed above the tag, so a
// snapshot tag of 2^63 or more cannot be represented and is a format error,
// while 2^63-1 restores.
func TestDecodeRejectsWideTag(t *testing.T) {
	image := func(tag uint64) []byte {
		return encodeBytes(t, func(w *snapshot.Writer) {
			w.U64(7)
			w.Len(1) // one set
			w.Len(2) // two ways
			for way := 0; way < 2; way++ {
				w.U64(tag)
				w.Bool(way == 0)
				w.Bool(false)
				w.U64(uint64(way))
			}
			for i := 0; i < 5; i++ {
				w.I64(0)
			}
		})
	}
	for _, tc := range []struct {
		tag  uint64
		want string
	}{
		{1<<63 - 1, ""},
		{1 << 63, "does not fit beside the valid bit"},
		{^uint64(0), "does not fit beside the valid bit"},
	} {
		c := New(2*64, 64, 2)
		rd, err := snapshot.NewReaderBytes(image(tc.tag))
		if err != nil {
			t.Fatal(err)
		}
		c.Decode(rd)
		err = rd.Err()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("tag %#x: %v", tc.tag, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("tag %#x: error %v, want %q", tc.tag, err, tc.want)
		}
	}
}
