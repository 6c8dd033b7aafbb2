package cache

import (
	"bytes"
	"math/rand"
	"reflect"
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

// refShape is a cache geometry the reference comparisons run on.
type refShape struct {
	name             string
	size, line, ways int
	lip              bool
}

// refShapes are the L1 shape (32 KB, direct mapped) and the L2 shape (512 KB,
// 8 ways, LIP).
var refShapes = []refShape{
	{"l1", 32 << 10, 64, 1, false},
	{"l2", 512 << 10, 64, 8, true},
}

// refPair is a cache and its reference, fed one seeded stream of every
// mutating and probing call. Addresses mix a hot set, a footprint twice the
// capacity and arbitrary 64-bit addresses (the widest tags).
type refPair struct {
	c     *Cache
	ref   *refCache
	rng   *rand.Rand
	shape refShape
	hot   []uint64
	calls int // calls made so far
}

func newRefPair(shape refShape, c *Cache, ref *refCache) *refPair {
	c.SetLIPInsertion(shape.lip)
	ref.lip = shape.lip
	p := &refPair{c: c, ref: ref, rng: rand.New(rand.NewSource(29)), shape: shape, hot: make([]uint64, 64)}
	for i := range p.hot {
		p.hot[i] = uint64(p.rng.Intn(p.lines())) * uint64(shape.line)
	}
	return p
}

func (p *refPair) lines() int { return 2 * p.shape.size / p.shape.line }

func (p *refPair) addr() uint64 {
	line := p.shape.line
	switch r := p.rng.Intn(16); {
	case r < 6:
		return p.hot[p.rng.Intn(len(p.hot))] + uint64(p.rng.Intn(line))
	case r < 15:
		return uint64(p.rng.Intn(p.lines()))*uint64(line) + uint64(p.rng.Intn(line))
	default:
		return p.rng.Uint64()
	}
}

// step makes n calls on both caches and fails at the first return value or
// counter that differs; each, if set, runs after every call with the call's
// ordinal.
func (p *refPair) step(t *testing.T, n int, each func(call int)) {
	t.Helper()
	c, ref := p.c, p.ref
	for end := p.calls + n; p.calls < end; {
		p.calls++
		a := p.addr()
		var got, want any
		switch op := p.rng.Intn(16); {
		case op < 6:
			w := p.rng.Intn(4) == 0
			got, want = c.Access(a, w), ref.Access(a, w)
		case op < 10:
			d := p.rng.Intn(3) == 0
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
			k := int64(p.rng.Intn(5))
			c.ReplayMisses(k)
			ref.ReplayMisses(k)
		}
		if got != want {
			t.Fatalf("call %d on %#x: got %v, reference %v", p.calls, a, got, want)
		}
		if c.Stats() != ref.stats {
			t.Fatalf("call %d: stats %+v, reference %+v", p.calls, c.Stats(), ref.stats)
		}
		if each != nil {
			each(p.calls)
		}
	}
}

// sameLines requires every way of c to hold the reference's tag, valid and
// dirty bits, and each set's stamps to order (and tie) as the reference's do.
func sameLines(t *testing.T, c *Cache, ref *refCache) {
	t.Helper()
	for s, set := range ref.sets {
		base := s * c.ways
		for i, l := range set {
			w := base + i
			if c.keys[w]>>1 != l.tag || c.keys[w]&1 == 1 != l.valid || c.dirty.Has(w) != l.dirty {
				t.Fatalf("set %d way %d: key %#x dirty %v, reference %+v", s, i, c.keys[w], c.dirty.Has(w), l)
			}
			for j, m := range set {
				if (c.used[w] < c.used[base+j]) != (l.used < m.used) || (c.used[w] == c.used[base+j]) != (l.used == m.used) {
					t.Fatalf("set %d ways %d,%d: stamps %d,%d order unlike the reference's %d,%d",
						s, i, j, c.used[w], c.used[base+j], l.used, m.used)
				}
			}
		}
	}
}

// denseStamps requires the stamps of every set to be dense ranks: the
// distinct values run without a gap from 0 or 1 up, and the clock is one
// above the largest of any set.
func denseStamps(t *testing.T, c *Cache) {
	t.Helper()
	var top uint32
	for base := 0; base < len(c.used); base += c.ways {
		seen := map[uint32]bool{}
		for _, u := range c.used[base : base+c.ways] {
			seen[u] = true
			top = max(top, u)
		}
		for u := range seen {
			if u > 1 && !seen[u-1] {
				t.Fatalf("set %d: stamps %v are not dense ranks", base/c.ways, c.used[base:base+c.ways])
			}
		}
	}
	if c.tick != uint64(top)+1 {
		t.Fatalf("clock %d, want one above the largest rank %d", c.tick, top)
	}
}

// TestFlatTagsMatchReference drives the cache and refCache through the same
// seeded call stream on the L1 and L2 shapes and requires equal return values
// and counters after every call, equal checkpoint bytes every 10^4 calls, and
// a Decode(Encode) round trip that re-encodes to the same bytes. The round
// trips decode into one cache, which holds the previous image each time.
func TestFlatTagsMatchReference(t *testing.T) {
	for _, shape := range refShapes {
		t.Run(shape.name, func(t *testing.T) {
			p := newRefPair(shape, New(shape.size, shape.line, shape.ways), newRefCache(shape.size, shape.line, shape.ways))
			back := New(shape.size, shape.line, shape.ways)
			p.step(t, 120_000, func(i int) {
				if i%10_000 != 0 {
					return
				}
				img := encodeBytes(t, p.c.Encode)
				if !bytes.Equal(img, encodeBytes(t, p.ref.Encode)) {
					t.Fatalf("call %d: checkpoint bytes differ from the reference's", i)
				}
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
			})
			if st := p.c.Stats(); st.Hits == 0 || st.Evictions == 0 || st.Writebacks == 0 {
				t.Errorf("the stream exercised too little: %+v", st)
			}
		})
	}
}

// TestClockWrapMatchesReference carries the cache's 32-bit stamps across the
// clock's wrap and the reference's 64-bit ones past 2^32 and 2^33: warmed by
// the call stream, both jump by ReplayMisses to just below 2^32, the stream
// crosses the wrap, both jump past 2^33 (a second renumbering, by
// ReplayMisses), and the stream goes on. Every return value and counter must
// match throughout, and the lines and their stamp order after each jump.
func TestClockWrapMatchesReference(t *testing.T) {
	const leg = 30_000
	for _, shape := range refShapes {
		t.Run(shape.name, func(t *testing.T) {
			p := newRefPair(shape, New(shape.size, shape.line, shape.ways), newRefCache(shape.size, shape.line, shape.ways))
			jump := func(to uint64) {
				k := int64(to - p.ref.tick)
				p.c.ReplayMisses(k)
				p.ref.ReplayMisses(k)
				if p.c.Stats() != p.ref.stats {
					t.Fatalf("after the jump to %d: stats %+v, reference %+v", to, p.c.Stats(), p.ref.stats)
				}
				sameLines(t, p.c, p.ref)
			}
			p.step(t, leg, nil)
			jump(1<<32 - leg/2)
			if p.c.tick != p.ref.tick {
				t.Fatalf("clock %d renumbered below 2^32 (reference %d)", p.c.tick, p.ref.tick)
			}
			p.step(t, leg, nil)
			if p.ref.tick <= 1<<32 || p.c.tick > 1<<32-leg/2 {
				t.Fatalf("the stream did not cross the wrap: clock %d, reference %d", p.c.tick, p.ref.tick)
			}
			sameLines(t, p.c, p.ref)
			jump(1<<33 + 1)
			denseStamps(t, p.c)
			p.step(t, leg, nil)
			sameLines(t, p.c, p.ref)
			if st := p.c.Stats(); st.Hits == 0 || st.Evictions == 0 || st.Writebacks == 0 {
				t.Errorf("the stream exercised too little: %+v", st)
			}
		})
	}
}

// TestDecodeRenumbersWideClock restores a hand-built image whose clock and
// stamps are past 2^32 (none above the clock; zeros and ties among them) and
// requires the cache to hold the image's lines in the image's stamp order, and
// then to hit and evict exactly as a refCache holding the same lines.
func TestDecodeRenumbersWideClock(t *testing.T) {
	for _, shape := range []refShape{{"lru", 2048, 64, 8, false}, {"lip", 2048, 64, 8, true}} {
		t.Run(shape.name, func(t *testing.T) {
			const tick = 1<<33 + 12_345
			rng := rand.New(rand.NewSource(3))
			ref := newRefCache(shape.size, shape.line, shape.ways)
			ref.tick = tick
			ref.stats = Stats{Hits: 11, Misses: 7, Fills: 5, Evictions: 3, Writebacks: 2}
			stamps := []uint64{0, 9, 1 << 31, 1<<32 + 1, 1<<33 - 5, tick - 2, tick}
			for _, set := range ref.sets {
				for i, tag := range rng.Perm(2 * len(set))[:len(set)] {
					set[i] = refLine{
						tag: uint64(tag), valid: rng.Intn(4) != 0, dirty: rng.Intn(2) == 0,
						used: stamps[rng.Intn(len(stamps))],
					}
				}
			}
			c := New(shape.size, shape.line, shape.ways)
			rd, err := snapshot.NewReaderBytes(encodeBytes(t, ref.Encode))
			if err != nil {
				t.Fatal(err)
			}
			c.Decode(rd)
			if err := rd.Err(); err != nil {
				t.Fatal(err)
			}
			if c.Stats() != ref.stats {
				t.Fatalf("restored stats %+v, want %+v", c.Stats(), ref.stats)
			}
			denseStamps(t, c)
			sameLines(t, c, ref)
			p := newRefPair(shape, c, ref)
			p.step(t, 20_000, nil)
			sameLines(t, c, ref)
			if st := c.Stats(); st.Evictions <= 3 || st.Writebacks <= 2 {
				t.Errorf("the stream evicted nothing: %+v", st)
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

// TestTagStoreBytesPerLine guards the host cost of the tag store: every slice
// of an L2 bank's Cache (512 KB, 64-byte lines, 8 ways) summed must stay
// within 12.2 bytes per line — 8 of key, 4 of stamp and an eighth of dirty
// bit — so a layout change cannot grow it back unnoticed.
func TestTagStoreBytesPerLine(t *testing.T) {
	c := New(512<<10, 64, 8)
	v := reflect.ValueOf(c).Elem()
	var total uintptr
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			total += uintptr(f.Len()) * f.Type().Elem().Size()
		}
	}
	if per := float64(total) / float64(len(c.keys)); per > 12.2 {
		t.Errorf("the tag store costs %.3f host bytes per line, more than 12.2", per)
	}
}

// TestDecodeRenumbersWideStamp: a stamp past 2^32 renumbers the image even
// when its clock is below 2^32, keeping the order of the stamps.
func TestDecodeRenumbersWideStamp(t *testing.T) {
	img := encodeBytes(t, func(w *snapshot.Writer) {
		w.U64(7)
		w.Len(1) // one set
		w.Len(2) // two ways
		for way, used := range []uint64{1<<32 + 5, 3} {
			w.U64(uint64(way))
			w.Bool(true)
			w.Bool(false)
			w.U64(used)
		}
		for i := 0; i < 5; i++ {
			w.I64(0)
		}
	})
	c := New(2*64, 64, 2)
	rd, err := snapshot.NewReaderBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	c.Decode(rd)
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	if c.used[0] != 2 || c.used[1] != 1 || c.tick != 3 {
		t.Fatalf("stamps %v clock %d, want [2 1] and 3", c.used, c.tick)
	}
}

// TestClockWrapStampsAboveRanks: the access that wraps the clock stamps its
// line above every renumbered stamp, not level with the set's newest, so the
// line touched just before the wrap is the older of the two and the victim.
func TestClockWrapStampsAboveRanks(t *testing.T) {
	c := New(2*64, 64, 2) // one set of two ways
	c.Fill(0, false)      // way 0
	c.Fill(64, false)     // way 1, newer
	c.ReplayMisses(int64(1<<32 - 1 - c.tick))
	c.Access(0, false) // wraps the clock; way 0 becomes the newer
	if v, _ := c.Fill(128, false); v.Addr != 64 {
		t.Fatalf("victim %#x, want the line at 0x40", v.Addr)
	}
}
