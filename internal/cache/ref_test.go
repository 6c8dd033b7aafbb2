package cache

import (
	"bytes"
	"math/rand"
	"reflect"
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

// Encode writes the checkpoint format of Cache.Walk from the per-set
// records, a field at a time: every way's key, then every way's stamp (the
// reference's 64-bit stamps cut to 16 bits, low byte first, which holds them
// while the clock stays below 2^16), then the dirty bits packed 64 to a word.
func (c *refCache) Encode(w *snapshot.Writer) {
	w.U64(c.tick)
	w.Len(len(c.sets))
	w.Len(len(c.sets[0]))
	var lines []refLine
	for _, set := range c.sets {
		lines = append(lines, set...)
	}
	for _, l := range lines {
		key := l.tag << 1
		if l.valid {
			key |= 1
		}
		w.U64(key)
	}
	for _, l := range lines {
		w.U8(uint8(l.used))
		w.U8(uint8(l.used >> 8))
	}
	for word := 0; word < len(lines); word += 64 {
		var bits uint64
		for i, l := range lines[word:min(word+64, len(lines))] {
			if l.dirty {
				bits |= 1 << i
			}
		}
		w.U64(bits)
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
	var top uint16
	for base := 0; base < len(c.used); base += c.ways {
		seen := map[uint16]bool{}
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
// and counters after every call and, every 10^4 calls, equal checkpoint bytes
// while the clock is below its 16-bit wrap (after it, the reference's 64-bit
// stamps no longer fit the format: the lines and their stamp order must match
// instead) and a Decode(Encode) round trip that re-encodes to the same bytes.
// The round trips decode into one cache, which holds the previous image each
// time.
func TestFlatTagsMatchReference(t *testing.T) {
	for _, shape := range refShapes {
		t.Run(shape.name, func(t *testing.T) {
			p := newRefPair(shape, New(shape.size, shape.line, shape.ways), newRefCache(shape.size, shape.line, shape.ways))
			back := New(shape.size, shape.line, shape.ways)
			var before, after int
			p.step(t, 120_000, func(i int) {
				if i%10_000 != 0 {
					return
				}
				img := encodeBytes(t, func(w *snapshot.Writer) { p.c.Walk(snapshot.EncodeTo(w)) })
				if p.c.tick == p.ref.tick {
					before++
					if !bytes.Equal(img, encodeBytes(t, p.ref.Encode)) {
						t.Fatalf("call %d: checkpoint bytes differ from the reference's", i)
					}
				} else {
					after++
					sameLines(t, p.c, p.ref)
				}
				rd, err := snapshot.NewReaderBytes(img)
				if err != nil {
					t.Fatal(err)
				}
				back.Walk(snapshot.DecodeFrom(rd))
				if err := rd.Err(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encodeBytes(t, func(w *snapshot.Writer) { back.Walk(snapshot.EncodeTo(w)) }), img) {
					t.Fatalf("call %d: Decode(Encode) re-encodes differently", i)
				}
			})
			if before == 0 || after == 0 {
				t.Errorf("%d comparisons below the wrap and %d past it, want some of each", before, after)
			}
			if st := p.c.Stats(); st.Hits == 0 || st.Evictions == 0 || st.Writebacks == 0 {
				t.Errorf("the stream exercised too little: %+v", st)
			}
		})
	}
}

// TestClockWrapMatchesReference carries the cache's 16-bit stamps across the
// clock's wrap many times, beside the reference's 64-bit ones: the call
// stream wraps the clock on its own every 2^16 ticks or so, ReplayMisses jumps
// both clocks to just below a wrap and past 2^33 (a renumbering by a jump),
// and the stream goes on. Every return value and counter must match
// throughout, and the lines and their stamp order after every leg.
func TestClockWrapMatchesReference(t *testing.T) {
	const leg = 30_000
	for _, shape := range refShapes {
		t.Run(shape.name, func(t *testing.T) {
			p := newRefPair(shape, New(shape.size, shape.line, shape.ways), newRefCache(shape.size, shape.line, shape.ways))
			wraps := 0
			last := p.c.tick
			count := func(int) {
				if p.c.tick < last {
					wraps++
				}
				last = p.c.tick
			}
			jump := func(k int64) {
				p.c.ReplayMisses(k)
				p.ref.ReplayMisses(k)
				count(0)
				if p.c.Stats() != p.ref.stats {
					t.Fatalf("after a jump of %d: stats %+v, reference %+v", k, p.c.Stats(), p.ref.stats)
				}
				sameLines(t, p.c, p.ref)
			}
			p.step(t, leg, count)
			jump(int64(1<<16 - leg/2 - p.c.tick))
			if p.c.tick != p.ref.tick {
				t.Fatalf("clock %d renumbered below 2^16 (reference %d)", p.c.tick, p.ref.tick)
			}
			p.step(t, leg, count)
			if wraps != 1 {
				t.Fatalf("the stream crossed the wrap %d times, want once: clock %d, reference %d", wraps, p.c.tick, p.ref.tick)
			}
			sameLines(t, p.c, p.ref)
			jump(1<<33 + 1)
			denseStamps(t, p.c)
			for range 10 {
				p.step(t, leg, count)
				sameLines(t, p.c, p.ref)
			}
			if wraps < 5 {
				t.Errorf("the clock wrapped %d times, want many", wraps)
			}
			if st := p.c.Stats(); st.Hits == 0 || st.Evictions == 0 || st.Writebacks == 0 {
				t.Errorf("the stream exercised too little: %+v", st)
			}
		})
	}
}

// TestDecodedCacheMatchesReference restores a hand-built image (zero and
// tied stamps among them, the clock a few thousand ticks below its 16-bit
// wrap) and requires the cache to hold the image's lines in the image's stamp
// order, and then — across the wrap — to hit and evict exactly as a refCache
// holding the same lines.
func TestDecodedCacheMatchesReference(t *testing.T) {
	for _, shape := range []refShape{{"lru", 2048, 64, 8, false}, {"lip", 2048, 64, 8, true}} {
		t.Run(shape.name, func(t *testing.T) {
			const tick = 1<<16 - 5_000
			rng := rand.New(rand.NewSource(3))
			ref := newRefCache(shape.size, shape.line, shape.ways)
			ref.tick = tick
			ref.stats = Stats{Hits: 11, Misses: 7, Fills: 5, Evictions: 3, Writebacks: 2}
			stamps := []uint64{0, 9, 1 << 15, tick - 2, tick}
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
			c.Walk(snapshot.DecodeFrom(rd))
			if err := rd.Err(); err != nil {
				t.Fatal(err)
			}
			if c.Stats() != ref.stats || c.tick != tick {
				t.Fatalf("restored stats %+v clock %d, want %+v and %d", c.Stats(), c.tick, ref.stats, uint64(tick))
			}
			sameLines(t, c, ref)
			p := newRefPair(shape, c, ref)
			p.step(t, 20_000, nil)
			if ref.tick <= 1<<16 {
				t.Fatalf("the stream did not cross the wrap: reference clock %d", ref.tick)
			}
			sameLines(t, c, ref)
			if st := c.Stats(); st.Evictions <= 3 || st.Writebacks <= 2 {
				t.Errorf("the stream evicted nothing: %+v", st)
			}
		})
	}
}

// TestTagStoreBytesPerLine guards the host cost of the tag store: every slice
// of an L2 bank's Cache (512 KB, 64-byte lines, 8 ways) summed must stay
// within 10.2 bytes per line — 8 of key, 2 of stamp and an eighth of dirty
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
	if per := float64(total) / float64(len(c.keys)); per > 10.2 {
		t.Errorf("the tag store costs %.3f host bytes per line, more than 10.2", per)
	}
}

// TestClockWrapStampsAboveRanks: the access that wraps the clock stamps its
// line above every renumbered stamp, not level with the set's newest, so the
// line touched just before the wrap is the older of the two and the victim.
func TestClockWrapStampsAboveRanks(t *testing.T) {
	c := New(2*64, 64, 2) // one set of two ways
	c.Fill(0, false)      // way 0
	c.Fill(64, false)     // way 1, newer
	c.ReplayMisses(int64(1<<16 - 1 - c.tick))
	c.Access(0, false) // wraps the clock; way 0 becomes the newer
	if v, _ := c.Fill(128, false); v.Addr != 64 {
		t.Fatalf("victim %#x, want the line at 0x40", v.Addr)
	}
}
