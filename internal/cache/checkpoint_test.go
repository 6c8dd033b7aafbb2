package cache

import (
	"errors"
	"strings"
	"testing"

	"nocmem/internal/snapshot"
)

// TestDecodeRejects restores a cache image into a cache of another shape, with
// one field broken or cut off inside each of its three columns, and MSHR
// images into tables they do not fit or with one field broken: the decoder
// must refuse each with a snapshot.ErrFormat that names the field.
func TestDecodeRejects(t *testing.T) {
	// table holds three outstanding lines with one waiter each.
	table := func() *MSHRTable[int32] {
		m := NewMSHRTable[int32](4)
		for i, line := range []uint64{0x100, 0x140, 0x180} {
			m.Allocate(line, false, int32(i))
		}
		return m
	}
	encodeMSHRs := func(m *MSHRTable[int32]) func(*snapshot.Writer) {
		return func(w *snapshot.Writer) { WalkMSHRs(snapshot.EncodeTo(w), m, func(v *int32) { w.I64(int64(*v)) }) }
	}
	decodeMSHRs := func(m *MSHRTable[int32]) func(*snapshot.Reader) {
		return func(r *snapshot.Reader) { WalkMSHRs(snapshot.DecodeFrom(r), m, func(v *int32) { *v = int32(r.I64()) }) }
	}
	walkOut := func(c *Cache) func(*snapshot.Writer) {
		return func(w *snapshot.Writer) { c.Walk(snapshot.EncodeTo(w)) }
	}
	walkIn := func(c *Cache) func(*snapshot.Reader) {
		return func(r *snapshot.Reader) { c.Walk(snapshot.DecodeFrom(r)) }
	}
	filled := New(8<<10, 64, 4)
	filled.Fill(0x1000, true)
	// The columns of filled's 128 ways follow the header, the clock and the
	// two geometry lengths: keys, stamps, dirty words.
	keysEnd := len(snapshot.Magic) + 4 + 8 + 4 + 4 + 128*8
	stampsEnd := keysEnd + 128*2
	dirtyEnd := stampsEnd + 2*8
	broken := func(damage func(c *Cache)) func(*snapshot.Writer) {
		c := New(2*64, 64, 2) // one set of two ways: 62 spare dirty bits
		c.Fill(0, true)
		damage(c)
		return walkOut(c)
	}
	for _, tc := range []struct {
		name string
		enc  func(*snapshot.Writer)
		dec  func(*snapshot.Reader)
		keep int // bytes of the image the decoder gets; 0 for all
		want string
	}{
		{"cache_sets", walkOut(filled), walkIn(New(16<<10, 64, 4)), 0, "cache set count mismatch"},
		{"cache_ways", walkOut(filled), walkIn(New(16<<10, 64, 8)), 0, "cache way count mismatch"},
		{"cache_clock", broken(func(c *Cache) { c.tick = 1 << 32 }), walkIn(New(2*64, 64, 2)), 0, "past 2^16-1"},
		{"cache_clock_past_16_bits", broken(func(c *Cache) { c.tick = 1 << 16 }), walkIn(New(2*64, 64, 2)), 0, "past 2^16-1"},
		{"dirty_past_last_way", broken(func(c *Cache) { c.dirty[0] |= 1 << 2 }), walkIn(New(2*64, 64, 2)), 0, "dirty bits past the last"},
		{"keys_truncated", walkOut(filled), walkIn(New(8<<10, 64, 4)), keysEnd - 1, "truncated"},
		{"stamps_truncated", walkOut(filled), walkIn(New(8<<10, 64, 4)), stampsEnd - 1, "truncated"},
		{"dirty_truncated", walkOut(filled), walkIn(New(8<<10, 64, 4)), dirtyEnd - 1, "truncated"},
		{"mshr_capacity", encodeMSHRs(table()), decodeMSHRs(NewMSHRTable[int32](2)), 0, "exceed capacity"},
		{"mshr_no_waiters", func() func(*snapshot.Writer) {
			m := table()
			e, _ := m.Entry(0x140)
			e.Waiters = e.Waiters[:0]
			return encodeMSHRs(m)
		}(), decodeMSHRs(NewMSHRTable[int32](4)), 0, "has no waiters"},
		{"mshr_duplicate_line", func() func(*snapshot.Writer) {
			m := table()
			e, _ := m.Entry(0x180)
			e.LineAddr = 0x140
			return encodeMSHRs(m)
		}(), decodeMSHRs(NewMSHRTable[int32](4)), 0, "duplicate or unallocatable MSHR line"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := encodeBytes(t, tc.enc)
			if tc.keep != 0 {
				img = img[:tc.keep]
			}
			rd, err := snapshot.NewReaderBytes(img)
			if err != nil {
				t.Fatal(err)
			}
			tc.dec(rd)
			if err := rd.Err(); !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode returned %v, want an ErrFormat mentioning %q", err, tc.want)
			}
		})
	}
}
