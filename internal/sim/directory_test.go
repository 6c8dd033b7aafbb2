package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nocmem/internal/snapshot"
)

// twoFormDir is the directory as it was before it had one form: one-word
// masks in dir on a mesh of up to 64 tiles, and beyond that a separate mask
// slice per line in dirWide, with retired slices recycled through dirFree.
// It is kept as the oracle the chunked form is compared with, call for call.
type twoFormDir struct {
	tiles   int
	dir     map[uint64]uint64
	dirWide map[uint64][]uint64
	dirFree [][]uint64
}

func newTwoFormDir(tiles int) *twoFormDir {
	d := &twoFormDir{tiles: tiles}
	if tiles <= 64 {
		d.dir = make(map[uint64]uint64)
	} else {
		d.dirWide = make(map[uint64][]uint64)
	}
	return d
}

func (d *twoFormDir) add(line uint64, tile int) {
	if d.dir != nil {
		d.dir[line] |= 1 << uint(tile)
		return
	}
	mask, ok := d.dirWide[line]
	if !ok {
		if l := len(d.dirFree); l > 0 {
			mask = d.dirFree[l-1]
			d.dirFree = d.dirFree[:l-1]
		} else {
			mask = make([]uint64, (d.tiles+63)/64)
		}
		d.dirWide[line] = mask
	}
	mask[tile/64] |= 1 << uint(tile%64)
}

func (d *twoFormDir) take(line uint64, inv func(tile int)) {
	if d.dir != nil {
		mask, ok := d.dir[line]
		if !ok {
			return
		}
		delete(d.dir, line)
		for tile := 0; mask != 0; tile++ {
			if mask&1 != 0 {
				inv(tile)
			}
			mask >>= 1
		}
		return
	}
	mask, ok := d.dirWide[line]
	if !ok {
		return
	}
	delete(d.dirWide, line)
	for wi, w := range mask {
		mask[wi] = 0
		for w != 0 {
			inv(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	d.dirFree = append(d.dirFree, mask)
}

// encode writes what the two-form walk wrote: the line count, then each line
// in ascending order with its one-word or wide mask.
func (d *twoFormDir) encode(w *snapshot.Writer) {
	var lines []uint64
	for l := range d.dir {
		lines = append(lines, l)
	}
	for l := range d.dirWide {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	w.Len(len(lines))
	for _, l := range lines {
		w.U64(l)
		if d.dir != nil {
			w.U64(d.dir[l])
			continue
		}
		for _, word := range d.dirWide[l] {
			w.U64(word)
		}
	}
}

func dirBytes(t *testing.T, enc func(*snapshot.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	enc(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDirectoryMatchesTwoForms drives the chunked directory and the two-form
// one through the same seeded stream of adds and back-invalidations at 16, 64,
// 65, 256 and 1024 tiles, and requires the same (line, tile) invalidation
// sequence after every call and the same walk bytes every 500 calls, plus a
// decode of those bytes that re-encodes to them. Lines come from a small pool
// (so masks gather several tiles and entries are retired and re-made, which
// sends the wide form's slices through its free list) and include the widest
// addresses; tiles mix a few hot ones, the last tile, and uniform picks.
func TestDirectoryMatchesTwoForms(t *testing.T) {
	for _, tiles := range []int{16, 64, 65, 256, 1024} {
		t.Run(fmt.Sprint(tiles), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tiles)))
			got, want := newDirectory(tiles), newTwoFormDir(tiles)
			pool := make([]uint64, 300)
			for i := range pool {
				pool[i] = uint64(rng.Intn(1<<20)) << 6
			}
			pool[0], pool[1] = 0, ^uint64(0)&^63
			hot := []int{0, 1, tiles / 2, tiles - 1}
			back := newDirectory(tiles)
			var gotInv, wantInv [][2]uint64
			invalidated := 0
			for call := 1; call <= 20_000; call++ {
				line := pool[rng.Intn(len(pool))]
				if rng.Intn(3) != 0 {
					tile := rng.Intn(tiles)
					if rng.Intn(2) == 0 {
						tile = hot[rng.Intn(len(hot))]
					}
					got.add(line, tile)
					want.add(line, tile)
				} else {
					gotInv, wantInv = gotInv[:0], wantInv[:0]
					got.take(line, func(tile int) { gotInv = append(gotInv, [2]uint64{line, uint64(tile)}) })
					want.take(line, func(tile int) { wantInv = append(wantInv, [2]uint64{line, uint64(tile)}) })
					if !slices.Equal(gotInv, wantInv) {
						t.Fatalf("call %d: invalidations %v, two-form %v", call, gotInv, wantInv)
					}
					invalidated += len(gotInv)
				}
				if call%500 != 0 {
					continue
				}
				img := dirBytes(t, func(w *snapshot.Writer) { got.walk(snapshot.EncodeTo(w), tiles, 0) })
				if !bytes.Equal(img, dirBytes(t, want.encode)) {
					t.Fatalf("call %d: walk bytes differ from the two-form directory's", call)
				}
				rd, err := snapshot.NewReaderBytes(img)
				if err != nil {
					t.Fatal(err)
				}
				back.walk(snapshot.DecodeFrom(rd), tiles, 0)
				if err := rd.Err(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dirBytes(t, func(w *snapshot.Writer) { back.walk(snapshot.EncodeTo(w), tiles, 0) }), img) {
					t.Fatalf("call %d: a decoded directory re-encodes differently", call)
				}
			}
			if invalidated < 1_000 || (tiles > 64 && len(want.dirFree) == 0) {
				t.Errorf("the stream exercised too little: %d invalidations, %d free wide masks", invalidated, len(want.dirFree))
			}
		})
	}
}

// TestDirectoryDecodeRejects: a directory image with a line whose mask words
// are all zero, or with a bit naming a tile past the last, is a format error
// naming the fault, on one chunk and on several. (A valid configuration of
// more than 64 tiles has a power-of-two count, so only the 65-tile row can
// put a wide bit past the last tile; the walk is checked there directly.)
func TestDirectoryDecodeRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tiles int
		words []uint64 // one line's mask words
		want  string
	}{
		{"empty_mask", 16, []uint64{0}, "empty directory mask"},
		{"mask_past_last_tile", 16, []uint64{1 << 16}, "past the last of 16"},
		{"wide_empty_mask", 256, []uint64{0, 0, 0, 0}, "empty directory mask"},
		{"wide_mask_past_last_tile", 65, []uint64{1, 1 << 1}, "past the last of 65"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := dirBytes(t, func(w *snapshot.Writer) {
				w.Len(1)
				w.U64(0x40)
				for _, word := range tc.words {
					w.U64(word)
				}
			})
			rd, err := snapshot.NewReaderBytes(img)
			if err != nil {
				t.Fatal(err)
			}
			newDirectory(tc.tiles).walk(snapshot.DecodeFrom(rd), tc.tiles, 3)
			if err := rd.Err(); !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode returned %v, want an ErrFormat mentioning %q", err, tc.want)
			}
		})
	}
}
