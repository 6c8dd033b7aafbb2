package sim

import (
	"math/bits"
	"slices"

	"nocmem/internal/snapshot"
)

// directory is one L2 bank's slice of the sparse directory embedded in the
// inclusive L2: d[c][line] is the bitmask of the tiles 64c..64c+63 whose L1
// may hold the global line, with an entry only where that mask is non-zero.
// Clean L1 evictions are silent, so the masks over-approximate (standard for
// sparse directories). One form serves every mesh size: a 16-tile machine has
// one chunk, a 16x16 one four, and a line held by one tile costs one map slot
// whatever the mesh.
type directory []map[uint64]uint64

// newDirectory returns an empty directory for a mesh of the given tiles.
func newDirectory(tiles int) directory {
	d := make(directory, (tiles+63)/64)
	for c := range d {
		d[c] = make(map[uint64]uint64)
	}
	return d
}

// add records that the tile's L1 received a copy of the line.
func (d directory) add(line uint64, tile int) {
	d[tile>>6][line] |= 1 << uint(tile&63)
}

// take removes the line's entries and calls inv for every tile whose L1 may
// hold it, in ascending tile order.
func (d directory) take(line uint64, inv func(tile int)) {
	for c, chunk := range d {
		mask, ok := chunk[line]
		if !ok {
			continue
		}
		delete(chunk, line)
		for ; mask != 0; mask &= mask - 1 {
			inv(c<<6 + bits.TrailingZeros64(mask))
		}
	}
}

// walk walks the directory of the bank on tile owner, of a mesh of the given
// tiles, in ascending line order: each line that any chunk holds, then one
// mask word per chunk. A decode replaces every chunk with a new map and
// rejects a line whose words are all zero, and a bit past the last tile.
func (d directory) walk(k *snapshot.Codec, tiles, owner int) {
	dec := k.Decoding()
	var lines []uint64
	if !dec {
		n := 0
		for _, chunk := range d {
			n += len(chunk)
		}
		lines = make([]uint64, 0, n)
		for _, chunk := range d {
			for line := range chunk {
				lines = append(lines, line)
			}
		}
		slices.Sort(lines)
		lines = slices.Compact(lines)
	}
	nd := k.Len(len(lines), 8*(1+len(d)))
	if dec {
		hint := 0 // how a wide image's lines split over the chunks is unknown
		if len(d) == 1 {
			hint = nd
		}
		for c := range d {
			d[c] = make(map[uint64]uint64, hint)
		}
	}
	for i := 0; i < nd && k.Err() == nil; i++ {
		var line uint64
		if !dec {
			line = lines[i]
		}
		k.U64(&line)
		zero := true
		for c, chunk := range d {
			mask := chunk[line]
			k.U64(&mask)
			if !dec || mask == 0 || k.Err() != nil {
				continue
			}
			if last := tiles - c<<6; last < 64 && mask>>uint(last) != 0 {
				k.Fail("tile %d: directory mask %#x of line %#x names a tile past the last of %d", owner, mask, line, tiles)
				return
			}
			chunk[line] = mask
			zero = false
		}
		if dec && zero && k.Err() == nil {
			k.Fail("tile %d: empty directory mask for line %#x", owner, line)
		}
	}
}
