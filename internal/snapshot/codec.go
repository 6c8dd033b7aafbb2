package snapshot

import (
	"encoding/binary"
	"math"
)

// Codec is one side of a walk: a piece of state states its format once, as a
// sequence of field calls on a Codec, and the same walk encodes it (the Codec
// wraps a Writer and each call writes the field it is handed) or decodes it
// (the Codec wraps a Reader and each call reads into the field). The walk
// takes pointers — c.I64(&b.openRow) — so one line names both the bytes and
// the field they belong to.
//
// What runs on one side only is guarded by Decoding: validation, rebuilding
// derived state and intern-table lookups on decode; settling, sorting map
// keys and padding on encode. A check that the encoder's own state always
// passes (a length the walk just wrote against the same length) needs no
// guard.
type Codec struct {
	w *Writer // nil when decoding
	r *Reader // nil when encoding
}

// EncodeTo returns a Codec whose walks write to w.
func EncodeTo(w *Writer) *Codec { return &Codec{w: w} }

// DecodeFrom returns a Codec whose walks read from r into the fields they
// name.
func DecodeFrom(r *Reader) *Codec { return &Codec{r: r} }

// Decoding reports whether the walk reads.
func (c *Codec) Decoding() bool { return c.r != nil }

// Err returns the first error of the walk so far. Unlike Writer.Err it
// flushes nothing.
func (c *Codec) Err() error {
	if c.r != nil {
		return c.r.err
	}
	return c.w.err
}

// Fail records an application-level error on the stream.
func (c *Codec) Fail(format string, args ...any) {
	if c.r != nil {
		c.r.Fail(format, args...)
	} else {
		c.w.Fail(format, args...)
	}
}

// Remaining returns the number of bytes left to decode; when encoding there
// is no bound and it returns math.MaxInt.
func (c *Codec) Remaining() int {
	if c.r != nil {
		return c.r.Remaining()
	}
	return math.MaxInt
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) {
	if c.r != nil {
		*p = c.r.U8()
	} else {
		c.w.U8(*p)
	}
}

// Bool walks a bool as one byte; any byte other than 0 or 1 fails a decode.
func (c *Codec) Bool(p *bool) {
	if c.r != nil {
		*p = c.r.Bool()
	} else {
		c.w.Bool(*p)
	}
}

// U32 walks a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if c.r != nil {
		*p = c.r.U32()
	} else {
		c.w.U32(*p)
	}
}

// U64 walks a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if c.r != nil {
		*p = c.r.U64()
	} else {
		c.w.U64(*p)
	}
}

// I64 walks an int64.
func (c *Codec) I64(p *int64) {
	if c.r != nil {
		*p = c.r.I64()
	} else {
		c.w.I64(*p)
	}
}

// I64Array walks the elements of vs in place, without a length: the caller
// has walked or fixed the length. One branch serves the whole array.
func (c *Codec) I64Array(vs []int64) {
	if c.r != nil {
		for i := range vs {
			vs[i] = c.r.I64()
		}
	} else {
		for _, v := range vs {
			c.w.I64(v)
		}
	}
}

// U64Array walks the elements of vs in place, without a length, as one
// little-endian run: decoded from one view of the image, encoded in
// buffer-sized pieces. Array-shaped state (a cache's columns, a PRNG
// register) moves this way instead of a field at a time.
func (c *Codec) U64Array(vs []uint64) {
	for len(vs) > 0 {
		b := c.run(len(vs), 8)
		if b == nil {
			return
		}
		n := len(b) / 8
		if c.r != nil {
			for i := range vs[:n] {
				vs[i] = binary.LittleEndian.Uint64(b[8*i:])
			}
		} else {
			for i, v := range vs[:n] {
				binary.LittleEndian.PutUint64(b[8*i:], v)
			}
		}
		vs = vs[n:]
	}
}

// U16Array is U64Array for uint16 elements, two bytes each.
func (c *Codec) U16Array(vs []uint16) {
	for len(vs) > 0 {
		b := c.run(len(vs), 2)
		if b == nil {
			return
		}
		n := len(b) / 2
		if c.r != nil {
			for i := range vs[:n] {
				vs[i] = binary.LittleEndian.Uint16(b[2*i:])
			}
		} else {
			for i, v := range vs[:n] {
				binary.LittleEndian.PutUint16(b[2*i:], v)
			}
		}
		vs = vs[n:]
	}
}

// run returns the bytes of the next elements of an n-element array of
// size-byte elements: all n when decoding (nil when they are not all there
// or the walk has failed), as many as the writer's buffer holds (at least
// one) when encoding.
func (c *Codec) run(n, size int) []byte {
	if c.r != nil {
		return c.r.Next(n * size)
	}
	return c.w.Reserve(min(n, max(1, cap(c.w.buf)/size)) * size)
}

// Int walks an int as an int64; a decoded value that overflows the platform
// int fails.
func (c *Codec) Int(p *int) {
	if c.r != nil {
		*p = c.r.Int()
	} else {
		c.w.Int(*p)
	}
}

// F64 walks a float64 via its IEEE-754 bit image.
func (c *Codec) F64(p *float64) {
	if c.r != nil {
		*p = c.r.F64()
	} else {
		c.w.F64(*p)
	}
}

// Len walks a collection length: encoding writes n and returns it, decoding
// returns the length read, validated against the remaining input assuming
// each element occupies at least elemSize bytes.
func (c *Codec) Len(n, elemSize int) int {
	if c.r != nil {
		return c.r.Len(elemSize)
	}
	c.w.Len(n)
	return n
}

// String walks a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.r != nil {
		*p = c.r.String()
	} else {
		c.w.String(*p)
	}
}

// I64s walks a length-prefixed int64 slice; decoding replaces *p with a new
// slice.
func (c *Codec) I64s(p *[]int64) {
	if c.r != nil {
		*p = c.r.I64s()
	} else {
		c.w.I64s(*p)
	}
}

// F64s walks a length-prefixed float64 slice; decoding replaces *p with a new
// slice.
func (c *Codec) F64s(p *[]float64) {
	if c.r != nil {
		*p = c.r.F64s()
	} else {
		c.w.F64s(*p)
	}
}
