// Package snapshot provides the low-level primitives of the simulator's
// checkpoint format: a versioned, deterministic little-endian binary
// encoding with sticky-error writers and bounded, fuzz-safe readers.
//
// The format is deliberately dumb: fixed-width integers, length-prefixed
// slices, and nothing self-describing. Determinism is a format requirement,
// not an accident — the same simulator state must always encode to the same
// bytes (maps are written in sorted key order, shared pointers are interned
// in first-encounter order), because the round-trip test asserts
// serialize→restore→serialize byte-stability and the runner keys warmup
// snapshots by content-derived cache keys.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Magic identifies a checkpoint stream. It is followed by a little-endian
// uint32 format version.
const Magic = "NOCSNAP1"

// Version is the checkpoint format version this binary reads and writes.
// Bump it on ANY change to the encoding walk, then regenerate the golden
// file under internal/sim/testdata (see TestCheckpointGolden).
//
// Version 2: snapshots became partition-agnostic. The header's structural
// key no longer encodes the stepping layout (the worker count),
// and the legacy shard-count field is pinned to 1, so one image restores
// under any worker count.
const Version = 2

// ErrFormat tags every decode error produced by this package.
var ErrFormat = errors.New("snapshot: invalid checkpoint")

// writerBuf bounds what a Writer holds back from its sink. It is the only
// memory a Writer owns, whatever the size of the image.
const writerBuf = 64 << 10

// Writer serializes primitive values with a sticky error. All methods are
// no-ops after the first failure.
//
// Writes are buffered: bytes reach the sink when the buffer (64 KB) fills,
// when a single write at least that large passes through it, and when Err is
// called. Err is therefore the end of every encoding — a sink read before it
// is missing up to a buffer of bytes.
type Writer struct {
	w   io.Writer
	buf []byte // pending bytes; the capacity is fixed at construction
	err error
}

// NewWriter wraps w and emits the magic and version header.
func NewWriter(w io.Writer) *Writer { return newWriter(w, writerBuf) }

// newWriter is NewWriter with a buffer of the given size, for an encoder
// that knows it has less than writerBuf to buffer (EncodeEntry).
func newWriter(w io.Writer, size int) *Writer {
	sw := &Writer{w: w, buf: make([]byte, 0, size)}
	sw.write([]byte(Magic))
	sw.U32(Version)
	return sw
}

// Err flushes the buffer and returns the first error, if any.
func (w *Writer) Err() error {
	w.flush()
	return w.err
}

// Fail records an application-level encoding error.
func (w *Writer) Fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("snapshot: encode: "+format, args...)
	}
}

// flush empties the buffer: into the sink, or nowhere once an error stuck.
func (w *Writer) flush() {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Reserve returns the next n bytes of the stream for the caller to fill in
// before its next call on w: array-shaped state (a cache set) is encoded in
// place instead of a field at a time. n is limited to the buffer size.
func (w *Writer) Reserve(n int) []byte {
	if n > cap(w.buf) {
		w.Fail("reserve of %d bytes exceeds the %d-byte buffer", n, cap(w.buf))
		return make([]byte, n) // scratch: the stream is dead
	}
	if n > cap(w.buf)-len(w.buf) {
		w.flush()
	}
	off := len(w.buf)
	w.buf = w.buf[:off+n]
	return w.buf[off:]
}

func (w *Writer) write(b []byte) {
	if len(b) >= cap(w.buf) {
		// Too large to gain from a copy: straight to the sink.
		w.flush()
		if w.err == nil {
			_, w.err = w.w.Write(b)
		}
		return
	}
	copy(w.Reserve(len(b)), b)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.Reserve(1)[0] = v }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { binary.LittleEndian.PutUint32(w.Reserve(4), v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { binary.LittleEndian.PutUint64(w.Reserve(8), v) }

// I64 writes an int64 as its two's-complement uint64 image.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 via its IEEE-754 bit image.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Len writes a collection length.
func (w *Writer) Len(n int) {
	if n < 0 || n > math.MaxUint32 {
		w.Fail("length %d out of range", n)
		return
	}
	w.U32(uint32(n))
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.write([]byte(s))
}

// I64s writes a length-prefixed int64 slice.
func (w *Writer) I64s(vs []int64) {
	w.Len(len(vs))
	for _, v := range vs {
		w.I64(v)
	}
}

// F64s writes a length-prefixed float64 slice.
func (w *Writer) F64s(vs []float64) {
	w.Len(len(vs))
	for _, v := range vs {
		w.F64(v)
	}
}

// Reader decodes a checkpoint stream with a sticky error. It buffers the
// whole input up front so every length prefix can be validated against the
// bytes actually remaining — corrupted or truncated input fails cleanly
// instead of provoking huge allocations or panics. A Reader never writes to
// its image, so any number of Readers may decode one image at once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader consumes r fully and validates the magic and version header. A
// stream that knows its length (*bytes.Buffer, *bytes.Reader) is buffered in
// one allocation of that size; any other grows by doubling.
func NewReader(r io.Reader) (*Reader, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok && l.Len() > 0 {
		// ReadFrom asks for MinRead spare bytes before every read, the one
		// that returns io.EOF included.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return NewReaderBytes(buf.Bytes())
}

// NewReaderBytes validates the header of an in-memory checkpoint image.
func NewReaderBytes(data []byte) (*Reader, error) {
	sr := &Reader{data: data}
	if magic := sr.Next(len(Magic)); string(magic) != Magic {
		return nil, fmt.Errorf("%w: bad magic (not a checkpoint file)", ErrFormat)
	}
	if v := sr.U32(); sr.err != nil || v != Version {
		return nil, fmt.Errorf("%w: format version %d, but this binary reads version %d — regenerate the checkpoint with the current binary, or bump snapshot.Version after a deliberate format change", ErrFormat, v, Version)
	}
	return sr, nil
}

// Err returns the first decode error, if any, wrapped with ErrFormat.
func (r *Reader) Err() error { return r.err }

// Fail records an application-level decode error.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s (at offset %d)", ErrFormat, fmt.Sprintf(format, args...), r.off)
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Next consumes the next n bytes and returns them as a view into the image,
// or nil with the error set when n is negative or more than remain (or an
// earlier read failed). The view is read-only — the image may be shared with
// concurrent decoders — and its capacity is its length, so an append by the
// caller copies instead of writing into the image. Array-shaped state (a
// cache's lines) is decoded from one view in one loop instead of a field at
// a time.
func (r *Reader) Next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.Fail("truncated: need %d bytes, have %d", n, len(r.data)-r.off)
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Next(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a bool; any byte other than 0 or 1 is an error.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail("invalid bool byte")
		return false
	}
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64-encoded int, failing if it overflows the platform int.
func (r *Reader) Int() int {
	v := r.I64()
	if int64(int(v)) != v {
		r.Fail("int %d overflows", v)
		return 0
	}
	return int(v)
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads a collection length and validates it against the remaining
// input, assuming each element occupies at least elemSize bytes.
func (r *Reader) Len(elemSize int) int {
	n := int(r.U32())
	if elemSize < 1 {
		elemSize = 1
	}
	if r.err == nil && n > r.Remaining()/elemSize {
		r.Fail("implausible length %d (only %d bytes left)", n, r.Remaining())
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	return string(r.Next(r.Len(1)))
}

// I64s reads a length-prefixed int64 slice.
func (r *Reader) I64s() []int64 {
	n := r.Len(8)
	if r.err != nil {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.I64()
	}
	return vs
}

// F64s reads a length-prefixed float64 slice.
func (r *Reader) F64s() []float64 {
	n := r.Len(8)
	if r.err != nil {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}
