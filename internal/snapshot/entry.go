package snapshot

import (
	"bytes"
	"fmt"
	"hash/crc32"
)

// Store-entry container: the on-disk framing of the simulation service's
// content-addressed store (internal/simd). An entry wraps an opaque payload
// (a result summary or a warm checkpoint image) together with the full cache
// key it was stored under and a 64-bit check of both, inside the same
// magic+version header as a checkpoint stream. The key lets a reader verify
// that a content-addressed filename (a hash of the key) really holds the
// entry it looked up, and the checksum turns bit rot and torn writes into a
// clean decode error instead of a poisoned cache — DecodeEntry never
// panics, whatever the input.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// entryCRC covers the key and the payload, so neither can be swapped or
// corrupted independently: a CRC-32C in the high word and a CRC-32 (IEEE) in
// the low one. Two independent 32-bit checks keep the frame's 64 bits of
// detection, and both run at hardware speed (SSE4.2 and carry-less multiply
// on amd64), several times the rate of a table-driven CRC-64.
func entryCRC(key string, payload []byte) uint64 {
	k := []byte(key)
	c := crc32.Update(crc32.Update(0, castagnoli, k), castagnoli, payload)
	i := crc32.Update(crc32.ChecksumIEEE(k), crc32.IEEETable, payload)
	return uint64(c)<<32 | uint64(i)
}

// Blob writes a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.Len(len(b))
	w.write(b)
}

// Blob reads a length-prefixed byte slice as a read-only view into the
// input (see Next): a store entry's payload is not copied out of its frame.
func (r *Reader) Blob() []byte {
	return r.Next(r.Len(1))
}

// EncodeEntry frames payload under key as one store entry.
func EncodeEntry(key string, payload []byte) ([]byte, error) {
	// The frame's size is known: the sink is allocated once, and the writer
	// buffers only what precedes the payload, which then goes straight in.
	head := len(Magic) + 4 + 4 + len(key) + 4
	var buf bytes.Buffer
	buf.Grow(head + len(payload) + 8)
	w := newWriter(&buf, head)
	w.String(key)
	w.Blob(payload)
	w.U64(entryCRC(key, payload))
	if err := w.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeEntry parses and verifies one store entry, returning the key it was
// stored under and its payload, a read-only view into data. Every failure mode — truncation, trailing
// garbage, bit flips anywhere in the frame — yields an error wrapping
// ErrFormat via the sticky-error reader.
func DecodeEntry(data []byte) (key string, payload []byte, err error) {
	r, err := NewReaderBytes(data)
	if err != nil {
		return "", nil, err
	}
	key = r.String()
	payload = r.Blob()
	sum := r.U64()
	if err := r.Err(); err != nil {
		return "", nil, err
	}
	if n := r.Remaining(); n != 0 {
		return "", nil, fmt.Errorf("%w: %d trailing bytes after store entry", ErrFormat, n)
	}
	if sum != entryCRC(key, payload) {
		return "", nil, fmt.Errorf("%w: store entry checksum mismatch (bit rot or torn write)", ErrFormat)
	}
	return key, payload, nil
}
