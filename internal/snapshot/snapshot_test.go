package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

const headerLen = len(Magic) + 4

// TestWriterLenOutOfRange: a collection length the format cannot hold is an
// encode error, and the error sticks — nothing is written after it, and the
// bytes still pending when it struck are dropped, not flushed.
func TestWriterLenOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Len(-1)
	w.I64(7)
	if err := w.Err(); err == nil || !strings.Contains(err.Error(), "length -1 out of range") {
		t.Errorf("Len(-1): %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("%d bytes reached the sink of a failed stream", buf.Len())
	}
}

// TestReaderNext pins the view the array decoders read through: exactly the
// bytes asked for or a sticky ErrFormat, never a panic, and never a slice
// through which a caller could write into an image other decoders share.
func TestReaderNext(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10; i++ {
		w.U8(uint8(i))
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	pristine := bytes.Clone(img)
	open := func() *Reader {
		r, err := NewReaderBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	for _, n := range []int{-1, math.MinInt, 11, math.MaxInt} {
		r := open()
		if b := r.Next(n); b != nil || !errors.Is(r.Err(), ErrFormat) {
			t.Errorf("Next(%d) of 10 remaining: %v, %v; want nil and ErrFormat", n, b, r.Err())
		}
		// Sticky: what would have fitted no longer reads, and nothing moved.
		first := r.Err()
		if b := r.Next(1); b != nil || r.U8() != 0 || r.U64() != 0 || r.Err() != first || r.Remaining() != 10 {
			t.Errorf("after a failed Next(%d): Next(1) = %v, err %v, %d remaining", n, b, r.Err(), r.Remaining())
		}
	}

	r := open()
	head := r.Next(4)
	if !bytes.Equal(head, []byte{0, 1, 2, 3}) || cap(head) != len(head) {
		t.Fatalf("Next(4) = %v with capacity %d", head, cap(head))
	}
	_ = append(head, 0xEE) // cap == len: this copies, byte 4 of the payload survives
	if empty := r.Next(0); empty == nil || len(empty) != 0 || r.Err() != nil {
		t.Errorf("Next(0) = %v, %v", empty, r.Err())
	}
	rest := r.Next(r.Remaining()) // n == remaining is not a truncation
	if !bytes.Equal(rest, []byte{4, 5, 6, 7, 8, 9}) || cap(rest) != len(rest) || r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("Next(remaining) = %v (cap %d), err %v, %d remaining", rest, cap(rest), r.Err(), r.Remaining())
	}
	if !bytes.Equal(img, pristine) {
		t.Error("a caller's append reached the image")
	}
	if r.Next(1) != nil || !errors.Is(r.Err(), ErrFormat) {
		t.Errorf("Next(1) at the end: %v", r.Err())
	}
}

// TestNewReaderSizesFromLen: a stream that reports its length is buffered
// whole, from wherever it stands; one that does not decodes to the same.
func TestNewReaderSizesFromLen(t *testing.T) {
	frame, err := EncodeEntry("k", bytes.Repeat([]byte{7}, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	partlyRead := bytes.NewBuffer(append([]byte("skip"), frame...))
	partlyRead.Next(4)
	for name, rd := range map[string]io.Reader{
		"bytes.Reader": bytes.NewReader(frame),
		"bytes.Buffer": partlyRead,
		"no Len":       onlyReader{bytes.NewReader(frame)},
	} {
		r, err := NewReader(rd)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.String() != "k" || len(r.Blob()) != 100_000 || r.Err() != nil || r.Remaining() != 8 {
			t.Errorf("%s: decoded wrongly (%v, %d remaining)", name, r.Err(), r.Remaining())
		}
	}
}

type onlyReader struct{ r *bytes.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// recordingSink notes the size of every Write it is handed and, from call
// failAt on (1-based; 0 = never), refuses them.
type recordingSink struct {
	bytes.Buffer
	sizes  []int
	first  []*byte // &p[0] of each write
	failAt int
}

var errSink = errors.New("sink full")

func (s *recordingSink) Write(p []byte) (int, error) {
	s.sizes = append(s.sizes, len(p))
	s.first = append(s.first, &p[0])
	if s.failAt != 0 && len(s.sizes) >= s.failAt {
		return 0, errSink
	}
	return s.Buffer.Write(p)
}

// TestWriterBuffersAndBypasses: small writes leave in buffer-sized pieces, a
// blob of at least the buffer's size goes to the sink as the caller's own
// slice, behind everything written before it, and Err flushes the tail.
func TestWriterBuffersAndBypasses(t *testing.T) {
	var sink recordingSink
	w := NewWriter(&sink)
	w.U8(1)
	if len(sink.sizes) != 0 {
		t.Fatalf("writes %v reached the sink before the buffer filled", sink.sizes)
	}
	big := bytes.Repeat([]byte{0xAB}, writerBuf)
	w.Blob(big)
	w.U8(2)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if want := []int{headerLen + 1 + 4, writerBuf, 1}; len(sink.sizes) != 3 || sink.sizes[0] != want[0] || sink.sizes[1] != want[1] || sink.sizes[2] != want[2] {
		t.Fatalf("sink saw writes of %v bytes, want %v", sink.sizes, want)
	}
	if sink.first[1] != &big[0] {
		t.Error("the large blob was copied on its way to the sink")
	}

	// One byte short of the buffer is buffered like any other write.
	sink = recordingSink{}
	w = NewWriter(&sink)
	w.Blob(big[:writerBuf-1])
	if len(sink.sizes) != 1 || sink.sizes[0] != headerLen+4 {
		t.Fatalf("sink saw %v: a write that fits the buffer flushes what is pending and waits", sink.sizes)
	}
	if err := w.Err(); err != nil || sink.Len() != headerLen+4+writerBuf-1 {
		t.Fatalf("after Err: %v, %d bytes", err, sink.Len())
	}
}

// TestWriterSinkFailureIsSticky: the io.Writer failing on its k-th call is
// the stream's error from then on — reported by Err, by every later Err, and
// never retried — whether the failing call was a flush or a bypass.
func TestWriterSinkFailureIsSticky(t *testing.T) {
	big := make([]byte, 2*writerBuf)
	// Calls 1-3 flush full buffers, 4 flushes the tail ahead of the blob, 5 is
	// the blob itself, 6 is Err's flush.
	for k := 1; k <= 6; k++ {
		sink := recordingSink{failAt: k}
		w := NewWriter(&sink)
		for i := 0; i < 3*writerBuf/8; i++ {
			w.U64(uint64(i))
		}
		w.Blob(big)
		w.String("after")
		w.Reserve(18)[0] = 1
		if err := w.Err(); !errors.Is(err, errSink) {
			t.Fatalf("sink failing on call %d: Err() = %v", k, err)
		}
		calls := len(sink.sizes)
		w.U64(9)
		w.Blob(big)
		if err := w.Err(); !errors.Is(err, errSink) || len(sink.sizes) != calls || calls != k {
			t.Errorf("sink failing on call %d: %d calls by the first Err, %d after, err %v", k, calls, len(sink.sizes), err)
		}
	}
}

// TestWriterReserveTooLarge: a reservation is bounded by the buffer, and one
// past it is an encode error with scratch space returned, not a panic.
func TestWriterReserveTooLarge(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if b := w.Reserve(writerBuf); len(b) != writerBuf {
		t.Fatalf("Reserve(buffer size) returned %d bytes", len(b))
	}
	if b := w.Reserve(writerBuf + 1); len(b) != writerBuf+1 {
		t.Errorf("Reserve(buffer size + 1) returned %d bytes", len(b))
	}
	if err := w.Err(); err == nil || !strings.Contains(err.Error(), "reserve of") {
		t.Errorf("Err() = %v", err)
	}
}

// TestWriterBytesMatchUnbufferedEncoding holds the buffered writer to the
// format: a long mixed sequence of calls — long enough to cross the buffer
// boundary at every alignment, with blobs on both sides of the bypass size —
// yields the bytes of the same values laid end to end, and the Reader takes
// them back.
func TestWriterBytesMatchUnbufferedEncoding(t *testing.T) {
	le := binary.LittleEndian
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := le.AppendUint32([]byte(Magic), Version)
	blobs := [][]byte{nil, bytes.Repeat([]byte{1}, 300), bytes.Repeat([]byte{2}, writerBuf-1), bytes.Repeat([]byte{3}, writerBuf), bytes.Repeat([]byte{4}, writerBuf+1)}
	const rounds = 3_000
	for i := 0; i < rounds; i++ {
		v := uint64(i) * 0x9E3779B97F4A7C15
		w.U8(uint8(v))
		want = append(want, uint8(v))
		w.Bool(i%3 == 0)
		want = append(want, min(uint8(i%3), 1)^1)
		w.U32(uint32(v >> 7))
		want = le.AppendUint32(want, uint32(v>>7))
		w.U64(v)
		want = le.AppendUint64(want, v)
		w.Int(-i)
		want = le.AppendUint64(want, uint64(int64(-i)))
		w.F64(float64(i) / 3)
		want = le.AppendUint64(want, math.Float64bits(float64(i)/3))
		s := strings.Repeat("s", i%40)
		w.String(s)
		want = append(le.AppendUint32(want, uint32(len(s))), s...)
		w.I64s([]int64{int64(i), -1})
		want = le.AppendUint64(le.AppendUint64(le.AppendUint32(want, 2), uint64(i)), math.MaxUint64)
		w.F64s([]float64{0.5})
		want = le.AppendUint64(le.AppendUint32(want, 1), math.Float64bits(0.5))
		rec := w.Reserve(18)
		for j := range rec {
			rec[j] = byte(i + j)
			want = append(want, byte(i+j))
		}
		if i%500 == 0 {
			b := blobs[i/500%len(blobs)]
			w.Blob(b)
			want = append(le.AppendUint32(want, uint32(len(b))), b...)
		}
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("buffered stream of %d bytes differs from the %d bytes of its values laid end to end", buf.Len(), len(want))
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds && r.Err() == nil; i++ {
		v := uint64(i) * 0x9E3779B97F4A7C15
		ok := r.U8() == uint8(v) && r.Bool() == (i%3 == 0) && r.U32() == uint32(v>>7) && r.U64() == v &&
			r.Int() == -i && r.F64() == float64(i)/3 && r.String() == strings.Repeat("s", i%40)
		if vs := r.I64s(); !ok || len(vs) != 2 || vs[0] != int64(i) || vs[1] != -1 {
			t.Fatalf("round %d reads back wrongly", i)
		}
		if fs, rec := r.F64s(), r.Next(18); len(fs) != 1 || fs[0] != 0.5 || len(rec) != 18 || rec[17] != byte(i+17) {
			t.Fatalf("round %d reads back wrongly", i)
		}
		if i%500 == 0 && !bytes.Equal(r.Blob(), blobs[i/500%len(blobs)]) {
			t.Fatalf("round %d: blob reads back wrongly", i)
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("read back: %v, %d bytes left", r.Err(), r.Remaining())
	}
}
