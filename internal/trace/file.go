package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Trace file format (little endian):
//
//	magic   [8]byte  "NOCTRC1\n"
//	nHot    uint32   hot working-set size in lines
//	nWarm   uint32   warm working-set size in lines
//	hot     nHot  x uint64 line addresses
//	warm    nWarm x uint64 line addresses
//	records until EOF:
//	  flags byte     bit0 = memory op, bit1 = store
//	  addr  uint64   present only for memory ops
//
// A FileTrace replays the records in a loop, so a finite capture drives an
// arbitrarily long simulation.
var traceMagic = [8]byte{'N', 'O', 'C', 'T', 'R', 'C', '1', '\n'}

const (
	flagMem   = 1 << 0
	flagStore = 1 << 1
)

// Writer records an instruction stream to a trace file.
type Writer struct {
	w          *bufio.Writer
	headerDone bool
}

// NewWriter wraps w. WriteHeader must be called before the first Write.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// WriteHeader emits the magic and the prewarm working sets.
func (t *Writer) WriteHeader(hot, warm []uint64) error {
	if t.headerDone {
		return fmt.Errorf("trace: header already written")
	}
	if _, err := t.w.Write(traceMagic[:]); err != nil {
		return err
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(hot)))
	if _, err := t.w.Write(b[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b[:], uint32(len(warm)))
	if _, err := t.w.Write(b[:]); err != nil {
		return err
	}
	var a [8]byte
	for _, lines := range [][]uint64{hot, warm} {
		for _, l := range lines {
			binary.LittleEndian.PutUint64(a[:], l)
			if _, err := t.w.Write(a[:]); err != nil {
				return err
			}
		}
	}
	t.headerDone = true
	return nil
}

// Write appends one instruction record.
func (t *Writer) Write(in Instr) error {
	if !t.headerDone {
		return fmt.Errorf("trace: WriteHeader not called")
	}
	var flags byte
	if in.IsMem {
		flags |= flagMem
	}
	if in.IsStore {
		flags |= flagStore
	}
	if err := t.w.WriteByte(flags); err != nil {
		return err
	}
	if in.IsMem {
		var a [8]byte
		binary.LittleEndian.PutUint64(a[:], in.Addr)
		if _, err := t.w.Write(a[:]); err != nil {
			return err
		}
	}
	return nil
}

// Flush drains buffered output.
func (t *Writer) Flush() error { return t.w.Flush() }

// Record captures n instructions from a source into w.
func Record(w io.Writer, src AppSource, n int64) error {
	tw := NewWriter(w)
	hot, warm := src.PrewarmLines()
	if err := tw.WriteHeader(hot, warm); err != nil {
		return err
	}
	for i := int64(0); i < n; i++ {
		if err := tw.Write(src.Next()); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// FileTrace replays a recorded trace, looping at EOF. It implements
// AppSource. Not safe for concurrent use.
type FileTrace struct {
	name    string
	data    []byte // instruction records (header stripped)
	pos     int
	hot     []uint64
	warm    []uint64
	records int64
	loops   int64
}

// OpenFile memory-maps (reads) a trace file for replay.
func OpenFile(path string) (*FileTrace, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	t.name = path
	return t, nil
}

// Parse decodes an in-memory trace image.
func Parse(raw []byte) (*FileTrace, error) {
	if len(raw) < len(traceMagic)+8 {
		return nil, fmt.Errorf("trace: file too short")
	}
	for i, m := range traceMagic {
		if raw[i] != m {
			return nil, fmt.Errorf("trace: bad magic")
		}
	}
	off := len(traceMagic)
	nHot := int(binary.LittleEndian.Uint32(raw[off:]))
	nWarm := int(binary.LittleEndian.Uint32(raw[off+4:]))
	off += 8
	need := off + 8*(nHot+nWarm)
	if len(raw) < need {
		return nil, fmt.Errorf("trace: truncated prewarm section")
	}
	t := &FileTrace{hot: make([]uint64, nHot), warm: make([]uint64, nWarm)}
	for i := range t.hot {
		t.hot[i] = binary.LittleEndian.Uint64(raw[off:])
		off += 8
	}
	for i := range t.warm {
		t.warm[i] = binary.LittleEndian.Uint64(raw[off:])
		off += 8
	}
	t.data = raw[off:]
	// Validate the record stream and count the records once.
	for p := 0; p < len(t.data); {
		flags := t.data[p]
		p++
		if flags&flagMem != 0 {
			if p+8 > len(t.data) {
				return nil, fmt.Errorf("trace: truncated record at byte %d", p)
			}
			p += 8
		}
		t.records++
	}
	if t.records == 0 {
		return nil, fmt.Errorf("trace: no instruction records")
	}
	return t, nil
}

// Records returns the number of records in one pass of the trace.
func (t *FileTrace) Records() int64 { return t.records }

// Loops returns how many times the trace has wrapped so far.
func (t *FileTrace) Loops() int64 { return t.loops }

// PrewarmLines implements AppSource.
func (t *FileTrace) PrewarmLines() (hot, warm []uint64) { return t.hot, t.warm }

// Next implements Source, looping at the end of the capture.
func (t *FileTrace) Next() Instr {
	if t.pos >= len(t.data) {
		t.pos = 0
		t.loops++
	}
	flags := t.data[t.pos]
	t.pos++
	in := Instr{IsMem: flags&flagMem != 0, IsStore: flags&flagStore != 0}
	if in.IsMem {
		in.Addr = binary.LittleEndian.Uint64(t.data[t.pos:])
		t.pos += 8
	}
	return in
}
