package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"nocmem/internal/snapshot"
)

// TestFileTraceWalkRejects breaks the replay cursor of a trace file: a decode
// must refuse a cursor off the capture or inside a record with a
// snapshot.ErrFormat.
func TestFileTraceWalkRejects(t *testing.T) {
	gen, err := NewGenerator(MustLookup("mcf"), 0, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := Record(&raw, gen, 200); err != nil {
		t.Fatal(err)
	}
	parse := func() *FileTrace {
		ft, err := Parse(raw.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	for _, tc := range []struct {
		name   string
		damage func(ft *FileTrace)
		want   string
	}{
		{"past_the_capture", func(ft *FileTrace) { ft.pos = len(ft.data) + 1 }, "out of range"},
		{"negative_loops", func(ft *FileTrace) { ft.loops = -1 }, "out of range"},
		{"inside_a_record", func(ft *FileTrace) {
			for p := 0; p < len(ft.data); p++ {
				if ft.data[p]&flagMem != 0 {
					ft.pos = p + 1
					return
				}
			}
			t.Fatal("the capture holds no memory record")
		}, "inside a record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := parse()
			tc.damage(src)
			var buf bytes.Buffer
			w := snapshot.NewWriter(&buf)
			src.Walk(snapshot.EncodeTo(w))
			if err := w.Err(); err != nil {
				t.Fatal(err)
			}
			r, err := snapshot.NewReaderBytes(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			parse().Walk(snapshot.DecodeFrom(r))
			if err := r.Err(); !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode returned %v, want an ErrFormat mentioning %q", err, tc.want)
			}
		})
	}
}

// TestGeneratorWalkResumes walks a generator's state out part-way through its
// stream and into a fresh generator of the same (profile, core, seed): the
// two must issue the same instructions from there on, and the restored one
// must walk out the same bytes.
func TestGeneratorWalkResumes(t *testing.T) {
	for _, name := range []string{"mcf", "lbm"} {
		t.Run(name, func(t *testing.T) {
			p := MustLookup(name)
			gen := func() *Generator {
				g, err := NewGenerator(p, 5, 64, 7)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			walkOut := func(g *Generator) []byte {
				var buf bytes.Buffer
				w := snapshot.NewWriter(&buf)
				g.Walk(snapshot.EncodeTo(w), math.MaxUint64)
				if err := w.Err(); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			src := gen()
			for range 250_000 {
				src.Next()
			}
			img := walkOut(src)
			back := gen()
			r, err := snapshot.NewReaderBytes(img)
			if err != nil {
				t.Fatal(err)
			}
			back.Walk(snapshot.DecodeFrom(r), src.issued)
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			if r.Remaining() != 0 {
				t.Fatalf("%d bytes left after the walk", r.Remaining())
			}
			if !bytes.Equal(walkOut(back), img) {
				t.Fatal("the restored generator walks out other bytes")
			}
			for i := range 250_000 {
				if a, b := src.Next(), back.Next(); a != b {
					t.Fatalf("instruction %d after the walk: %+v, restored %+v", i, a, b)
				}
			}
		})
	}
}
