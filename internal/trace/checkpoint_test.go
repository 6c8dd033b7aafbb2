package trace

import (
	"bytes"
	"errors"
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
