package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/snapshot"
)

// decodeErr encodes with enc, decodes the image with dec and returns the
// decode error.
func decodeErr(t *testing.T, enc, dec func(*snapshot.Codec)) error {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	enc(snapshot.EncodeTo(w))
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReaderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	dec(snapshot.DecodeFrom(r))
	return r.Err()
}

// TestDecodeRejects restores each scheme's image into a scheme of another
// shape, or breaks one field of it: the decoder must refuse with a
// snapshot.ErrFormat that names the field.
func TestDecodeRejects(t *testing.T) {
	s2cfg := config.Baseline32().S2
	s2cfg.Enabled = true
	scheme2 := func(nodes, banks int) *Scheme2 {
		s := NewScheme2(s2cfg, nodes, banks)
		s.Classify(1, 2, 40)
		return s
	}
	for _, tc := range []struct {
		name string
		enc  func(*snapshot.Codec)
		dec  func(*snapshot.Codec)
		want string
	}{
		{"scheme1_cores", NewScheme1(s1cfg(), 4).Walk, NewScheme1(s1cfg(), 3).Walk, "scheme-1 core count mismatch"},
		{"scheme2_nodes", scheme2(3, 8).Walk, NewScheme2(s2cfg, 2, 8).Walk, "scheme-2 node count mismatch"},
		{"scheme2_banks", scheme2(3, 8).Walk, NewScheme2(s2cfg, 3, 4).Walk, "bank-history shape mismatch"},
		{"scheme2_cursor", func() func(*snapshot.Codec) {
			s := scheme2(3, 8)
			s.tables[1].pos[2] = s.tables[1].th
			return s.Walk
		}(), NewScheme2(s2cfg, 3, 8).Walk, "bank-history cursor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeErr(t, tc.enc, tc.dec)
			if !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode returned %v, want an ErrFormat mentioning %q", err, tc.want)
			}
		})
	}
}
