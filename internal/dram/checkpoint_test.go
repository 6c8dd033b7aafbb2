package dram

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/snapshot"
)

// decodeErr encodes src, decodes the image into dst and returns the decode
// error. Payloads are nil and take no bytes.
func decodeErr(t *testing.T, src, dst *Controller) error {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	src.Walk(snapshot.EncodeTo(w), func(*any) {})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReaderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	dst.Walk(snapshot.DecodeFrom(r), func(*any) {})
	return r.Err()
}

// TestDecodeRejects breaks one field of a loaded controller at a time: the
// encoder writes what it finds, and the decoder must refuse the image with a
// snapshot.ErrFormat that names the field.
func TestDecodeRejects(t *testing.T) {
	var queued *Request
	build := func(cfg config.DRAM) *Controller {
		var done []*Request
		c := collectCtl(cfg, &done)
		for i := 0; i < 12; i++ {
			r := mkReq(i%4, int64(i))
			if err := c.Enqueue(r, 0); err != nil {
				t.Fatal(err)
			}
			queued = r
		}
		run(c, 0, 20)
		return c
	}
	fewer := testDRAM()
	fewer.BanksPerCtl /= 2
	for _, tc := range []struct {
		name   string
		damage func(c *Controller)
		dst    config.DRAM
		want   string
	}{
		{"bank_count", func(*Controller) {}, fewer, "bank count mismatch"},
		{"refresh_timer", func(c *Controller) { c.nextRefresh = -1 }, testDRAM(), "negative controller timer"},
		{"sample_timer", func(c *Controller) { c.nextSample = -1 }, testDRAM(), "negative controller timer"},
		{"request_bank", func(*Controller) { queued.Bank++ }, testDRAM(), "request for bank"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := build(testDRAM())
			tc.damage(src)
			var done []*Request
			err := decodeErr(t, src, collectCtl(tc.dst, &done))
			if !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode returned %v, want an ErrFormat mentioning %q", err, tc.want)
			}
		})
	}
}
