package cpu

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"nocmem/internal/config"
	"nocmem/internal/snapshot"
)

// decodeErr encodes src, decodes the image into dst and returns the decode
// error.
func decodeErr(t *testing.T, src, dst *Core) error {
	t.Helper()
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
	dst.Walk(snapshot.DecodeFrom(r))
	return r.Err()
}

// TestDecodeRejects breaks one field of a running core's state at a time:
// the encoder writes what it finds, and the decoder must refuse the image
// with a snapshot.ErrFormat that names the field.
func TestDecodeRejects(t *testing.T) {
	build := func(cfg config.CPU) *Core {
		m := &memSim{latency: 40}
		c := New(0, cfg, allMem(t), m.issue)
		m.c = c
		for now := int64(0); now < 500; now++ {
			m.tick(now)
			c.Tick(now)
		}
		return c
	}
	small := testCPU()
	small.WindowSize /= 2
	for _, tc := range []struct {
		name   string
		damage func(c *Core)
		dst    config.CPU
		want   string
	}{
		{"rob_size", func(*Core) {}, small, "ROB size mismatch"},
		{"rob_head", func(c *Core) { c.head = len(c.rob) }, testCPU(), "ROB cursor out of range"},
		{"rob_count", func(c *Core) { c.count = len(c.rob) + 1 }, testCPU(), "ROB cursor out of range"},
		{"mem_in_flight", func(c *Core) { c.memInFlight = c.cfg.LSQSize + 1 }, testCPU(), "in-flight memory count"},
		{"mem_in_flight_negative", func(c *Core) { c.memInFlight = -1 }, testCPU(), "in-flight memory count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := build(testCPU())
			tc.damage(src)
			err := decodeErr(t, src, New(0, tc.dst, allMem(t), func(uint64, bool, int) bool { return true }))
			if !errors.Is(err, snapshot.ErrFormat) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode returned %v, want an ErrFormat mentioning %q", err, tc.want)
			}
		})
	}
}
