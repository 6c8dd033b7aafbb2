package snapshot

import (
	"bytes"
	"strings"
	"testing"
)

// TestWriterLenOutOfRange: a collection length the format cannot hold is an
// encode error, and the error sticks — nothing is written after it.
func TestWriterLenOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	header := buf.Len()
	w.Len(-1)
	w.I64(7)
	if err := w.Err(); err == nil || !strings.Contains(err.Error(), "length -1 out of range") {
		t.Errorf("Len(-1): %v", err)
	}
	if buf.Len() != header {
		t.Errorf("%d bytes written after the failed Len", buf.Len()-header)
	}
}
