package snapshot

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

func TestEntryRoundTrip(t *testing.T) {
	key := "1,2;cfg|workload-7"
	payload := []byte("the payload bytes \x00\xff")
	enc, err := EncodeEntry(key, payload)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, gotPayload, err := DecodeEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key {
		t.Errorf("key %q, want %q", gotKey, key)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Errorf("payload %q, want %q", gotPayload, payload)
	}

	// Determinism: same inputs, same bytes.
	enc2, err := EncodeEntry(key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Error("EncodeEntry is not deterministic")
	}
}

func TestEntryEmptyPayload(t *testing.T) {
	enc, err := EncodeEntry("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	key, payload, err := DecodeEntry(enc)
	if err != nil {
		t.Fatal(err)
	}
	if key != "k" || len(payload) != 0 {
		t.Errorf("got (%q, %q)", key, payload)
	}
}

// TestEntryCorruption flips, truncates and extends an entry and requires a
// clean ErrFormat every time — the eviction contract of the on-disk store.
func TestEntryCorruption(t *testing.T) {
	enc, err := EncodeEntry("some-key", []byte("some payload worth protecting"))
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":            {},
		"not a checkpoint": []byte("definitely not a store entry"),
		"truncated header": enc[:4],
		"truncated body":   enc[:len(enc)-9],
		"trailing garbage": append(append([]byte{}, enc...), 'x'),
	}
	for i := 0; i < len(enc); i += 7 {
		b := append([]byte{}, enc...)
		b[i] ^= 0x40
		cases["bit flip at "+string(rune('0'+i%10))+"/"+string(rune('0'+i/10%10))] = b
	}
	for name, data := range cases {
		if bytes.Equal(data, enc) {
			continue
		}
		_, _, err := DecodeEntry(data)
		if err == nil {
			t.Errorf("%s: corrupted entry decoded without error", name)
		} else if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: error %v does not wrap ErrFormat", name, err)
		}
	}
}

// TestDecodeEntryDoesNotCopy: every fork from a store-backed warm image
// decodes a frame of several megabytes, so DecodeEntry returns the payload as
// a view of its input: decoding a 1 MB entry allocates under 1 KB.
func TestDecodeEntryDoesNotCopy(t *testing.T) {
	payload := bytes.Repeat([]byte{0xa5}, 1<<20)
	enc, err := EncodeEntry("some-key", payload)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		_, got, err := DecodeEntry(enc)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("decoded %d bytes, error %v", len(got), err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<10 {
		t.Errorf("decoding a 1 MB entry allocated %d bytes, want under 1 KB", per)
	}
}
