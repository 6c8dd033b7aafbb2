package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ from this build's output")

// golden compares got with testdata/name. The files were written by the
// nocsim binary at 4ceec6f, before run existed: regenerate them (go test
// ./cmd/nocsim -update) only in a PR that means to change simulated or
// estimated bytes, never to make a restructuring of this command pass.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestGolden drives run through every shape of its output — the headline
// table simulated and estimated, the per-application table of each, the
// -json writer to a file and to stdout, the 16-core machine forked from one
// warmup at -j 2 — on workload 7 at 2k+6k cycles.
func TestGolden(t *testing.T) {
	jsonFile := filepath.Join(t.TempDir(), "s1s2.json")
	for _, c := range []struct {
		stdout, stderr string // golden files; no stderr file means stderr stays empty
		args           string
	}{
		{"plain.txt", "", "-json " + jsonFile},
		{"v.txt", "v.stderr.txt", "-v"},
		{"cores16_fork_j2.txt", "", "-cores 16 -fork -j 2"},
		{"estimate.txt", "", "-estimate"},
		{"estimate_v_json.txt", "", "-estimate -v -json -"},
	} {
		args := append(strings.Fields("-workload 7 -warmup 2000 -measure 6000"), strings.Fields(c.args)...)
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("nocsim %s: %v", c.args, err)
		}
		golden(t, c.stdout, stdout.Bytes())
		if c.stderr != "" {
			golden(t, c.stderr, stderr.Bytes())
		} else if stderr.Len() > 0 {
			t.Errorf("nocsim %s wrote to stderr: %s", c.args, stderr.Bytes())
		}
	}
	got, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "s1s2.json", got)
}

func TestRunRejects(t *testing.T) {
	for _, args := range []string{"-cores 8", "-workload 19", "-nope", "-json /nonexistent/dir/x -estimate"} {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(args), &stdout, &stderr); err == nil {
			t.Errorf("nocsim %s: accepted", args)
		}
	}
}
