package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecordInspectRoundTrip records 20 000 milc instructions and inspects
// the file; testdata/roundtrip.txt is what the tracegen binary at 4ceec6f
// printed for the same two invocations in the trace's directory.
func TestRecordInspectRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "milc.trace")
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"-app", "milc", "-n", "20000", "-o", path},
		{"-inspect", path},
	} {
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("tracegen %v: %v", args, err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "roundtrip.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.ReplaceAll(stdout.String(), dir+string(filepath.Separator), ""); got != string(want) {
		t.Errorf("--- got\n%s--- want\n%s", got, want)
	}
	if stderr.Len() > 0 {
		t.Errorf("stderr: %s", stderr.Bytes())
	}
}

// TestRunRejects: nothing is created for a request that cannot be recorded.
func TestRunRejects(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{},
		{"-app", "milc"},
		{"-app", "nope", "-o", filepath.Join(dir, "x.trace")},
		{"-app", "milc", "-core", "-1", "-o", filepath.Join(dir, "y.trace")},
		{"-inspect", filepath.Join(dir, "missing.trace")},
		{"-nope"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("tracegen %v: accepted", args)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) > 0 {
		t.Errorf("a refused request left %v behind", left)
	}
}
