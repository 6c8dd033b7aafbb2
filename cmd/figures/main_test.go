package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quick are the windows internal/exp/testdata/quick was written at, by this
// command (a5dc54a): the goldens TestFiguresGolden holds exp to are also this
// command's.
const quick = "-warmup 500 -measure 3500 -push 1000"

func want(t *testing.T, id string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "internal", "exp", "testdata", "quick", id+".tsv"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGolden: stdout is the requested experiments in the requested order
// (not Figures() order), -out writes one file per experiment and nothing to
// stdout, and progress goes to stderr unless -q.
func TestGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(strings.Fields("-exp fig13,table2 -q -j 2 "+quick), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if got := stdout.Bytes(); !bytes.Equal(got, append(want(t, "fig13"), want(t, "table2")...)) {
		t.Errorf("figures -exp fig13,table2 differs from testdata/quick:\n%s", got)
	}
	if stderr.Len() > 0 {
		t.Errorf("-q wrote to stderr: %s", stderr.Bytes())
	}

	dir := filepath.Join(t.TempDir(), "out")
	stdout.Reset()
	if err := run(strings.Fields("-exp fig6,table1 -fork -out "+dir+" "+quick), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig6", "table1"} {
		got, err := os.ReadFile(filepath.Join(dir, id+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		// fig6 is a schemes-off run: forked from the shared warmup it
		// byte-matches the cold golden.
		if !bytes.Equal(got, want(t, id)) {
			t.Errorf("%s.tsv differs from testdata/quick:\n%s", id, got)
		}
	}
	if stdout.Len() > 0 {
		t.Errorf("-out wrote to stdout: %s", stdout.Bytes())
	}
	if log := stderr.String(); !strings.Contains(log, "figures: fig6 done in") || !strings.Contains(log, "figures: running workload-1") {
		t.Errorf("progress missing from stderr: %s", log)
	}
}

// TestRunRejectsBeforeSimulating: a bad id fails the whole invocation before
// the good one beside it runs.
func TestRunRejectsBeforeSimulating(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(strings.Fields("-exp fig11,nope"), &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) || stdout.Len() > 0 {
		t.Errorf("figures -exp fig11,nope: err %v, stdout %q", err, stdout.Bytes())
	}
	if err := run([]string{"-nope"}, &stdout, &stderr); err == nil {
		t.Error("unknown flag accepted")
	}
}
