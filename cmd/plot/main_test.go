package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden renders frozen copies of two results files (testdata/*.tsv, so
// a PR that regenerates results/ does not move these bytes) in every mode;
// the expected files were written by the plot binary at 4ceec6f.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ args, golden, svg string }{
		{"testdata/fig16c.tsv", "fig16c.bars.txt", ""},
		{"-col 1 -width 30 -baseline 1 testdata/fig16c.tsv", "fig16c.col1.txt", ""},
		{"-spark testdata/fig6.tsv", "fig6.spark.txt", ""},
		{"-baseline 1 testdata/fig16c.tsv", "fig16c.svg", "bars.svg"},
		{"-line testdata/fig6.tsv", "fig6.line.svg", "line.svg"},
	} {
		args := strings.Fields(c.args)
		if c.svg != "" {
			args = append([]string{"-svg", filepath.Join(dir, c.svg)}, args...)
		}
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("plot %s: %v", c.args, err)
		}
		got := stdout.Bytes()
		if c.svg != "" {
			if want := "wrote " + filepath.Join(dir, c.svg) + "\n"; stdout.String() != want {
				t.Errorf("plot %s printed %q, want %q", c.args, got, want)
			}
			var err error
			if got, err = os.ReadFile(filepath.Join(dir, c.svg)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("plot %s differs from testdata/%s\n--- got\n%s--- want\n%s", c.args, c.golden, got, want)
		}
	}
}

// TestEveryResultsFile: for each committed results/*.tsv and each mode, plot
// draws a chart or returns an error — it never panics, and a refused request
// prints nothing and creates no file.
func TestEveryResultsFile(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "*.tsv"))
	if err != nil || len(files) != 15 {
		t.Fatalf("results/*.tsv: %d files, %v", len(files), err)
	}
	refused := map[string]int{}
	for _, f := range files {
		for _, mode := range []string{"", "-spark", "-svg", "-svg -line"} {
			args := strings.Fields(mode)
			svgPath := filepath.Join(t.TempDir(), "out.svg")
			if len(args) > 0 && args[0] == "-svg" {
				args = append([]string{"-svg", svgPath}, args[1:]...)
			}
			var stdout, stderr bytes.Buffer
			err := run(append(args, f), &stdout, &stderr)
			_, statErr := os.Stat(svgPath)
			switch {
			case err != nil:
				refused[filepath.Base(f)]++
				if stdout.Len() > 0 || statErr == nil {
					t.Errorf("plot %s %s: refused (%v) but printed %q, svg created: %v", mode, f, err, stdout.Bytes(), statErr == nil)
				}
			case stdout.Len() == 0:
				t.Errorf("plot %s %s: neither a chart nor an error", mode, f)
			case strings.HasPrefix(mode, "-svg") && statErr != nil:
				t.Errorf("plot %s %s: reported success without writing the file", mode, f)
			}
		}
	}
	// The three files with no numeric column are refused in every mode.
	for _, name := range []string{"fig12.tsv", "table1.tsv", "table2.tsv"} {
		if refused[name] != 4 {
			t.Errorf("%s refused in %d of 4 modes", name, refused[name])
		}
	}
}

func TestRunRejects(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.tsv")
	if err := os.WriteFile(empty, []byte("# only a comment\nworkload\tvalue\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{},
		{"testdata/fig6.tsv", "testdata/fig16c.tsv"},
		{"testdata/missing.tsv"},
		{empty},
		{"-col", "0", "testdata/fig16c.tsv"}, // the label column
		{"-col", "9", "testdata/fig16c.tsv"},
		{"-nope", "testdata/fig6.tsv"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil || stdout.Len() > 0 {
			t.Errorf("plot %v: err %v, stdout %q", args, err, stdout.Bytes())
		}
	}
}
