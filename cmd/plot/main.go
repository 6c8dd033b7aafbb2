// Command plot renders the .tsv files produced by cmd/figures as terminal
// charts (bar charts, sparklines) or as standalone SVG figures.
//
// Usage:
//
//	plot results/fig11.tsv                      # bars of a chosen column
//	plot -col 4 results/fig11.tsv               # pick the column (0-based)
//	plot -spark results/fig14.tsv               # sparkline per numeric column
//	plot -svg fig11.svg results/fig11.tsv       # grouped SVG bar chart
//	plot -svg fig14.svg -line results/fig14.tsv # SVG line chart (x = col 0)
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"nocmem/internal/ascii"
	"nocmem/internal/svg"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "plot:", err)
		os.Exit(1)
	}
}

// run renders one chart or returns an error: the chart is complete in memory
// before a byte reaches stdout or the -svg file is created.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("plot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		col      = fs.Int("col", -1, "value column to plot (default: last numeric column)")
		spark    = fs.Bool("spark", false, "render each numeric column as a sparkline")
		width    = fs.Int("width", 50, "bar width in characters")
		baseline = fs.Float64("baseline", 0, "draw a marker at this value (e.g. 1.0 for normalized speedups)")
		svgOut   = fs.String("svg", "", "write an SVG figure to this file instead of terminal output")
		line     = fs.Bool("line", false, "with -svg: line chart with column 0 as the x axis")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: plot [flags] <file.tsv>")
	}
	path := fs.Arg(0)
	header, rows, err := readTSV(path)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return errors.New("no data rows")
	}

	// Every mode charts the numeric columns right of the label column; a
	// file without one (the prose of Tables 1 and 2, Fig. 12's two stacked
	// tables) is refused here.
	var names []string
	var cols [][]float64
	for c := 1; c < len(header); c++ {
		if vals, ok := column(rows, c); ok {
			names = append(names, header[c])
			cols = append(cols, vals)
		}
	}
	if len(cols) == 0 {
		return errors.New("no numeric columns")
	}
	labels := make([]string, len(rows))
	for i, r := range rows {
		labels[i] = r[0]
	}

	var out bytes.Buffer
	switch {
	case *svgOut != "" && *line:
		xs, ok := column(rows, 0)
		if !ok {
			return errors.New("column 0 is not numeric; a line chart needs a numeric x axis")
		}
		chart := svg.Chart{Title: path, XLabel: header[0]}
		for c, ys := range cols {
			chart.Series = append(chart.Series, svg.Series{Name: names[c], X: xs, Y: ys})
		}
		err = chart.Render(&out)
	case *svgOut != "":
		values := make([][]float64, len(rows))
		for i := range rows {
			for _, vals := range cols {
				values[i] = append(values[i], vals[i])
			}
		}
		err = svg.BarChart{Title: path, Labels: labels, Series: names, Values: values, Baseline: *baseline}.Render(&out)
	case *spark:
		for c, vals := range cols {
			lo, hi := minMax(vals)
			fmt.Fprintf(&out, "%-12s %s  [%.3g .. %.3g]\n", names[c], ascii.Spark(vals), lo, hi)
		}
	default:
		name, vals := names[len(cols)-1], cols[len(cols)-1]
		if *col >= 0 {
			var ok bool
			if vals, ok = column(rows, *col); !ok || *col >= len(header) { // a row may be longer than the header
				return fmt.Errorf("column %d is not numeric", *col)
			}
			name = header[*col]
		}
		fmt.Fprintf(&out, "%s — %s\n", path, name)
		err = ascii.Bar{Width: *width, Baseline: *baseline}.Render(&out, labels, vals)
	}
	if err != nil {
		return err
	}
	if *svgOut != "" {
		if err := os.WriteFile(*svgOut, out.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *svgOut)
		return nil
	}
	_, err = stdout.Write(out.Bytes())
	return err
}

// readTSV loads a cmd/figures output file: '#' comment lines, then a header
// row, then data rows.
func readTSV(path string) (header []string, rows [][]string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), "\n")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if header == nil {
			header = fields
			continue
		}
		rows = append(rows, fields)
	}
	return header, rows, sc.Err()
}

// column extracts a numeric column; ok is false if any cell fails to parse.
func column(rows [][]string, c int) ([]float64, bool) {
	out := make([]float64, 0, len(rows))
	for _, r := range rows {
		if c >= len(r) {
			return nil, false
		}
		v, err := strconv.ParseFloat(r[c], 64)
		if err != nil {
			return nil, false
		}
		out = append(out, v)
	}
	return out, true
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
