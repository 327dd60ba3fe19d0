// Package benchkit holds the small reporting toolkit the benchmark
// harness (cmd/sknnbench and the root bench suite) uses to print the
// paper's figures as tables: named series over a swept parameter, an
// aligned text renderer, and wall-clock measurement helpers.
package benchkit

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Point is one measurement in a series.
type Point struct {
	X float64 // swept parameter value (n, k, …)
	Y float64 // measurement (seconds, ratio, …)
}

// Series is one line of a figure: a label and its points.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a measurement.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Figure is a reproduction of one paper figure: several series over a
// common x-axis.
type Figure struct {
	Title  string // e.g. `Fig 2(a): SkNNb, k=5, K=512`
	XLabel string // e.g. `n (records)`
	YLabel string // e.g. `time (s)`
	Series []*Series
}

// NewFigure allocates a figure.
func NewFigure(title, xLabel, yLabel string) *Figure {
	return &Figure{Title: title, XLabel: xLabel, YLabel: yLabel}
}

// NewSeries adds and returns an empty series.
func (f *Figure) NewSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Fprint renders the figure as an aligned table: one row per x value,
// one column per series. Missing points render as "-".
func (f *Figure) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n%s\n", f.Title, strings.Repeat("-", len(f.Title))); err != nil {
		return err
	}
	// Collect the union of x values in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(tw, "\t%s (%s)", s.Name, f.YLabel)
	}
	fmt.Fprintln(tw)
	for _, x := range xs {
		fmt.Fprintf(tw, "%g", x)
		for _, s := range f.Series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(tw, "\t%.4g", y)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func lookup(s *Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Seconds converts a duration to float seconds (the paper's unit for
// Figure 2(a)-(c), minutes for (d)-(f); callers scale).
func Seconds(d time.Duration) float64 { return d.Seconds() }

// Minutes converts a duration to float minutes.
func Minutes(d time.Duration) float64 { return d.Minutes() }
