// Package report renders the reproduction's outputs: plottable data
// series (gnuplot-style .dat files) for every figure, ASCII tables, and
// paper-versus-measured comparison rows for EXPERIMENTS.md.
package report

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/stats"
)

// Series is one plottable (X, Y) data series.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []stats.Point
}

// FromECDFCDF builds the cumulative panel of a marginal figure.
func FromECDFCDF(name string, e *stats.ECDF) Series {
	return Series{Name: name, XLabel: "x", YLabel: "P[X <= x]", Points: e.CDFPoints()}
}

// FromECDFCCDF builds the complementary panel.
func FromECDFCCDF(name string, e *stats.ECDF) Series {
	return Series{Name: name, XLabel: "x", YLabel: "P[X >= x]", Points: e.CCDFPoints()}
}

// FromBinned renders a binned time series.
func FromBinned(name string, b stats.BinnedSeries, xlabel, ylabel string) Series {
	return Series{Name: name, XLabel: xlabel, YLabel: ylabel, Points: b.Points()}
}

// FromRankShare renders a descending rank-frequency vector as
// (rank, share) points (Figures 2 and 7).
func FromRankShare(name string, shares []float64) Series {
	pts := make([]stats.Point, len(shares))
	for i, s := range shares {
		pts[i] = stats.Point{X: float64(i + 1), Y: s}
	}
	return Series{Name: name, XLabel: "rank", YLabel: "share", Points: pts}
}

// FromHistogram renders a normalized histogram as (bin center, frequency)
// points.
func FromHistogram(name string, h *stats.Histogram) Series {
	centers := h.Centers()
	freqs := h.Frequencies()
	pts := make([]stats.Point, 0, len(centers))
	for i := range centers {
		if freqs == nil {
			break
		}
		pts = append(pts, stats.Point{X: centers[i], Y: freqs[i]})
	}
	return Series{Name: name, XLabel: "x", YLabel: "frequency", Points: pts}
}

// FromACF renders an autocorrelation function as (lag, r) points.
func FromACF(name string, acf []float64) Series {
	pts := make([]stats.Point, len(acf))
	for i, r := range acf {
		pts[i] = stats.Point{X: float64(i), Y: r}
	}
	return Series{Name: name, XLabel: "lag", YLabel: "autocorrelation", Points: pts}
}

// WriteDat writes the series in gnuplot format: a comment header followed
// by "x y" lines.
func (s Series) WriteDat(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n# %s\t%s\n", s.Name, s.XLabel, s.YLabel); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%g\t%g\n", p.X, p.Y); err != nil {
			return err
		}
	}
	return nil
}

// SaveDat writes the series to a .dat file under dir, deriving the file
// name from the series name. The file is written through a buffer, and
// a failed write, flush or close is an error: a full disk never leaves
// a short file reported as written.
func (s Series) SaveDat(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s.Name)
	path := filepath.Join(dir, name+".dat")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	err = s.WriteDat(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	return path, nil
}

// Table is a simple ASCII table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, padding or truncating to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	var total int
	for _, w := range widths {
		total += w + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// Comparison is one paper-versus-measured row of EXPERIMENTS.md.
type Comparison struct {
	Experiment string // e.g. "Figure 11"
	Quantity   string // e.g. "session ON lognormal mu"
	Paper      float64
	Measured   float64
	Note       string
}

// RelErr returns |measured - paper| / |paper| (infinite if paper is 0 and
// measured is not).
func (c Comparison) RelErr() float64 {
	if c.Paper == 0 {
		if c.Measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(c.Measured-c.Paper) / math.Abs(c.Paper)
}

// ComparisonTable renders comparisons as an aligned ASCII table with
// caller-chosen value-column labels — the Table-2-style report of the
// calibration loop, where the columns are "Source" and "Fitted" (or
// "Twin") rather than "Paper" and "Measured". The Comparison.Paper
// field feeds the left column and Measured the right.
func ComparisonTable(w io.Writer, title, leftLabel, rightLabel string, comparisons []Comparison) error {
	t := Table{Title: title, Headers: []string{"Layer", "Quantity", leftLabel, rightLabel, "Rel. err", "Note"}}
	for _, c := range comparisons {
		rel := "-"
		if !math.IsInf(c.RelErr(), 0) {
			rel = fmt.Sprintf("%.1f%%", c.RelErr()*100)
		}
		t.AddRow(c.Experiment, c.Quantity,
			fmt.Sprintf("%.6g", c.Paper), fmt.Sprintf("%.6g", c.Measured), rel, c.Note)
	}
	return t.Render(w)
}

// MarkdownTable renders comparisons as a markdown table for
// EXPERIMENTS.md.
func MarkdownTable(w io.Writer, comparisons []Comparison) error {
	if _, err := fmt.Fprintln(w, "| Experiment | Quantity | Paper | Measured | Rel. err | Note |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---|---|---|---|"); err != nil {
		return err
	}
	for _, c := range comparisons {
		rel := "-"
		if !math.IsInf(c.RelErr(), 0) {
			rel = fmt.Sprintf("%.1f%%", c.RelErr()*100)
		}
		if _, err := fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %s | %s |\n",
			c.Experiment, c.Quantity, c.Paper, c.Measured, rel, c.Note); err != nil {
			return err
		}
	}
	return nil
}
