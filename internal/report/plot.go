package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// PlotConfig picks the axes of an ASCII rendering of a Series.
type PlotConfig struct {
	LogX bool // logarithmic x axis (x must be > 0)
	LogY bool // logarithmic y axis (y must be > 0)
}

// The plot area of a terminal: columns and rows.
const (
	plotWidth  = 72
	plotHeight = 20
)

// Plot renders the series as an ASCII scatter plot — the closest a
// terminal gets to the paper's gnuplot panels. Points that cannot be
// represented on a log axis (non-positive values) are skipped.
func (s Series) Plot(w io.Writer, cfg PlotConfig) error {
	type xy struct{ x, y float64 }
	pts := make([]xy, 0, len(s.Points))
	for _, p := range s.Points {
		x, y := p.X, p.Y
		if cfg.LogX {
			if x <= 0 {
				continue
			}
			x = math.Log10(x)
		}
		if cfg.LogY {
			if y <= 0 {
				continue
			}
			y = math.Log10(y)
		}
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			continue
		}
		pts = append(pts, xy{x, y})
	}
	if len(pts) == 0 {
		_, err := fmt.Fprintf(w, "%s: no plottable points\n", s.Name)
		return err
	}

	minX, maxX := pts[0].x, pts[0].x
	minY, maxY := pts[0].y, pts[0].y
	for _, p := range pts {
		minX = math.Min(minX, p.x)
		maxX = math.Max(maxX, p.x)
		minY = math.Min(minY, p.y)
		maxY = math.Max(maxY, p.y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, plotHeight)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", plotWidth))
	}
	for _, p := range pts {
		col := int((p.x - minX) / (maxX - minX) * float64(plotWidth-1))
		row := int((p.y - minY) / (maxY - minY) * float64(plotHeight-1))
		grid[plotHeight-1-row][col] = '*'
	}

	if _, err := fmt.Fprintf(w, "%s\n", s.Name); err != nil {
		return err
	}
	yLabel := func(v float64) string {
		if cfg.LogY {
			return fmt.Sprintf("%9.3g", math.Pow(10, v))
		}
		return fmt.Sprintf("%9.3g", v)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", 9)
		switch i {
		case 0:
			label = yLabel(maxY)
		case plotHeight - 1:
			label = yLabel(minY)
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(row)); err != nil {
			return err
		}
	}
	xLo, xHi := minX, maxX
	if cfg.LogX {
		xLo, xHi = math.Pow(10, minX), math.Pow(10, maxX)
	}
	footer := fmt.Sprintf("%9.3g%s%.3g", xLo,
		strings.Repeat(" ", plotWidth-10), xHi)
	if _, err := fmt.Fprintf(w, "%s +%s\n%s  %s\n",
		strings.Repeat(" ", 9), strings.Repeat("-", plotWidth),
		strings.Repeat(" ", 9), footer); err != nil {
		return err
	}
	if s.XLabel != "" || s.YLabel != "" || cfg.LogX || cfg.LogY {
		axes := fmt.Sprintf("x: %s, y: %s", s.XLabel, s.YLabel)
		if cfg.LogX {
			axes += " (log x)"
		}
		if cfg.LogY {
			axes += " (log y)"
		}
		if _, err := fmt.Fprintf(w, "%s  [%s]\n", strings.Repeat(" ", 9), axes); err != nil {
			return err
		}
	}
	return nil
}
