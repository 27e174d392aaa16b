package report

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestPlotLinear(t *testing.T) {
	s := Series{
		Name: "ramp", XLabel: "t", YLabel: "v",
		Points: []stats.Point{{X: 0, Y: 0}, {X: 5, Y: 5}, {X: 10, Y: 10}},
	}
	var buf bytes.Buffer
	if err := s.Plot(&buf, PlotConfig{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ramp") {
		t.Error("missing title")
	}
	if strings.Count(out, "*") != 3 {
		t.Errorf("want 3 points, plot:\n%s", out)
	}
	if !strings.Contains(out, "x: t, y: v") {
		t.Error("missing axis labels")
	}
	lines := strings.Split(out, "\n")
	// First grid row holds the max (top-right star), last holds the min.
	if !strings.Contains(lines[1], "*") {
		t.Error("max point not on top row")
	}
}

func TestPlotLogAxes(t *testing.T) {
	s := Series{
		Name: "ccdf",
		Points: []stats.Point{
			{X: 1, Y: 1}, {X: 10, Y: 0.1}, {X: 100, Y: 0.01},
			{X: 0, Y: 0.5},  // dropped on log x
			{X: 50, Y: -1},  // dropped on log y
			{X: math.NaN()}, // dropped
		},
	}
	var buf bytes.Buffer
	cfg := PlotConfig{}
	cfg.LogX, cfg.LogY = true, true
	if err := s.Plot(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "*") != 3 {
		t.Errorf("want 3 plottable points:\n%s", out)
	}
	if !strings.Contains(out, "(log x)") || !strings.Contains(out, "(log y)") {
		t.Error("log annotations missing")
	}
	// A pure power law renders as a descending diagonal: the top row's
	// star must be left of the bottom row's star.
	lines := strings.Split(out, "\n")
	top := strings.Index(lines[1], "*")
	bottom := -1
	for _, l := range lines {
		if i := strings.Index(l, "*"); i >= 0 {
			bottom = i
		}
	}
	if top < 0 || bottom < 0 || top >= bottom {
		t.Errorf("power law should descend left-to-right (top %d, bottom %d):\n%s", top, bottom, out)
	}
}

func TestPlotEmptyAndDegenerate(t *testing.T) {
	var buf bytes.Buffer
	empty := Series{Name: "empty"}
	if err := empty.Plot(&buf, PlotConfig{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no plottable points") {
		t.Error("empty series should say so")
	}

	buf.Reset()
	single := Series{Name: "single", Points: []stats.Point{{X: 3, Y: 7}}}
	if err := single.Plot(&buf, PlotConfig{}); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "*") != 1 {
		t.Error("single point should render")
	}

	buf.Reset()
	logEmpty := Series{Name: "neg", Points: []stats.Point{{X: -1, Y: -1}}}
	cfg := PlotConfig{}
	cfg.LogX = true
	if err := logEmpty.Plot(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no plottable points") {
		t.Error("all-dropped series should say so")
	}
}
