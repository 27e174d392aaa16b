package report

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestSeriesWriteDat(t *testing.T) {
	s := Series{
		Name: "fig3-ccdf", XLabel: "clients", YLabel: "P[X>=x]",
		Points: []stats.Point{{X: 1, Y: 0.9}, {X: 10, Y: 0.1}},
	}
	var buf bytes.Buffer
	if err := s.WriteDat(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# fig3-ccdf\n") {
		t.Errorf("header missing: %q", out)
	}
	if !strings.Contains(out, "1\t0.9\n") || !strings.Contains(out, "10\t0.1\n") {
		t.Errorf("points missing: %q", out)
	}
}

func TestSeriesSaveDat(t *testing.T) {
	dir := t.TempDir()
	s := Series{Name: "weird name/with:chars", Points: []stats.Point{{X: 1, Y: 2}}}
	path, err := s.SaveDat(filepath.Join(dir, "figs"))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "weird_name_with_chars.dat" {
		t.Errorf("path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "1\t2") {
		t.Error("data not written")
	}
}

// TestSeriesSaveDatReportsWriteError: a write that fails — here the
// file is /dev/full, a disk with no room — is SaveDat's error, not a
// short file reported as written.
func TestSeriesSaveDatReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "full.dat")); err != nil {
		t.Fatal(err)
	}
	s := Series{Name: "full", Points: []stats.Point{{X: 1, Y: 2}}}
	if path, err := s.SaveDat(dir); err == nil {
		t.Fatalf("SaveDat into a full file returned %s, want an error", path)
	}
}

func TestFromHelpers(t *testing.T) {
	e := stats.NewECDF([]float64{1, 2, 3})
	if s := FromECDFCDF("c", e); len(s.Points) != 3 || s.YLabel != "P[X <= x]" {
		t.Errorf("FromECDFCDF = %+v", s)
	}
	if s := FromECDFCCDF("cc", e); len(s.Points) != 3 || s.Points[0].Y != 1 {
		t.Errorf("FromECDFCCDF = %+v", s)
	}
	b := stats.BinnedSeries{Width: 900, Values: []float64{5, 7}}
	if s := FromBinned("b", b, "t", "c"); len(s.Points) != 2 || s.Points[1].X != 900 {
		t.Errorf("FromBinned = %+v", s)
	}
	if s := FromRankShare("r", []float64{0.6, 0.4}); s.Points[0] != (stats.Point{X: 1, Y: 0.6}) {
		t.Errorf("FromRankShare = %+v", s)
	}
	if s := FromACF("a", []float64{1, 0.5}); s.Points[1] != (stats.Point{X: 1, Y: 0.5}) {
		t.Errorf("FromACF = %+v", s)
	}
	h, err := stats.NewLinearHistogram(0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1)
	h.Add(6)
	if s := FromHistogram("h", h); len(s.Points) != 2 || s.Points[0].Y != 0.5 {
		t.Errorf("FromHistogram = %+v", s)
	}
	empty, err := stats.NewLinearHistogram(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s := FromHistogram("e", empty); len(s.Points) != 0 {
		t.Errorf("empty histogram should give no points: %+v", s)
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "Table 1", Headers: []string{"Metric", "Value"}}
	tbl.AddRow("Total # of users", "691889")
	tbl.AddRow("Total # of sessions", "1500000")
	tbl.AddRow("short") // missing cell padded
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Metric", "691889", "short"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestComparisonRelErr(t *testing.T) {
	c := Comparison{Paper: 2, Measured: 2.2}
	if math.Abs(c.RelErr()-0.1) > 1e-12 {
		t.Errorf("RelErr = %v", c.RelErr())
	}
	z := Comparison{Paper: 0, Measured: 0}
	if z.RelErr() != 0 {
		t.Error("0/0 should be 0")
	}
	inf := Comparison{Paper: 0, Measured: 1}
	if !math.IsInf(inf.RelErr(), 1) {
		t.Error("x/0 should be +Inf")
	}
}

func TestMarkdownTable(t *testing.T) {
	var buf bytes.Buffer
	err := MarkdownTable(&buf, []Comparison{
		{Experiment: "Figure 11", Quantity: "mu", Paper: 5.23553, Measured: 5.1, Note: "lognormal"},
		{Experiment: "Table 1", Quantity: "bytes", Paper: 0, Measured: 5, Note: "n/a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "| Figure 11 | mu | 5.23553 | 5.1 |") {
		t.Errorf("row missing:\n%s", out)
	}
	if !strings.Contains(out, "| - |") {
		t.Errorf("infinite rel err should render as '-':\n%s", out)
	}
}
