package main

import (
	"path/filepath"
	"testing"

	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/wmslog"
)

// writeTestLogs fabricates a small log directory.
func writeTestLogs(t *testing.T) (dir string, days int) {
	t.Helper()
	m, err := gismo.Scaled(500, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(w, simulate.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if _, err := res.WriteLogs(dir); err != nil {
		t.Fatal(err)
	}
	return dir, 2
}

func TestRunCharacterizesLogs(t *testing.T) {
	dir, days := writeTestLogs(t)
	figDir := filepath.Join(t.TempDir(), "figs")
	if err := run(dir, days, 1500, figDir, 1, ""); err != nil {
		t.Fatal(err)
	}
	dats, err := filepath.Glob(filepath.Join(figDir, "*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dats) < 20 {
		t.Errorf("only %d figure files written", len(dats))
	}
}

func TestRunPlotModes(t *testing.T) {
	dir, days := writeTestLogs(t)
	if err := run(dir, days, 1500, "", 1, "list"); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, days, 1500, "", 1, "fig19"); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, days, 1500, "", 1, "fig99"); err == nil {
		t.Error("unknown figure: want error")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(t.TempDir(), 2, 1500, "", 1, ""); err == nil {
		t.Error("empty log dir: want error")
	}
}

func TestRunAcceptsCompressedLogs(t *testing.T) {
	dir, days := writeTestLogs(t)
	paths, err := filepath.Glob(filepath.Join(dir, "wms-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no logs: %v", err)
	}
	// Compress every daily file; the characterizer must not notice.
	for _, p := range paths {
		if _, err := wmslog.CompressFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := run(dir, days, 1500, "", 1, ""); err != nil {
		t.Fatal(err)
	}
}
