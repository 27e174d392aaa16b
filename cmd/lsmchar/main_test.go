package main

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/wmslog"
)

// writeTestLogs fabricates a small log directory.
func writeTestLogs(t *testing.T) (dir string, days int) {
	t.Helper()
	return writeLogs(t, 500, 2, 5), 2
}

// writeLogs generates a scale-scaled, days-long workload from seed,
// serves it and writes its daily logs into a fresh directory.
func writeLogs(t *testing.T, scale float64, days int, seed int64) string {
	t.Helper()
	m, err := gismo.Scaled(scale, days)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(w, simulate.DefaultConfig(), uint64(seed))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := res.WriteLogs(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunCharacterizesLogs(t *testing.T) {
	dir, days := writeTestLogs(t)
	figDir := filepath.Join(t.TempDir(), "figs")
	if err := run(io.Discard, dir, days, 1500, figDir, 1, ""); err != nil {
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
	if err := run(io.Discard, dir, days, 1500, "", 1, "list"); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, dir, days, 1500, "", 1, "fig19"); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, dir, days, 1500, "", 1, "fig99"); err == nil {
		t.Error("unknown figure: want error")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, t.TempDir(), 2, 1500, "", 1, ""); err == nil {
		t.Error("empty log dir: want error")
	}
	// A non-positive timeout fails before a log is read: nothing is
	// printed, not even the ingest's summaries or the audit.
	dir, days := writeTestLogs(t)
	var stdout bytes.Buffer
	if err := run(&stdout, dir, days, 0, "", 1, ""); !errors.Is(err, sessions.ErrBadTimeout) || stdout.Len() != 0 {
		t.Errorf("-timeout 0: err %v, stdout %q; want ErrBadTimeout and nothing printed", err, stdout.String())
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
	if err := run(io.Discard, dir, days, 1500, "", 1, ""); err != nil {
		t.Fatal(err)
	}
}
