package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
)

// TestMain runs the command itself when a test re-executes the test
// binary with LSMCAL_MAIN=1, so a test can check its exit code.
func TestMain(m *testing.M) {
	if os.Getenv("LSMCAL_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// lsmcal runs the command with args and returns its exit code and
// standard error.
func lsmcal(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LSMCAL_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestStrictWithoutTwinIsUsageError: -strict judges the twin's KS
// tests, so without -twin it is a usage error (exit 2) — it used to be
// ignored, and the run exited 0 — while with -twin it is accepted.
func TestStrictWithoutTwinIsUsageError(t *testing.T) {
	logDir := writeTestLogs(t)
	code, stderr := lsmcal(t, "-logs", logDir, "-days", "2", "-strict")
	if code != 2 || !strings.Contains(stderr, "-strict needs -twin") {
		t.Errorf("-strict without -twin: exit %d, stderr %q; want exit 2 naming the flag", code, stderr)
	}
	if code, stderr := lsmcal(t, "-logs", logDir, "-days", "2", "-seed", "5", "-twin", "-strict"); code != 0 {
		t.Errorf("-strict with -twin: exit %d, stderr %q; want 0", code, stderr)
	}
}

// writeTestLogs fabricates a small two-day log directory.
func writeTestLogs(t *testing.T) string {
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
	dir := t.TempDir()
	if _, err := res.WriteLogs(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunFitsAndValidatesTwin(t *testing.T) {
	logDir := writeTestLogs(t)
	outPath := filepath.Join(t.TempDir(), "model.json")
	code, err := run(io.Discard, logDir, 2, 1500, 5, outPath, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("strict twin validation failed with exit code %d", code)
	}

	// The written spec loads back through the strict loader.
	m, err := gismo.LoadModel(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Horizon != 2*86400 {
		t.Errorf("fitted horizon = %d", m.Horizon)
	}
	if m.Profile == nil {
		t.Error("fitted model carries no empirical profile")
	}
}

func TestRunWithoutTwinWritesSpecOnly(t *testing.T) {
	logDir := writeTestLogs(t)
	outPath := filepath.Join(t.TempDir(), "model.json")
	code, err := run(io.Discard, logDir, 2, 1500, 1, outPath, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if _, err := os.Stat(outPath); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsEmptyDir(t *testing.T) {
	if _, err := run(io.Discard, t.TempDir(), 2, 1500, 1, "", false, false); err == nil {
		t.Error("empty log dir: want error")
	}
}

// TestRunRefusesBadTimeoutUpFront: a non-positive -timeout fails before
// a log is read, so nothing reaches stdout — it used to print the
// parse and sanitize summaries of the whole directory first.
func TestRunRefusesBadTimeoutUpFront(t *testing.T) {
	var stdout bytes.Buffer
	if _, err := run(&stdout, writeTestLogs(t), 2, 0, 1, "", false, false); !errors.Is(err, sessions.ErrBadTimeout) || stdout.Len() != 0 {
		t.Errorf("-timeout 0: err %v, stdout %q; want ErrBadTimeout and nothing printed", err, stdout.String())
	}
}

// TestRunGolden pins lsmcal -twin over the two-day fixture byte for
// byte: its stdout, with the spec path written as OUT, and the spec it
// writes. Both goldens were recorded when the calibration loop still
// characterized every figure, so they hold the loop's output to what
// it was before it stopped computing what it never prints; regenerate
// with UPDATE_GOLDEN=1 go test ./cmd/lsmcal.
func TestRunGolden(t *testing.T) {
	logDir := writeTestLogs(t)
	dir := t.TempDir()
	outPath := filepath.Join(dir, "model.json")
	var stdout bytes.Buffer
	if _, err := run(&stdout, logDir, 2, 1500, 5, outPath, true, false); err != nil {
		t.Fatal(err)
	}
	spec, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{
		"run_twin.stdout.golden": []byte(strings.ReplaceAll(stdout.String(), outPath, "OUT")),
		"run_twin.spec.golden":   spec,
	}
	for name, data := range got {
		path := filepath.Join("testdata", name)
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s differs from the golden:\n%s", name, data)
		}
	}
}
