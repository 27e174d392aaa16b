package main

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesArtifacts(t *testing.T) {
	out := t.TempDir()
	if err := run(io.Discard, 600, 2, 9, out); err != nil {
		t.Fatal(err)
	}
	comp, err := os.ReadFile(filepath.Join(out, "comparisons.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(comp)
	for _, want := range []string{"Figure 19", "transfer length lognormal mu", "Figure 13"} {
		if !strings.Contains(text, want) {
			t.Errorf("comparisons.md missing %q", want)
		}
	}
	dats, err := filepath.Glob(filepath.Join(out, "figures", "*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dats) < 20 {
		t.Errorf("only %d figure series", len(dats))
	}
}

func TestRunWithoutOutdir(t *testing.T) {
	if err := run(io.Discard, 800, 2, 9, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	if err := run(io.Discard, 0.1, 2, 9, ""); err == nil {
		t.Error("scale < 1: want error")
	}
}

// TestReproGolden pins lsmrepro -scale 60 -days 28 -seed 1 byte for
// byte: its stdout, with the output directory written as OUT, the
// comparisons.md it writes and the md5 of every figure series (md5sum's
// format, in name order). The run injects 5 spanning entries, so it
// holds the sanitized trace — spanning rows dropped — to the one the
// log rebuilds. The goldens were recorded when lsmrepro still
// materialized the workload and re-read the injected entries from the
// log; regenerate with UPDATE_GOLDEN=1 go test ./cmd/lsmrepro.
func TestReproGolden(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	if err := run(&stdout, 60, 28, 1, out); err != nil {
		t.Fatal(err)
	}
	comp, err := os.ReadFile(filepath.Join(out, "comparisons.md"))
	if err != nil {
		t.Fatal(err)
	}
	dats, err := filepath.Glob(filepath.Join(out, "figures", "*.dat")) // sorted
	if err != nil {
		t.Fatal(err)
	}
	var series bytes.Buffer
	for _, path := range dats {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&series, "%x  %s\n", md5.Sum(data), filepath.Base(path))
	}
	got := map[string][]byte{
		"scale60.stdout.golden":      []byte(strings.ReplaceAll(stdout.String(), out, "OUT")),
		"scale60.comparisons.golden": comp,
		"scale60.series.golden":      series.Bytes(),
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
