package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gismo"
	"repro/internal/simulate"
	"repro/internal/wmslog"
)

func TestRunGeneratesLogsAndModel(t *testing.T) {
	dir := t.TempDir()
	logDir := filepath.Join(dir, "logs")
	modelPath := filepath.Join(dir, "model.json")

	o := options{out: logDir, scale: 500, days: 2, seed: 7, savePath: modelPath}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(logDir, "wms-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no logs written: %v", err)
	}
	entries, st, err := wmslog.ReadFiles(paths, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 || len(entries) == 0 {
		t.Fatal("empty logs")
	}

	data, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	var m gismo.Model
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("written model invalid: %v", err)
	}
	if m.Horizon != 2*86400 {
		t.Errorf("horizon = %d", m.Horizon)
	}

	// The saved spec loads back through the strict path and re-saves
	// byte-identically: the round trip the e2e twin loop depends on.
	loaded, err := gismo.LoadModel(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	resaved := filepath.Join(dir, "model2.json")
	if err := loaded.Save(resaved); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("load -> save is not byte-identical to the original spec")
	}
}

func TestLoadModelRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	m, err := gismo.Scaled(800, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.json")
	if err := m.Save(good); err != nil {
		t.Fatal(err)
	}
	if _, err := gismo.LoadModel(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`"num_clients"`), []byte(`"num_cleints"`), 1)
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gismo.LoadModel(badPath); err == nil {
		t.Error("typoed field name: want error")
	}

	nested := bytes.Replace(data, []byte(`"alpha"`), []byte(`"alhpa"`), 1)
	nestedPath := filepath.Join(dir, "nested.json")
	if err := os.WriteFile(nestedPath, nested, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gismo.LoadModel(nestedPath); err == nil {
		t.Error("typoed nested field name: want error")
	}
}

func TestRunLoadsModelJSON(t *testing.T) {
	dir := t.TempDir()
	m, err := gismo.Scaled(800, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "in.json")
	if err := os.WriteFile(modelPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{out: filepath.Join(dir, "logs"), seed: 1, loadPath: modelPath}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	if err := run(options{out: dir, scale: 0.5, days: 2, seed: 1}); err == nil {
		t.Error("scale < 1: want error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{out: dir, scale: 100, days: 2, seed: 1, loadPath: bad}); err == nil {
		t.Error("bad model JSON: want error")
	}
	if err := run(options{out: dir, scale: 100, days: 2, seed: 1, loadPath: filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing model file: want error")
	}
	if err := run(options{out: dir, scale: 100, days: 2, seed: 1, shards: -1}); err == nil {
		t.Error("negative shard count: want error")
	}
}

// logBytes reads every daily file under dir, keyed by base name.
func logBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wms-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// parseArgs runs args through the command's own flag definitions.
func parseArgs(args ...string) (options, error) {
	var o options
	fs := flag.NewFlagSet("lsmgen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	registerFlags(fs, &o)
	return o, fs.Parse(args)
}

// TestStreamingLogsByteIdentical is the CLI-level acceptance check:
// for any generator shard count and any serve lane count, with or
// without the ignored -stream flag, the command must write daily logs
// byte-identical to the library's materializing reference
// (GenerateSeeded → simulate.Run → WriteLogs) for the same seed.
func TestStreamingLogsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	m, err := gismo.Scaled(500, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(w, simulate.DefaultConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(dir, "reference")
	if _, err := res.WriteLogs(refDir); err != nil {
		t.Fatal(err)
	}
	ref := logBytes(t, refDir)
	if len(ref) == 0 {
		t.Fatal("no reference logs")
	}

	for _, c := range []struct {
		shards, lanes int
		stream        bool
	}{{1, 1, true}, {3, 1, true}, {1, 4, true}, {3, 8, true}, {3, 8, false}} {
		name := fmt.Sprintf("shards=%d lanes=%d stream=%v", c.shards, c.lanes, c.stream)
		streamDir := filepath.Join(dir, "stream", fmt.Sprintf("s%dl%d%v", c.shards, c.lanes, c.stream))
		args := []string{"-out", streamDir, "-scale", "500", "-days", "2", "-seed", "11",
			"-shards", fmt.Sprint(c.shards), "-serve-lanes", fmt.Sprint(c.lanes)}
		if c.stream {
			args = append(args, "-stream")
		}
		o, err := parseArgs(args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		streamed := logBytes(t, streamDir)
		if len(streamed) != len(ref) {
			t.Fatalf("%s: %d files vs %d", name, len(streamed), len(ref))
		}
		for file, want := range ref {
			got, ok := streamed[file]
			if !ok {
				t.Fatalf("%s: missing file %s", name, file)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %s differs from the materializing reference", name, file)
			}
		}
	}
}

// TestRemovedAliasesRejected: the deprecated -load and -lanes spellings
// are gone, not silently accepted.
func TestRemovedAliasesRejected(t *testing.T) {
	for _, args := range [][]string{{"-load", "m.json"}, {"-lanes", "2"}} {
		if _, err := parseArgs(args...); err == nil {
			t.Errorf("%v: want a flag-parsing error", args)
		}
	}
}
