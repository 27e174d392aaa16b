package main

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
	m, err := gismo.ParseModel(data)
	if err != nil {
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

// TestRunRefusesDirWithLogs: a second run into a directory that already
// holds daily logs — text, binary or gzipped — is refused before it
// writes anything, with an error naming one of them; the first run's
// files are left as they were.
func TestRunRefusesDirWithLogs(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first")
	if err := run(options{out: first, scale: 400, days: 7, seed: 1, logFormat: "text"}); err != nil {
		t.Fatal(err)
	}
	before := logBytes(t, first)
	if len(before) == 0 {
		t.Fatal("no logs written")
	}
	for _, args := range [][]string{
		{"-scale", "400", "-days", "3", "-seed", "2"},
		{"-scale", "400", "-days", "7", "-seed", "1"},
		{"-scale", "400", "-days", "3", "-seed", "2", "-log-format", "binary"},
	} {
		o, err := parseArgs(append([]string{"-out", first}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		err = run(o)
		if err == nil || !strings.Contains(err.Error(), filepath.Join(first, "wms-")) {
			t.Errorf("%v into a directory of logs: %v, want an error naming one", args, err)
		}
		after := logBytes(t, first)
		if len(after) != len(before) {
			t.Fatalf("%v: %d files before, %d after", args, len(before), len(after))
		}
		for name, data := range before {
			if !bytes.Equal(after[name], data) {
				t.Errorf("%v: %s changed", args, name)
			}
		}
	}

	gz := filepath.Join(dir, "gz")
	if err := os.MkdirAll(gz, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(gz, "wms-20020101.log.gz"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{out: gz, scale: 400, days: 3, seed: 2, logFormat: "text"}); err == nil || !strings.Contains(err.Error(), "wms-20020101.log.gz") {
		t.Errorf("into a directory of gzipped logs: %v, want an error naming it", err)
	}
	if names, _ := filepath.Glob(filepath.Join(gz, "*")); len(names) != 1 {
		t.Errorf("refused run left %v", names)
	}

	// Files the readers do not read do not make a directory a log.
	other := filepath.Join(dir, "other")
	if err := os.MkdirAll(other, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(other, "model.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{out: other, scale: 400, days: 3, seed: 2, logFormat: "text"}); err != nil {
		t.Errorf("a directory with no log in it: %v", err)
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
// for any generator shard count, with or without the ignored -stream
// flag, the command must write daily logs byte-identical to the
// library's materializing reference (GenerateSeeded → simulate.Run →
// WriteLogs) for the same seed.
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
		shards int
		stream bool
	}{{1, true}, {3, true}, {8, true}, {3, false}} {
		name := fmt.Sprintf("shards=%d stream=%v", c.shards, c.stream)
		streamDir := filepath.Join(dir, "stream", fmt.Sprintf("s%d%v", c.shards, c.stream))
		args := []string{"-out", streamDir, "-scale", "500", "-days", "2", "-seed", "11",
			"-shards", fmt.Sprint(c.shards)}
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

// binaryLogMD5 is the md5 of the daily files of `lsmgen -log-format
// binary -scale 500 -days 2 -seed 11`, concatenated in name order, as
// recorded before the text path stopped building entries: the binary
// path still takes them, and its bytes must not move.
const binaryLogMD5 = "7f02a1d2de45f7e8ac1d8dd73a020ef8"

// TestBinaryLogFormat: -log-format binary writes, at any shard count,
// the pinned bytes, which decode to exactly the entries the text run's
// files decode to.
func TestBinaryLogFormat(t *testing.T) {
	dir := t.TempDir()
	readDir := func(sub string) []*wmslog.Entry {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, sub, "wms-*.log"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no logs (%v)", sub, err)
		}
		entries, _, err := wmslog.ReadFiles(paths, false)
		if err != nil {
			t.Fatalf("%s: %v", sub, err)
		}
		return entries
	}
	gen := func(sub string, args ...string) {
		t.Helper()
		o, err := parseArgs(append([]string{"-out", filepath.Join(dir, sub), "-scale", "500", "-days", "2", "-seed", "11"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", sub, err)
		}
	}
	gen("text")
	text := readDir("text")
	for _, shards := range []string{"1", "3"} {
		sub := "binary" + shards
		gen(sub, "-log-format", "binary", "-shards", shards)
		files := logBytes(t, filepath.Join(dir, sub))
		names := make([]string, 0, len(files))
		for name, data := range files {
			if !bytes.HasPrefix(data, []byte("\xbfWMSB1")) {
				t.Errorf("shards=%s: %s is not a binary log", shards, name)
			}
			names = append(names, name)
		}
		sort.Strings(names)
		h := md5.New()
		for _, name := range names {
			h.Write(files[name])
		}
		if sum := hex.EncodeToString(h.Sum(nil)); sum != binaryLogMD5 {
			t.Errorf("shards=%s: binary logs md5 %s, want %s", shards, sum, binaryLogMD5)
		}
		got := readDir(sub)
		if len(got) != len(text) {
			t.Fatalf("shards=%s: %d binary entries, %d text", shards, len(got), len(text))
		}
		for i := range text {
			if *got[i] != *text[i] {
				t.Fatalf("shards=%s: entry %d\nbinary: %+v\ntext:   %+v", shards, i, *got[i], *text[i])
			}
		}
	}
}

// TestRemovedAliasesRejected: the deprecated -load and -lanes spellings
// and the removed -serve-lanes flag are gone, not silently accepted.
func TestRemovedAliasesRejected(t *testing.T) {
	for _, args := range [][]string{{"-load", "m.json"}, {"-lanes", "2"}, {"-serve-lanes", "2"}} {
		if _, err := parseArgs(args...); err == nil {
			t.Errorf("%v: want a flag-parsing error", args)
		}
	}
}
