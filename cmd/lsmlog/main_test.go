package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wmslog"
)

func writeTextLog(t *testing.T, path string, n int) []byte {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := wmslog.NewWriter(f)
	epoch := time.Date(2002, 1, 7, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		e := &wmslog.Entry{
			Timestamp:    epoch.Add(time.Duration(i) * time.Second),
			ClientIP:     "10.0.0.1",
			PlayerID:     "player-" + string(rune('a'+i%3)),
			ClientOS:     "Windows 98",
			URIStem:      "/live/feed1",
			Duration:     int64(i),
			Bytes:        int64(1000 + i),
			AvgBandwidth: 110000,
			ServerCPU:    float64(i%10000) / 100,
			Referer:      wmslog.SessionRef(int64(i), 0),
			Status:       200,
			ASNumber:     1916,
			Country:      "BR",
		}
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestConvertRoundTrip: text → binary → text is byte-identical, and the
// binary intermediate is detected and reported.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.log")
	bin := filepath.Join(dir, "src.bin")
	back := filepath.Join(dir, "back.log")
	orig := writeTextLog(t, src, 200)

	var out bytes.Buffer
	if err := runConvert([]string{"-to", "binary", src, bin}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "converted 200 entries (0 binary in)") {
		t.Fatalf("to-binary output: %q", out.String())
	}
	binData, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(binData) >= len(orig) {
		t.Errorf("binary (%d bytes) not smaller than text (%d bytes)", len(binData), len(orig))
	}

	out.Reset()
	if err := runConvert([]string{"-to", "text", bin, back}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "converted 200 entries (200 binary in)") {
		t.Fatalf("to-text output: %q", out.String())
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("text -> binary -> text round trip is not byte-identical")
	}
}

// TestConvertGzip: gz input decodes transparently and a .gz output is
// compressed.
func TestConvertGzip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.log")
	orig := writeTextLog(t, src, 50)
	gzPath, err := wmslog.CompressFile(src)
	if err != nil {
		t.Fatal(err)
	}

	binGz := filepath.Join(dir, "out.bin.gz")
	var out bytes.Buffer
	if err := runConvert([]string{"-to", "binary", gzPath, binGz}, &out); err != nil {
		t.Fatal(err)
	}
	backEntries, st, err := wmslog.ReadFiles([]string{binGz}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(backEntries) != 50 || st.Binary != 50 {
		t.Fatalf("gz binary output reread: %d entries, stats %+v", len(backEntries), st)
	}

	back := filepath.Join(dir, "back.log")
	if err := runConvert([]string{"-to", "text", binGz, back}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("gz round trip is not byte-identical")
	}
}

// TestConvertErrors: bad -to, wrong arity, and corrupt input all fail,
// and a failed conversion leaves no partial output file behind.
func TestConvertErrors(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := runConvert([]string{"-to", "xml", "a", "b"}, &out); err == nil {
		t.Fatal("bad -to accepted")
	}
	if err := runConvert([]string{"-to", "text", "only-in"}, &out); err == nil {
		t.Fatal("missing output arg accepted")
	}

	src := filepath.Join(dir, "src.log")
	bin := filepath.Join(dir, "src.bin")
	writeTextLog(t, src, 20)
	if err := runConvert([]string{"-to", "binary", src, bin}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.bin")
	if err := os.WriteFile(trunc, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "dst.log")
	if err := runConvert([]string{"-to", "text", trunc, dst}, &out); err == nil {
		t.Fatal("truncated binary converted without error")
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("partial output left behind: %v", err)
	}
}

// TestConvertRefusesSameFile: an output that names the input — by the
// same path, or by another name for the same file — is refused before
// anything is written, and the input keeps every byte: creating the
// output first would truncate the input, and the conversion would
// report 0 entries and succeed.
func TestConvertRefusesSameFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.log")
	orig := writeTextLog(t, src, 20)
	symlink, hardlink := filepath.Join(dir, "symlink.log"), filepath.Join(dir, "hardlink.log")
	if err := os.Symlink(src, symlink); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(src, hardlink); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{src, symlink, hardlink} {
		for _, to := range []string{"text", "binary"} {
			var buf bytes.Buffer
			if err := runConvert([]string{"-to", to, src, out}, &buf); err == nil {
				t.Errorf("-to %s %s %s accepted: %q", to, src, out, buf.String())
			}
			if got, err := os.ReadFile(src); err != nil || !bytes.Equal(got, orig) {
				t.Fatalf("-to %s into %s: input now %d bytes (err %v), want %d", to, out, len(got), err, len(orig))
			}
		}
	}
}
