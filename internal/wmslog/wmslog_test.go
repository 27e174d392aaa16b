package wmslog

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleEntry(ts time.Time) *Entry {
	return &Entry{
		Timestamp:    ts,
		ClientIP:     "200.17.34.5",
		PlayerID:     "player-000042",
		ClientOS:     "Windows 98",
		ClientCPU:    "Pentium III",
		URIStem:      "/live/feed1",
		Duration:     135,
		Bytes:        579840,
		AvgBandwidth: 34359,
		PacketsLost:  3,
		ServerCPU:    2.41,
		Referer:      "http://show.example.br/",
		Status:       200,
		ASNumber:     7,
		Country:      "BR",
	}
}

func TestEntryValidate(t *testing.T) {
	ts := TraceEpoch.Add(time.Hour)
	good := sampleEntry(ts)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	mutations := []func(*Entry){
		func(e *Entry) { e.Timestamp = time.Time{} },
		func(e *Entry) { e.ClientIP = "" },
		func(e *Entry) { e.ClientIP = "1.2 .3.4" },
		func(e *Entry) { e.PlayerID = "" },
		func(e *Entry) { e.URIStem = "" },
		func(e *Entry) { e.Duration = -1 },
		func(e *Entry) { e.Bytes = -1 },
		func(e *Entry) { e.AvgBandwidth = -1 },
		func(e *Entry) { e.PacketsLost = -1 },
		func(e *Entry) { e.ServerCPU = -0.1 },
		func(e *Entry) { e.ServerCPU = math.Copysign(0, -1) },
		func(e *Entry) { e.ServerCPU = 101 },
		func(e *Entry) { e.ServerCPU = math.NaN() },
	}
	for i, mutate := range mutations {
		e := sampleEntry(ts)
		mutate(e)
		if err := e.Validate(); err == nil {
			t.Errorf("mutation %d: want validation error", i)
		}
	}
}

func TestEntryStart(t *testing.T) {
	ts := TraceEpoch.Add(1000 * time.Second)
	e := sampleEntry(ts)
	want := ts.Add(-135 * time.Second)
	if !e.Start().Equal(want) {
		t.Errorf("Start = %v, want %v", e.Start(), want)
	}
}

func TestWriterParserRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := TraceEpoch.Add(90 * time.Second)
	in := []*Entry{
		sampleEntry(ts),
		sampleEntry(ts.Add(5 * time.Second)),
	}
	in[1].ClientOS = "" // exercise the dash encoding
	in[1].Referer = ""
	in[1].Country = ""
	for _, e := range in {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 2 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	text := buf.String()
	if !strings.HasPrefix(text, "#Software:") {
		t.Error("missing #Software header")
	}
	if !strings.Contains(text, "#Fields: date time c-ip") {
		t.Error("missing #Fields header")
	}

	out, st, err := ReadAll(strings.NewReader(text), false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 || st.Malformed != 0 || st.Comments != 3 {
		t.Errorf("stats = %+v", st)
	}
	if len(out) != 2 {
		t.Fatalf("parsed %d entries", len(out))
	}
	for i := range in {
		if !out[i].Timestamp.Equal(in[i].Timestamp) {
			t.Errorf("entry %d timestamp %v != %v", i, out[i].Timestamp, in[i].Timestamp)
		}
		a, b := *in[i], *out[i]
		a.Timestamp, b.Timestamp = time.Time{}, time.Time{}
		if a != b {
			t.Errorf("entry %d round trip:\n in: %+v\nout: %+v", i, a, b)
		}
	}
}

func TestSpacesInFreeTextFields(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	e := sampleEntry(TraceEpoch.Add(time.Minute))
	e.ClientOS = "Windows NT 4.0"
	if err := w.Write(e); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	out, _, err := ReadAll(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ClientOS != "Windows NT 4.0" {
		t.Errorf("ClientOS = %q", out[0].ClientOS)
	}
}

func TestParserStrictRejectsMalformed(t *testing.T) {
	text := "#Fields: " + strings.Join(Fields, " ") + "\n" +
		"2002-01-06 00:01:30 1.2.3.4 p1 - - /live/feed1 10 1000 800 0 1.00 - 200 1 BR\n" +
		"this line is garbage\n"
	_, st, err := ReadAll(strings.NewReader(text), false)
	if err == nil {
		t.Fatal("want error in strict mode")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should identify line 3: %v", err)
	}
	if st.Entries != 1 {
		t.Errorf("entries before failure = %d", st.Entries)
	}
}

func TestParserTolerantSkipsMalformed(t *testing.T) {
	good := "2002-01-06 00:01:30 1.2.3.4 p1 - - /live/feed1 10 1000 800 0 1.00 - 200 1 BR"
	lines := []string{
		good,
		"garbage",
		"2002-99-99 00:01:30 1.2.3.4 p1 - - /live/feed1 10 1000 800 0 1.00 - 200 1 BR", // bad date
		"2002-01-06 00:01:31 1.2.3.4 p1 - - /live/feed1 -5 1000 800 0 1.00 - 200 1 BR", // negative duration
		"2002-01-06 00:01:32 1.2.3.4 p1 - - /live/feed1 xx 1000 800 0 1.00 - 200 1 BR", // bad int
		"2002-01-06 00:01:33 1.2.3.4 p1 - - /live/feed1 10 1000 800 0 abc - 200 1 BR",  // bad float
		"2002-01-06 00:01:34 1.2.3.4 p1 - - /live/feed1 10 1000 800 0 1.00 - xyz 1 BR", // bad status
		"2002-01-06 00:01:35 1.2.3.4 p1 - - /live/feed1 10 1000 800 0 1.00 - 200 q BR", // bad AS
		good,
	}
	out, st, err := ReadAll(strings.NewReader(strings.Join(lines, "\n")), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("parsed %d entries, want 2", len(out))
	}
	if st.Malformed != 7 {
		t.Errorf("malformed = %d, want 7", st.Malformed)
	}
}

func TestParserRejectsForeignFieldSet(t *testing.T) {
	text := "#Fields: date time something-else\n" +
		"2002-01-06 00:01:30 1.2.3.4\n"
	_, _, err := ReadAll(strings.NewReader(text), false)
	if err == nil {
		t.Fatal("foreign field set should be rejected")
	}
}

func TestParserEmptyInput(t *testing.T) {
	out, st, err := ReadAll(strings.NewReader(""), false)
	if err != nil || len(out) != 0 || st.Entries != 0 {
		t.Errorf("empty input: out=%v st=%+v err=%v", out, st, err)
	}
}

func TestWriterRejectsInvalidEntry(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	e := sampleEntry(TraceEpoch)
	e.Duration = -1
	if err := w.Write(e); err == nil {
		t.Fatal("invalid entry accepted")
	}
}

// textFields are the seven text fields of an entry, by column name.
var textFields = map[string]func(*Entry) *string{
	"c-ip":        func(e *Entry) *string { return &e.ClientIP },
	"c-playerid":  func(e *Entry) *string { return &e.PlayerID },
	"c-os":        func(e *Entry) *string { return &e.ClientOS },
	"c-cpu":       func(e *Entry) *string { return &e.ClientCPU },
	"cs-uri-stem": func(e *Entry) *string { return &e.URIStem },
	"cs(Referer)": func(e *Entry) *string { return &e.Referer },
	"s-country":   func(e *Entry) *string { return &e.Country },
}

// TestWriterReaderAgree: what a writer accepts in a text field reads
// back. Non-ASCII content — a trailing U+00A0 in the last column
// included, which bytes.TrimSpace would strip — and control bytes are
// written, read by a strict ReadAll to the same entry, and re-encoded
// to the same bytes; \r, \v and \f, which the decoder splits columns
// at, are ErrFormat from both writers and from the Field constructors.
func TestWriterReaderAgree(t *testing.T) {
	for name, field := range textFields {
		for _, v := range []string{"Brasília", "São\u00a0Paulo", "BR\u00a0", "\u0085x", "x\x01y", "\x01", "\x7f\xff"} {
			e := sampleEntry(TraceEpoch.Add(time.Hour))
			*field(e) = v
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.Write(e); err != nil {
				t.Errorf("%s = %q: Write: %v", name, v, err)
				continue
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			got, _, err := ReadAll(bytes.NewReader(buf.Bytes()), false)
			if err != nil || len(got) != 1 || *got[0] != *e {
				t.Errorf("%s = %q: reads back as %v, err %v", name, v, got, err)
				continue
			}
			if line := AppendEntry(nil, got[0]); !bytes.Contains(buf.Bytes(), append(line, '\n')) {
				t.Errorf("%s = %q: re-encodes to %q, not in %q", name, v, line, buf.Bytes())
			}
		}
		for _, v := range []string{"a\rb", "a\vb", "a\fb", "\r", "\v", "\f"} {
			e := sampleEntry(TraceEpoch.Add(time.Hour))
			*field(e) = v
			for wname, w := range map[string]EntryWriter{"text": NewWriter(&bytes.Buffer{}), "binary": NewBinaryWriter(&bytes.Buffer{})} {
				if err := w.Write(e); !errors.Is(err, ErrFormat) {
					t.Errorf("%s = %q: %s writer err = %v, want ErrFormat", name, v, wname, err)
				}
			}
		}
	}
	for _, v := range []string{"a\rb", "a\vb", "a\fb"} {
		if _, err := MandatoryField(v); !errors.Is(err, ErrFormat) {
			t.Errorf("MandatoryField(%q): err = %v, want ErrFormat", v, err)
		}
		if _, err := OptionalField(v); !errors.Is(err, ErrFormat) {
			t.Errorf("OptionalField(%q): err = %v, want ErrFormat", v, err)
		}
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	k := f.n
	f.n = 0
	return k, errDiskFull
}

// TestWriterReportsFailedWrite: a Writer over an io.Writer that fails —
// at once, within the first buffer, or after several — returns the
// failure from Write, WriteLine or Flush; it never ends in a short log
// that looks written.
func TestWriterReportsFailedWrite(t *testing.T) {
	e := sampleEntry(TraceEpoch.Add(time.Hour))
	line := AppendEntry(nil, e)
	for _, n := range []int{0, 100, 3 << 16} {
		for _, viaLine := range []bool{false, true} {
			w := NewWriter(&failingWriter{n: n})
			var err error
			for i := 0; i < 5000 && err == nil; i++ {
				if viaLine {
					err = w.WriteLine(line)
				} else {
					err = w.Write(e)
				}
			}
			if err == nil {
				err = w.Flush()
			}
			if !errors.Is(err, errDiskFull) {
				t.Errorf("failing after %d bytes, WriteLine=%v: err = %v, want the write's failure", n, viaLine, err)
			}
			if ferr := w.Flush(); !errors.Is(ferr, errDiskFull) {
				t.Errorf("failing after %d bytes, WriteLine=%v: a later Flush says %v", n, viaLine, ferr)
			}
		}
	}
}

// TestNegativeZeroServerCPU: −0 is not its own round trip ("-0.00"
// reads back as 0, which prints "0.00"; the binary framing writes centi
// 0), so both writers refuse it — while a foreign "-0.00" still reads,
// as 0, in fixed-2 form on a canonical line and in exponent form on a
// re-spaced one.
func TestNegativeZeroServerCPU(t *testing.T) {
	e := sampleEntry(TraceEpoch.Add(time.Hour))
	e.ServerCPU = math.Copysign(0, -1)
	if err := NewWriter(&bytes.Buffer{}).Write(e); !errors.Is(err, ErrFormat) {
		t.Errorf("text writer: err = %v, want ErrFormat", err)
	}
	if err := NewBinaryWriter(&bytes.Buffer{}).Write(e); !errors.Is(err, ErrFormat) {
		t.Errorf("binary writer: err = %v, want ErrFormat", err)
	}

	e.ServerCPU = 0
	canonical := string(AppendEntry(nil, e))
	foreign := strings.Replace(canonical, " 0.00 ", " -0.00 ", 1)
	if foreign == canonical {
		t.Fatalf("no s-cpu-util column to rewrite in %q", canonical)
	}
	var fast Entry
	if err := ParseAppend(&fast, []byte(foreign)); err != nil {
		t.Fatalf("ParseAppend(%q): %v", foreign, err)
	}
	// Not fixed-2, so through strconv.ParseFloat.
	respaced := strings.Replace(foreign, " -0.00 ", "\t -0e0\v", 1)
	entries, _, err := ReadAll(strings.NewReader(respaced), false)
	if err != nil || len(entries) != 1 {
		t.Fatalf("parse of %q: %d entries, err %v", respaced, len(entries), err)
	}
	for name, got := range map[string]*Entry{"fixed-2": &fast, "re-spaced exponent": entries[0]} {
		if got.ServerCPU != 0 || math.Signbit(got.ServerCPU) {
			t.Errorf("%s path: ServerCPU = %v, want +0", name, got.ServerCPU)
		}
		if back := string(AppendEntry(nil, got)); back != canonical {
			t.Errorf("%s path re-encodes to %q, want %q", name, back, canonical)
		}
	}
}

func TestDailyWriterRotation(t *testing.T) {
	dir := t.TempDir()
	dw, err := NewDailyWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Entries across three calendar days.
	times := []time.Time{
		TraceEpoch.Add(10 * time.Second),
		TraceEpoch.Add(23 * time.Hour),
		TraceEpoch.Add(25 * time.Hour),
		TraceEpoch.Add(49 * time.Hour),
	}
	for _, ts := range times {
		if err := dw.Write(sampleEntry(ts)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	files := dw.Files()
	if len(files) != 3 {
		t.Fatalf("files = %v, want 3", files)
	}
	wantNames := []string{"wms-2002-01-06.log", "wms-2002-01-07.log", "wms-2002-01-08.log"}
	for i, f := range files {
		if filepath.Base(f) != wantNames[i] {
			t.Errorf("file %d = %s, want %s", i, filepath.Base(f), wantNames[i])
		}
	}
	if dw.Entries() != 4 {
		t.Errorf("Entries = %d", dw.Entries())
	}

	// Re-read everything through ReadFiles.
	all, st, err := ReadFiles(files, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 || st.Entries != 4 {
		t.Errorf("read back %d entries (stats %+v)", len(all), st)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Timestamp.Before(all[i-1].Timestamp) {
			t.Error("entries out of order after ReadFiles")
		}
	}
}

func TestReadFilesMissingFile(t *testing.T) {
	if _, _, err := ReadFiles([]string{"/nonexistent/zzz.log"}, false); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestDailyWriterCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "logs")
	dw, err := NewDailyWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Write(sampleEntry(TraceEpoch.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dw.Files()[0]); err != nil {
		t.Fatal(err)
	}
}

func TestTraceEpochIsSunday(t *testing.T) {
	if TraceEpoch.Weekday() != time.Sunday {
		t.Errorf("TraceEpoch is %v, want Sunday (Figure 4 starts on Sun)", TraceEpoch.Weekday())
	}
}
