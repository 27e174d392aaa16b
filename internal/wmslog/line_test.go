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

// lineOf is e as a Line: its text columns made into Fields by the
// constructors (an error where Validate's text rules refuse one), its
// identity as bytes, every number as it is.
func lineOf(e *Entry) (Line, error) {
	l := Line{
		Timestamp:    e.Timestamp,
		ClientIP:     []byte(e.ClientIP),
		PlayerID:     []byte(e.PlayerID),
		Duration:     e.Duration,
		Bytes:        e.Bytes,
		AvgBandwidth: e.AvgBandwidth,
		PacketsLost:  e.PacketsLost,
		ServerCPU:    e.ServerCPU,
		Status:       e.Status,
		ASNumber:     e.ASNumber,
	}
	var err error
	if l.URIStem, err = MandatoryField(e.URIStem); err != nil {
		return l, err
	}
	for _, f := range []struct {
		dst *Field
		s   string
	}{{&l.ClientOS, e.ClientOS}, {&l.ClientCPU, e.ClientCPU}, {&l.Referer, e.Referer}, {&l.Country, e.Country}} {
		if *f.dst, err = OptionalField(f.s); err != nil {
			return l, err
		}
	}
	return l, nil
}

// TestValidateRejectsLineBreakInOptionalFields: a separator other than
// the space (\t, \v, \f, \r) or a newline in c-os, c-cpu, cs(Referer)
// or s-country would split the line, and a tolerant scan would then
// drop it without an error — so Validate, and both writers through it,
// refuse the entry; every other byte is accepted, a space (written as
// an underscore) included.
func TestValidateRejectsLineBreakInOptionalFields(t *testing.T) {
	fields := map[string]func(*Entry) *string{
		"ClientOS":  func(e *Entry) *string { return &e.ClientOS },
		"ClientCPU": func(e *Entry) *string { return &e.ClientCPU },
		"Referer":   func(e *Entry) *string { return &e.Referer },
		"Country":   func(e *Entry) *string { return &e.Country },
	}
	for name, field := range fields {
		for c := 0; c < 256; c++ {
			for _, v := range []string{string([]byte{byte(c)}), "ab" + string([]byte{byte(c)}) + "cd"} {
				e := sampleEntry(TraceEpoch)
				*field(e) = v
				reject := strings.ContainsAny(v, "\t\n\v\f\r")
				if err := e.Validate(); (err != nil) != reject {
					t.Errorf("%s = %q: Validate error %v, want reject=%v", name, v, err, reject)
				}
				if _, err := OptionalField(v); (err != nil) != reject {
					t.Errorf("OptionalField(%q): error %v, want reject=%v", v, err, reject)
				}
			}
		}
	}

	// The line that used to be lost: written without an error, then
	// scanned tolerantly to no entry and no error.
	e := sampleEntry(TraceEpoch.Add(time.Hour))
	e.ClientOS = "Win\n98"
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(e); !errors.Is(err, ErrFormat) {
		t.Errorf("text writer: err = %v, want ErrFormat", err)
	}
	if err := NewBinaryWriter(&buf).Write(e); !errors.Is(err, ErrFormat) {
		t.Errorf("binary writer: err = %v, want ErrFormat", err)
	}
}

// TestMandatoryFieldMatchesValidate: MandatoryField accepts exactly the
// cs-uri-stem values Validate accepts.
func TestMandatoryFieldMatchesValidate(t *testing.T) {
	for c := 0; c < 256; c++ {
		for _, v := range []string{"", string([]byte{byte(c)}), "/live" + string([]byte{byte(c)}) + "feed"} {
			e := sampleEntry(TraceEpoch)
			e.URIStem = v
			_, err := MandatoryField(v)
			if want := e.Validate(); (err != nil) != (want != nil) {
				t.Errorf("MandatoryField(%q): error %v, Validate %v", v, err, want)
			}
		}
	}
}

// TestAppendLineMatchesAppendEntry: a Line renders to AppendEntry's
// bytes for its Entry — absent, spaced, underscored and dashed optional
// fields included — and Line.Validate refuses exactly the numbers
// Entry.Validate refuses.
func TestAppendLineMatchesAppendEntry(t *testing.T) {
	ts := TraceEpoch.Add(26*time.Hour + 61*time.Second)
	texts := []func(*Entry){
		func(*Entry) {},
		func(e *Entry) { e.ClientOS, e.ClientCPU, e.Referer, e.Country = "", "", "", "" },
		func(e *Entry) { e.ClientOS, e.Country = "has two  spaces", "B R" },
		func(e *Entry) { e.ClientCPU, e.Referer = "-", "under_score" },
		func(e *Entry) { e.Timestamp = time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC) },
		func(e *Entry) { e.Timestamp = ts.In(time.FixedZone("BRT", -3*3600)) },
		func(e *Entry) { e.ServerCPU = 1e20 }, // strconv's fallback; both Validates refuse it
		func(e *Entry) { e.ServerCPU = 0.125 },
	}
	for i, mutate := range texts {
		e := sampleEntry(ts)
		mutate(e)
		l, err := lineOf(e)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got, want := AppendLine(nil, &l), AppendEntry(nil, e); !bytes.Equal(got, want) {
			t.Errorf("case %d:\nline:  %q\nentry: %q", i, got, want)
		}
		if lerr, eerr := l.Validate(), e.Validate(); (lerr != nil) != (eerr != nil) {
			t.Errorf("case %d: Line.Validate %v, Entry.Validate %v", i, lerr, eerr)
		}
	}

	values := []func(*Entry){
		func(e *Entry) { e.Timestamp = time.Time{} },
		func(e *Entry) { e.Duration = -1 },
		func(e *Entry) { e.Bytes = -1 },
		func(e *Entry) { e.AvgBandwidth = -1 },
		func(e *Entry) { e.PacketsLost = -1 },
		func(e *Entry) { e.ServerCPU = -0.1 },
		func(e *Entry) { e.ServerCPU = math.Copysign(0, -1) },
		func(e *Entry) { e.ServerCPU = 101 },
		func(e *Entry) { e.Status = -1 },
		func(e *Entry) { e.ASNumber = -1 },
		func(e *Entry) { e.ASNumber = 1 << 32 },
	}
	for i, mutate := range values {
		e := sampleEntry(ts)
		mutate(e)
		l, err := lineOf(e)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if err := l.Validate(); !errors.Is(err, ErrFormat) {
			t.Errorf("value %d: Line.Validate = %v, want ErrFormat", i, err)
		}
		if e.Validate() == nil {
			t.Errorf("value %d: Entry.Validate accepted it", i)
		}
	}
	var noURI Line
	noURI.Timestamp = ts
	if err := noURI.Validate(); !errors.Is(err, ErrFormat) {
		t.Errorf("a line with no URI: Validate = %v, want ErrFormat", err)
	}
}

// FuzzLineMatchesAppendEntry: for any numeric record and any table
// strings, the Line is valid exactly when its Entry is (the identity
// being the caller's to keep safe), renders to AppendEntry's bytes, and
// the line is ParseAppend's fixpoint — a line a field's separator
// split is a failure.
func FuzzLineMatchesAppendEntry(f *testing.F) {
	f.Add(int64(1010275384), "10.0.0.1", "player-0000001", "Windows 98", "Pentium III",
		"/live/feed1", int64(1742), int64(23953750), int64(110000), int64(3),
		int64(437), "http://show.example.br/aovivo", 200, 1916, "BR")
	f.Add(int64(0), "a", "b", "", "", "/", int64(0), int64(0), int64(0), int64(0),
		int64(0), "", 0, 0, "")
	f.Add(int64(1<<40), "x", "y", "has space", "-", "/u", int64(1<<60), int64(1<<60),
		int64(1<<60), int64(1<<60), int64(10000), "ref_x", 404, 1<<32-1, "B R")
	f.Add(int64(1010275384), "10.0.0.1", "player-1", "Win\n98", "Pentium\tIII",
		"/live/feed1", int64(1), int64(1), int64(1), int64(0), int64(math.MinInt64), "", -1, -1, "B\tR")
	f.Add(int64(1010275384), "10.0.0.1", "jogador-\u00e1", "Win\x0198", "Pentium\rIII",
		"/live/São", int64(1), int64(1), int64(1), int64(0), int64(5), "a\u0085b", 200, 1, "BR\u00a0")
	f.Fuzz(func(t *testing.T, unix int64, ip, player, osName, cpu, uri string,
		duration, bytesServed, bw, lost int64, cpuCenti int64,
		referer string, status, asn int, country string) {
		e := &Entry{
			Timestamp:    time.Unix(((unix%253402300800)+253402300800)%253402300800, 0).UTC(),
			ClientIP:     ip,
			PlayerID:     player,
			ClientOS:     osName,
			ClientCPU:    cpu,
			URIStem:      uri,
			Duration:     duration,
			Bytes:        bytesServed,
			AvgBandwidth: bw,
			PacketsLost:  lost,
			ServerCPU:    float64(((cpuCenti%10001)+10001)%10001) / 100,
			Referer:      referer,
			Status:       status,
			ASNumber:     asn,
			Country:      country,
		}
		if cpuCenti == math.MinInt64 {
			e.ServerCPU = math.Copysign(0, -1)
		}
		identityOK := ip != "" && stringSafe(ip) && player != "" && stringSafe(player)
		l, err := lineOf(e)
		if err == nil {
			err = l.Validate()
		}
		lineOK, entryOK := err == nil && identityOK, e.Validate() == nil
		if lineOK != entryOK {
			t.Fatalf("line valid %v (%v), entry valid %v: %+v", lineOK, err, entryOK, e)
		}
		if !lineOK {
			return
		}

		line := AppendLine(nil, &l)
		if want := AppendEntry(nil, e); !bytes.Equal(line, want) {
			t.Fatalf("renderers disagree\nline:  %q\nentry: %q", line, want)
		}
		if bytes.ContainsAny(line, "\t\n\v\f\r") {
			t.Fatalf("a field's separator split the line %q", line)
		}
		var back Entry
		if err := ParseAppend(&back, line); err != nil {
			t.Fatalf("ParseAppend rejected the line %q: %v", line, err)
		}
		if got := AppendEntry(nil, &back); !bytes.Equal(got, line) {
			t.Fatalf("round trip not a fixpoint\nfirst:  %q\nsecond: %q", line, got)
		}
	})
}

// TestWriterWriteLine: WriteLine of a rendered entry writes what Write
// of the entry writes — header, line, count — and refuses a line that
// is empty or holds a newline.
func TestWriterWriteLine(t *testing.T) {
	var viaEntry, viaLine bytes.Buffer
	we, wl := NewWriter(&viaEntry), NewWriter(&viaLine)
	for i := 0; i < 3; i++ {
		e := sampleEntry(TraceEpoch.Add(time.Duration(i) * time.Minute))
		if err := we.Write(e); err != nil {
			t.Fatal(err)
		}
		if err := wl.WriteLine(AppendEntry(nil, e)); err != nil {
			t.Fatal(err)
		}
	}
	for _, bad := range [][]byte{nil, []byte("a\nb"), []byte("line\n")} {
		if err := wl.WriteLine(bad); !errors.Is(err, ErrFormat) {
			t.Errorf("WriteLine(%q) = %v, want ErrFormat", bad, err)
		}
	}
	if err := errors.Join(we.Flush(), wl.Flush()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaEntry.Bytes(), viaLine.Bytes()) || we.Count() != wl.Count() {
		t.Errorf("WriteLine wrote %d lines:\n%s\nWrite wrote %d:\n%s", wl.Count(), viaLine.Bytes(), we.Count(), viaEntry.Bytes())
	}
}

// TestDailyWriterWriteLine: lines and entries share one DailyWriter's
// rotation, date order and count — the files equal an all-entry run's —
// and a binary DailyWriter refuses a text line.
func TestDailyWriterWriteLine(t *testing.T) {
	times := []time.Time{
		TraceEpoch.Add(10 * time.Second),
		TraceEpoch.Add(23 * time.Hour),
		TraceEpoch.Add(25 * time.Hour),
		TraceEpoch.Add(49 * time.Hour),
	}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for k, dir := range dirs {
		dw, err := NewDailyWriter(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, ts := range times {
			e := sampleEntry(ts)
			if k == 1 && i%2 == 0 {
				err = dw.WriteLine(ts, AppendEntry(nil, e))
			} else {
				err = dw.Write(e)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := dw.WriteLine(TraceEpoch, AppendEntry(nil, sampleEntry(TraceEpoch))); !errors.Is(err, ErrFormat) {
			t.Errorf("a line dated before the open day: err = %v, want ErrFormat", err)
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
		if dw.Entries() != int64(len(times)) || len(dw.Files()) != 3 {
			t.Errorf("%d entries in %d files, want %d in 3", dw.Entries(), len(dw.Files()), len(times))
		}
	}
	for _, name := range []string{"wms-2002-01-06.log", "wms-2002-01-07.log", "wms-2002-01-08.log"} {
		a, errA := os.ReadFile(filepath.Join(dirs[0], name))
		b, errB := os.ReadFile(filepath.Join(dirs[1], name))
		if err := errors.Join(errA, errB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: mixed writes differ from entry writes", name)
		}
	}

	dw, err := NewDailyWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dw.Binary = true
	if err := dw.WriteLine(TraceEpoch, AppendEntry(nil, sampleEntry(TraceEpoch))); !errors.Is(err, ErrFormat) {
		t.Errorf("binary DailyWriter.WriteLine = %v, want ErrFormat", err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
}
