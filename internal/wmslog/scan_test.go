package wmslog

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodLine = "2002-01-06 00:01:30 1.2.3.4 p1 - - /live/feed1 10 1000 800 0 1.00 - 200 1 BR"

// TestOverlongLine: a line too long to be a log entry (here 2 MiB with
// no newline inside) is one malformed line. Tolerant mode skips it and
// keeps parsing — it used to abort the whole parse with bufio.Scanner's
// "token too long" — and strict mode fails naming its line number. Both
// modes, plain text and gzip.
func TestOverlongLine(t *testing.T) {
	text := goodLine + "\n" + strings.Repeat("x", 2<<20) + "\n" + goodLine + "\n"
	dir := t.TempDir()
	plain := filepath.Join(dir, "wms-2002-01-06.log")
	if err := os.WriteFile(plain, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write([]byte(text))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	gz := filepath.Join(dir, "wms-2002-01-07.log.gz")
	if err := os.WriteFile(gz, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{plain, gz} {
		entries, st, err := ReadFiles([]string{path}, true)
		if err != nil {
			t.Fatalf("%s tolerant: %v", path, err)
		}
		want := ParseStats{Lines: 3, Entries: 2, Malformed: 1}
		if len(entries) != 2 || st != want {
			t.Errorf("%s tolerant: %d entries, stats %+v, want 2 and %+v", path, len(entries), st, want)
		}

		entries, st, err = ReadFiles([]string{path}, false)
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s strict: error %v, want ErrFormat at line 2", path, err)
		}
		if len(entries) != 1 || st.Malformed != 1 {
			t.Errorf("%s strict: %d entries before the failure, stats %+v", path, len(entries), st)
		}
	}
}

// TestLongLineWithinLimit: a line that outgrows the reader's window but
// not maxLineBytes is assembled and parsed like any other — here a
// valid entry behind 100 KiB of leading blanks.
func TestLongLineWithinLimit(t *testing.T) {
	text := strings.Repeat(" ", 100<<10) + goodLine + "\n" + goodLine
	entries, st, err := ReadAll(strings.NewReader(text), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || st.Lines != 2 || *entries[0] != *entries[1] {
		t.Errorf("%d entries, stats %+v", len(entries), st)
	}
}

// TestValidateCharsetEveryByte pins the accept/reject set of the three
// mandatory text fields byte by byte against the strings.ContainsAny
// rule the byte loop replaced.
func TestValidateCharsetEveryByte(t *testing.T) {
	fields := map[string]func(*Entry) *string{
		"ClientIP": func(e *Entry) *string { return &e.ClientIP },
		"PlayerID": func(e *Entry) *string { return &e.PlayerID },
		"URIStem":  func(e *Entry) *string { return &e.URIStem },
	}
	for name, field := range fields {
		for c := 0; c < 256; c++ {
			for _, v := range []string{string([]byte{byte(c)}), "ab" + string([]byte{byte(c)}) + "cd"} {
				e := sampleEntry(TraceEpoch)
				*field(e) = v
				reject := strings.ContainsAny(v, " \t\n")
				if err := e.Validate(); (err != nil) != reject {
					t.Errorf("%s = %q: Validate error %v, want reject=%v", name, v, err, reject)
				}
			}
		}
	}
}

// scanAll collects what a reusing, interning Scan yields: a value copy
// of every entry, the stats and the error — holding the interner to its
// ordinal contract (checkOrdinals) on every entry as it goes by.
func scanAll(data []byte, tolerant bool) ([]Entry, ParseStats, error) {
	var out []Entry
	c := newCheckOrdinals()
	st, err := Scan(bytes.NewReader(data), tolerant, c.in, func(e *Entry) error {
		out = append(out, *e)
		return c.check(e)
	})
	return out, st, err
}

// nextAll is the allocating reference: Parser.Next until the stream
// ends, every entry fresh and no interner.
func nextAll(data []byte, tolerant bool) ([]Entry, ParseStats, error) {
	p := NewParser(bytes.NewReader(data))
	p.Tolerant = tolerant
	var out []Entry
	for {
		e, err := p.Next()
		if err == io.EOF {
			return out, p.Stats(), nil
		}
		if err != nil {
			return out, p.Stats(), err
		}
		out = append(out, *e)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzScanMatchesReadAll feeds arbitrary bytes — text, binary, or
// neither — to the scan path (one reused entry, interned strings) and
// to the allocating path (a fresh entry per record, fresh strings): the
// entries, the stats and the error must be the same in both modes. A
// stale field surviving reuse, or an interned string standing in for a
// different value, shows up as a differing entry; an ordinal that does
// not name its entry's string, or two strings sharing one, as a scan
// error the allocating path does not have.
func FuzzScanMatchesReadAll(f *testing.F) {
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	e := sampleEntry(TraceEpoch)
	bw.Write(e)
	e.ClientOS, e.Referer, e.Country = "", "", ""
	bw.Write(e)
	bw.Flush()

	f.Add([]byte(goodLine + "\n" + goodLine + "\n"))
	f.Add([]byte("#Fields: " + strings.Join(Fields, " ") + "\n" + goodLine + "\ngarbage\n" +
		"2002-01-06 00:01:31 1.2.3.4 p1 Windows_98 Pentium_III /live/feed2 10 1000 800 0 1.00 http://a/b 200 1 BR\n" +
		"2002-01-06 00:01:32 1.2.3.5 p2 - - /live/feed2 10 1000 800 0 1.00 - 200 1 -"))
	f.Add([]byte(goodLine + "\n2002-01-06  00:01:33\t1.2.3.4 p1 - X_Y /live/feed1 10 1000 800 0 1.5 - 200 1 BR\r\n" + goodLine))
	f.Add([]byte("#Fields: date time c-ip\n" + goodLine + "\n#Fields: " + strings.Join(Fields, " ") + "\n" + goodLine))
	f.Add(bin.Bytes())
	f.Add(bin.Bytes()[:bin.Len()-3])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tolerant := range []bool{true, false} {
			got, gotSt, gotErr := scanAll(data, tolerant)
			want, wantSt, wantErr := nextAll(data, tolerant)
			if gotSt != wantSt || errText(gotErr) != errText(wantErr) {
				t.Fatalf("tolerant=%v: scan stats %+v err %v, allocating path stats %+v err %v",
					tolerant, gotSt, gotErr, wantSt, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("tolerant=%v: scan yields %d entries, allocating path %d", tolerant, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("tolerant=%v: entry %d differs\nscan: %+v\nnext: %+v", tolerant, i, got[i], want[i])
				}
			}
		}
	})
}
