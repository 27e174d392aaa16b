package wmslog

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// mandatory text fields byte by byte against a strings.ContainsAny rule:
// no ASCII whitespace, the bytes the decoder splits columns at.
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
				reject := strings.ContainsAny(v, " \t\n\v\f\r")
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
	c := newCheckOrdinals(NewInterner())
	st, err := Scan(bytes.NewReader(data), tolerant, c.in, func(e *Entry) error {
		out = append(out, *e)
		return c.check(e)
	})
	return out, st, err
}

// scanDeferred collects what a scan through a deferred interner
// yields, each entry's c-ip and c-playerid filled in from Identity — and
// checks, as it goes, that Identity agrees with any strings the entry
// carries itself.
func scanDeferred(data []byte, tolerant bool) ([]Entry, ParseStats, error) {
	var out []Entry
	in := NewDeferredInterner()
	st, err := Scan(bytes.NewReader(data), tolerant, in, func(e *Entry) error {
		cp := *e
		ip, pid := in.Identity(e)
		if cp.PlayerID != "" && (cp.ClientIP != string(ip) || cp.PlayerID != string(pid)) {
			return fmt.Errorf("entry carries %q %q, Identity hands out %q %q", cp.ClientIP, cp.PlayerID, ip, pid)
		}
		cp.ClientIP, cp.PlayerID = string(ip), string(pid)
		out = append(out, cp)
		return nil
	})
	return out, st, err
}

// nextAll is the allocating reference: a scan with no interner, every
// string fresh, each entry kept as a value copy. Zeroing the entry
// after the copy makes every record decode into a blank one, so no
// field can carry over from the record before.
func nextAll(data []byte, tolerant bool) ([]Entry, ParseStats, error) {
	var out []Entry
	st, err := Scan(bytes.NewReader(data), tolerant, nil, func(e *Entry) error {
		out = append(out, *e)
		*e = Entry{}
		return nil
	})
	return out, st, err
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzScanMatchesReadAll feeds arbitrary bytes — text, binary, or
// neither — to the scan path (one reused entry, interned strings), to
// the deferred scan (c-ip and c-playerid as bytes, through Identity) and
// to the allocating path (a fresh entry per record, fresh strings): the
// entries, the stats and the error must be the same in all three, in
// both modes. A stale field surviving reuse, or an interned string
// standing in for a different value, shows up as a differing entry; an
// ordinal that does not name its entry's string, or two strings sharing
// one, as a scan error the allocating path does not have; identity
// bytes that are not the interning scan's strings, or a deferred scan
// that accepts a different set of lines, as a differing deferred entry
// or count. A deferred entry is compared with its c-os, c-cpu and
// cs(Referer) cleared: the deferred scan checks those columns but keeps
// none of the three. And a text input re-spaced — every space a run of
// separators — scans to the same entries, stats and error.
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
	tagged := func(seq int) string { // a tagged serve log's line: its referer unique to it
		return strings.Replace(goodLine, " - 200 ", " "+SessionRef(41, seq)+" 200 ", 1)
	}
	f.Add([]byte(goodLine + "\n" + tagged(2) + "\n" + tagged(3) + "\n"))
	f.Add([]byte("\t2002-01-06\v00:01:30  1.2.3.4\f\fp1\r-\t-  /live/feed1 10\t1000 800 0 1e0 - 200 1 BR\u00a0\r\n" +
		"2002-01-06 00:01:31 10.0\x010.1 jogador-\u00e1 - - /live/São 10 1000 800 0 1.00 a\u0085b 200 1 Brasília\n"))

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
			if len(data) <= maxLineBytes/4 && !bytes.HasPrefix(data, binaryMagic) {
				spaced, spacedSt, spacedErr := nextAll(respaceAll(data), tolerant)
				if spacedSt != wantSt || errText(spacedErr) != errText(wantErr) || !slices.Equal(spaced, want) {
					t.Fatalf("tolerant=%v: re-spaced scan %d entries, stats %+v, err %v; want %d, %+v, %v",
						tolerant, len(spaced), spacedSt, spacedErr, len(want), wantSt, wantErr)
				}
			}
			for i := range want {
				want[i].ClientOS, want[i].ClientCPU, want[i].Referer = "", "", ""
			}
			deferred, defSt, defErr := scanDeferred(data, tolerant)
			if defSt != wantSt || errText(defErr) != errText(wantErr) || !slices.Equal(deferred, want) {
				t.Fatalf("tolerant=%v: deferred scan %d entries, stats %+v, err %v; want %d, %+v, %v",
					tolerant, len(deferred), defSt, defErr, len(want), wantSt, wantErr)
			}
		}
	})
}

// respaceAll returns data with its k-th space replaced by the k-th of
// a cycle of separator runs, none longer than three bytes.
func respaceAll(data []byte) []byte {
	runs := []string{"\t", "  ", " \v", "\f\r", "\r\t ", "\v"}
	var out []byte
	k := 0
	for _, c := range data {
		if c != ' ' {
			out = append(out, c)
			continue
		}
		out = append(out, runs[k%len(runs)]...)
		k++
	}
	return out
}
