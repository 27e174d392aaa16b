package wmslog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestASNumberAndStatusRange: an s-as outside [0, 2³²) or a negative
// sc-status is a malformed line — skipped and counted in tolerant mode,
// an error naming its line in strict mode — in a canonical line, in a
// re-spaced one and in a binary record alike; the boundary values read;
// and neither writer emits such an entry.
func TestASNumberAndStatusRange(t *testing.T) {
	line := func(status, as string) string {
		return "2002-01-06 00:01:30 1.2.3.4 p1 - - /live/feed1 10 1000 800 0 1.00 - " + status + " " + as + " BR"
	}
	bad := [][2]string{{"200", "99999999999"}, {"200", "4294967296"}, {"200", "-5"}, {"-1", "7"}}
	good := [][2]string{{"200", "4294967295"}, {"0", "0"}}
	for _, respaced := range []bool{false, true} {
		shape := func(l string) string {
			if respaced {
				return strings.Replace(l, " p1 ", "  p1\t", 1)
			}
			return l
		}
		for _, c := range bad {
			text := goodLine + "\n" + shape(line(c[0], c[1])) + "\n" + goodLine + "\n"
			entries, st, err := ReadAll(strings.NewReader(text), true)
			if err != nil || len(entries) != 2 || st.Malformed != 1 {
				t.Errorf("respaced=%v status %s s-as %s tolerant: %d entries, stats %+v, err %v", respaced, c[0], c[1], len(entries), st, err)
			}
			_, _, err = ReadAll(strings.NewReader(text), false)
			if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "line 2") {
				t.Errorf("respaced=%v status %s s-as %s strict: err = %v, want ErrFormat at line 2", respaced, c[0], c[1], err)
			}
		}
		for _, c := range good {
			entries, _, err := ReadAll(strings.NewReader(shape(line(c[0], c[1]))), false)
			if err != nil || len(entries) != 1 || fmt.Sprint(entries[0].Status, entries[0].ASNumber) != c[0]+" "+c[1] {
				t.Errorf("respaced=%v status %s s-as %s: entries %v, err %v", respaced, c[0], c[1], entries, err)
			}
		}
	}

	for _, c := range []struct {
		status, as int
		ok         bool
	}{{200, 1<<32 - 1, true}, {0, 0, true}, {200, 1 << 32, false}, {200, -5, false}, {-1, 7, false}} {
		e := sampleEntry(TraceEpoch)
		e.Status, e.ASNumber = c.status, c.as
		for name, w := range map[string]EntryWriter{"text": NewWriter(&bytes.Buffer{}), "binary": NewBinaryWriter(&bytes.Buffer{})} {
			if err := w.Write(e); (err == nil) != c.ok || (err != nil && !errors.Is(err, ErrFormat)) {
				t.Errorf("%s writer, status %d s-as %d: err = %v, want ok=%v", name, c.status, c.as, err, c.ok)
			}
		}
		// The encoder itself does not validate: the reader must.
		rec := AppendEntryBinary(nil, e, NewBinaryDict())
		_, n := binary.Uvarint(rec)
		var got Entry
		err := ParseBinary(&got, rec[n:], NewBinaryDict())
		if (err == nil) != c.ok || (err != nil && !errors.Is(err, ErrFormat)) {
			t.Errorf("binary reader, status %d s-as %d: err = %v, want ok=%v", c.status, c.as, err, c.ok)
		}
		if err == nil && (got.Status != c.status || got.ASNumber != c.as) {
			t.Errorf("binary reader: status %d s-as %d, want %d %d", got.Status, got.ASNumber, c.status, c.as)
		}
	}
}

// checkOrdinals holds an interner to its contract over the entries one
// or more scans hand out: the ordinals Ordinal gives name exactly the
// entry's URI and country, equal strings get equal ordinals, and
// different strings different ones.
type checkOrdinals struct {
	in   *Interner
	seen [NumColumns]map[string]uint32
}

func newCheckOrdinals(in *Interner) *checkOrdinals {
	c := &checkOrdinals{in: in}
	for i := range c.seen {
		c.seen[i] = make(map[string]uint32)
	}
	return c
}

// ordinals numbers e's URI and country through the checked interner.
func (c *checkOrdinals) ordinals(e *Entry) [NumColumns]uint32 {
	var ord [NumColumns]uint32
	ord[ColURI] = c.in.Ordinal(ColURI, e.URIStem)
	ord[ColCountry] = c.in.Ordinal(ColCountry, e.Country)
	return ord
}

func (c *checkOrdinals) check(e *Entry) error {
	ord := c.ordinals(e)
	for col, want := range map[Column]string{ColURI: e.URIStem, ColCountry: e.Country} {
		names := c.in.Names(col)
		if int(ord[col]) >= len(names) || names[ord[col]] != want {
			return fmt.Errorf("column %d: ordinal %d does not name %q (table %q)", col, ord[col], want, names)
		}
		if prev, ok := c.seen[col][want]; ok && prev != ord[col] {
			return fmt.Errorf("column %d: %q had ordinal %d, now %d", col, want, prev, ord[col])
		}
		c.seen[col][want] = ord[col]
		if len(c.seen[col]) > len(names) {
			return fmt.Errorf("column %d: %d distinct values share %d ordinals", col, len(c.seen[col]), len(names))
		}
	}
	if again := c.ordinals(e); again != ord {
		return fmt.Errorf("ordinals of one entry changed: %v then %v", ord, again)
	}
	return nil
}

// TestInternerOrdinals: the ordinals are right whichever path decoded
// the entry and however the paths interleave through one interner — a
// canonical text file, a re-spaced one, a binary file, the canonical
// file again — with more URIs and more OS values than a linear table
// holds (so the map index takes over mid-scan), empty countries,
// players that change IP, malformed lines that intern a URI and are then
// refused, and materialized entries that were never scanned through it.
// A deferred interner numbers the same URIs and countries and hands out
// the same entries, c-ip and c-playerid through Identity and c-os, c-cpu
// and cs(Referer) empty.
func TestInternerOrdinals(t *testing.T) {
	const uris = 2*linearMax + 3
	var entries []*Entry
	for i := 0; i < 400; i++ {
		e := sampleEntry(TraceEpoch)
		e.PlayerID = fmt.Sprintf("player-%03d", i*7%90)
		e.ClientIP = fmt.Sprintf("10.0.%d.%d", i%3, i*7%90%40) // players share IPs, and move
		e.ClientOS = fmt.Sprintf("OS %d", i%(2*linearMax))
		e.URIStem = fmt.Sprintf("/live/feed%d", 1+i*11%uris)
		e.Country = []string{"BR", "", "US", "PT"}[i%4]
		e.ASNumber = 1 + i%5
		entries = append(entries, e)
	}
	var text, respaced, bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	for i, e := range entries {
		line := string(AppendEntry(nil, e))
		text.WriteString(line + "\n")
		if i%9 == 0 {
			// Interns a new URI, then fails on the duration column.
			fmt.Fprintf(&text, "2002-01-06 00:01:30 9.9.9.%d ghost-%d - - /live/ghost%d x 1 1 1 1.00 - 200 1 ZZ\n", i, i, i)
		}
		respaced.WriteString(strings.ReplaceAll(line, " ", "\t ") + "\n")
		if err := bw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, deferred := range []bool{false, true} {
		in := NewInterner()
		if deferred {
			in = NewDeferredInterner()
		}
		c := newCheckOrdinals(in)
		for _, file := range []struct {
			name string
			data []byte
		}{{"text", text.Bytes()}, {"re-spaced", respaced.Bytes()}, {"binary", bin.Bytes()}, {"text again", text.Bytes()}} {
			i := 0
			st, err := Scan(bytes.NewReader(file.data), true, in, func(e *Entry) error {
				got, want := *e, *entries[i]
				if deferred {
					ip, pid := in.Identity(e)
					got.ClientIP, got.PlayerID = string(ip), string(pid)
					want.ClientOS, want.ClientCPU, want.Referer = "", "", ""
				}
				if got != want {
					return fmt.Errorf("entry %d is %+v, want %+v", i, got, want)
				}
				i++
				return c.check(e)
			})
			if err != nil {
				t.Fatalf("deferred=%v %s: %v", deferred, file.name, err)
			}
			if i != len(entries) || st.Entries != len(entries) {
				t.Errorf("deferred=%v %s: %d entries (stats %+v), want %d", deferred, file.name, i, st, len(entries))
			}
		}
		for _, e := range entries { // never scanned through in: plain structs
			if err := c.check(e); err != nil {
				t.Fatalf("deferred=%v materialized entry: %v", deferred, err)
			}
		}
		if got := len(in.Names(ColURI)); got <= uris {
			t.Errorf("deferred=%v: URI table has %d names; the refused lines' ghosts should be in it", deferred, got)
		}
		if len(c.seen[ColURI]) != uris || len(c.seen[ColCountry]) != 4 {
			t.Errorf("deferred=%v: accepted entries name %d URIs and %d countries, want %d and 4",
				deferred, len(c.seen[ColURI]), len(c.seen[ColCountry]), uris)
		}
	}
}
