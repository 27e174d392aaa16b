package wmslog

import (
	"bytes"
	"io"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
	"time"
)

// binaryTestEntries builds a deterministic entry set with the repetition
// profile of a real access log: few distinct players, URIs, OS/CPU
// classes and countries across many entries.
func binaryTestEntries(n int) []*Entry {
	rng := rand.New(rand.NewPCG(8, 2002))
	epoch := time.Date(2002, 1, 7, 0, 0, 0, 0, time.UTC)
	oses := []string{"Windows 98", "Windows 2000", "Windows NT", ""}
	cpus := []string{"Pentium III", "Pentium II", ""}
	uris := []string{"/live/feed1", "/live/feed2"}
	countries := []string{"BR", "US", "PT", ""}
	out := make([]*Entry, 0, n)
	for i := 0; i < n; i++ {
		e := &Entry{
			Timestamp:    epoch.Add(time.Duration(i) * 3 * time.Second),
			ClientIP:     "10.0.0." + string(rune('0'+i%10)),
			PlayerID:     "player-" + string(rune('a'+i%23)),
			ClientOS:     oses[i%len(oses)],
			ClientCPU:    cpus[i%len(cpus)],
			URIStem:      uris[i%len(uris)],
			Duration:     int64(rng.IntN(4000)),
			Bytes:        int64(rng.IntN(1 << 25)),
			AvgBandwidth: 110000,
			PacketsLost:  int64(rng.IntN(5)),
			ServerCPU:    float64(rng.IntN(10001)) / 100,
			Referer:      SessionRef(int64(i/3), i%3),
			Status:       200,
			ASNumber:     1916,
			Country:      countries[i%len(countries)],
		}
		out = append(out, e)
	}
	return out
}

// TestBinaryRoundTripFields: encode → decode through a shared-format
// stream preserves every field exactly.
func TestBinaryRoundTripFields(t *testing.T) {
	entries := binaryTestEntries(500)
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	for _, e := range entries {
		if err := bw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if bw.Count() != int64(len(entries)) {
		t.Fatalf("Count %d want %d", bw.Count(), len(entries))
	}
	if !bytes.HasPrefix(buf.Bytes(), binaryMagic) {
		t.Fatal("stream does not open with the binary magic")
	}

	got, st, err := ReadAll(bytes.NewReader(buf.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) || st.Binary != len(entries) || st.Entries != len(entries) {
		t.Fatalf("decoded %d entries (stats %+v), want %d", len(got), st, len(entries))
	}
	for i, e := range entries {
		g := got[i]
		if !g.Timestamp.Equal(e.Timestamp) || g.ClientIP != e.ClientIP ||
			g.PlayerID != e.PlayerID || g.ClientOS != e.ClientOS ||
			g.ClientCPU != e.ClientCPU || g.URIStem != e.URIStem ||
			g.Duration != e.Duration || g.Bytes != e.Bytes ||
			g.AvgBandwidth != e.AvgBandwidth || g.PacketsLost != e.PacketsLost ||
			g.ServerCPU != e.ServerCPU || g.Referer != e.Referer ||
			g.Status != e.Status || g.ASNumber != e.ASNumber || g.Country != e.Country {
			t.Fatalf("entry %d differs\nin:  %+v\nout: %+v", i, e, g)
		}
	}
}

// TestBinaryTextRoundTripByteIdentical: text → binary → text is
// byte-identical, so every md5/realization-digest contract defined over
// the text form holds across a binary detour.
func TestBinaryTextRoundTripByteIdentical(t *testing.T) {
	entries := binaryTestEntries(300)

	render := func(es []*Entry) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, e := range es {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		return buf.Bytes()
	}
	text1 := render(entries)

	parsed, _, err := ReadAll(bytes.NewReader(text1), false)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	for _, e := range parsed {
		if err := bw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	back, _, err := ReadAll(bytes.NewReader(bin.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(render(back), text1) {
		t.Fatal("text → binary → text round trip not byte-identical")
	}
	if bin.Len() >= len(text1) {
		t.Errorf("binary form (%d bytes) not smaller than text (%d bytes)", bin.Len(), len(text1))
	}
}

// TestBinaryServerCPUPrecision: centi-percent encoding must agree with
// the text encoder digit for digit, including values that are not
// exactly representable in binary floating point.
func TestBinaryServerCPUPrecision(t *testing.T) {
	for _, cpu := range []float64{0, 0.01, 0.1, 0.29, 1.0 / 3 * 100 / 100, 4.37, 33.33, 99.99, 100} {
		e := testEntryAt(time.Date(2002, 1, 7, 1, 2, 3, 0, time.UTC), 1, 0)
		e.ServerCPU = cpu
		text := AppendEntry(nil, e)

		d := NewBinaryDict()
		rec := AppendEntryBinary(nil, e, d)
		_, n := uvarintOf(rec)
		var back Entry
		if err := ParseBinary(&back, rec[n:], NewBinaryDict()); err != nil {
			t.Fatalf("cpu %v: %v", cpu, err)
		}
		if got := AppendEntry(nil, &back); string(got) != string(text) {
			t.Errorf("cpu %v: text disagrees\nwant %q\ngot  %q", cpu, text, got)
		}
	}
}

func uvarintOf(b []byte) (uint64, int) {
	var v uint64
	for i, c := range b {
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// TestBinaryDictCap: strings past the cap stay inline on both sides, so
// encoder and decoder numbering never diverges.
func TestBinaryDictCap(t *testing.T) {
	d := NewBinaryDict()
	for i := 0; i < binaryDictCap; i++ {
		d.ents = append(d.ents, dictEntry{safe: true})
	}
	pre := len(d.ents)
	b := appendBinaryString(nil, "overflow", d)
	if len(d.ents) != pre {
		t.Fatal("string admitted past the cap")
	}
	// The overflow string still decodes (inline), and still is not
	// admitted on the decode side either.
	s, safe, rest, ok := takeBinaryString(b, d)
	if !ok || s != "overflow" || !safe || len(rest) != 0 {
		t.Fatalf("inline decode: %q %v %d %v", s, safe, len(rest), ok)
	}
	if len(d.ents) != pre {
		t.Fatal("decode admitted past the cap")
	}
}

// TestBinaryTruncation: every strict prefix of a valid stream either
// decodes fewer whole entries or fails loudly — never a partial entry,
// tolerant mode or not.
func TestBinaryTruncation(t *testing.T) {
	entries := binaryTestEntries(10)
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	for _, e := range entries {
		if err := bw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	full := buf.Bytes()

	wholeDecoded := func(cut int) ([]*Entry, error) {
		got, _, err := ReadAll(bytes.NewReader(full[:cut]), true) // tolerant: must still fail loudly
		return got, err
	}
	sawError := false
	for cut := len(binaryMagic) + 1; cut < len(full); cut++ {
		got, err := wholeDecoded(cut)
		if err == nil && len(got) >= len(entries) {
			t.Fatalf("cut %d: truncated stream decoded all %d entries", cut, len(got))
		}
		if err != nil {
			sawError = true
		}
		// Whatever decoded must be a prefix of the real entry sequence,
		// fully formed.
		for i, e := range got {
			if !e.Timestamp.Equal(entries[i].Timestamp) || e.PlayerID != entries[i].PlayerID {
				t.Fatalf("cut %d: partial/corrupt entry %d emitted", cut, i)
			}
		}
	}
	if !sawError {
		t.Fatal("no truncation point errored — truncation is silent")
	}
}

// TestBinaryCorruption: flipped bytes in the stream surface as errors
// in strict and tolerant mode alike (corrupt records that still decode
// to a structurally valid entry are undetectable by design; the test
// only demands that no error is ever silently skipped).
func TestBinaryCorruption(t *testing.T) {
	entries := binaryTestEntries(20)
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	for _, e := range entries {
		if err := bw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	full := buf.Bytes()

	// Zero out the length prefix of the first record: length 0 is
	// structurally invalid and must fail loudly even in tolerant mode.
	corrupt := append([]byte(nil), full...)
	corrupt[len(binaryMagic)] = 0
	if _, _, err := ReadAll(bytes.NewReader(corrupt), true); err == nil {
		t.Fatal("zero-length record accepted")
	}

	// A length prefix past maxBinaryRecord is a corrupt frame.
	huge := append([]byte(nil), binaryMagic...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f) // ~34 GB
	if _, _, err := ReadAll(bytes.NewReader(huge), true); err == nil {
		t.Fatal("oversized record length accepted")
	}

	// An out-of-range dictionary back-reference must be ErrFormat.
	var rec Entry
	bad := []byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x7f} // ts=1, zeros, dict ref 126
	if err := ParseBinary(&rec, bad, NewBinaryDict()); err == nil {
		t.Fatal("out-of-range dictionary reference accepted")
	}
}

// TestParserAutoDetect: the parser keeps reading text streams (headers
// included) and empty inputs exactly as before, and flips to binary on
// the magic without any flag.
func TestParserAutoDetect(t *testing.T) {
	e := testEntryAt(time.Date(2002, 1, 7, 3, 4, 5, 0, time.UTC), 7, 3)

	var text bytes.Buffer
	w := NewWriter(&text)
	if err := w.Write(e); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	got, st, err := ReadAll(bytes.NewReader(text.Bytes()), false)
	if err != nil || len(got) != 1 || st.Binary != 0 {
		t.Fatalf("text: %v entries=%d stats=%+v", err, len(got), st)
	}

	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	if err := bw.Write(e); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, st, err = ReadAll(bytes.NewReader(bin.Bytes()), false)
	if err != nil || len(got) != 1 || st.Binary != 1 {
		t.Fatalf("binary: %v entries=%d stats=%+v", err, len(got), st)
	}

	for _, short := range []string{"", "#", "2002", string(binaryMagic[:3])} {
		got, _, err := ReadAll(strings.NewReader(short), true)
		if err != nil || len(got) != 0 {
			t.Fatalf("short input %q: %v entries=%d", short, err, len(got))
		}
	}
}

// TestDailyWriterBinary: daily rotation in binary mode produces one
// self-contained binary file per day that ReadFiles decodes back.
func TestDailyWriterBinary(t *testing.T) {
	dir := t.TempDir()
	dw, err := NewDailyWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	dw.Binary = true
	entries := binaryTestEntries(2000)
	epoch := time.Date(2002, 1, 7, 0, 0, 0, 0, time.UTC)
	for i, e := range entries {
		// Re-space to one entry per minute so the set spans >1 calendar day.
		e.Timestamp = epoch.Add(time.Duration(i) * time.Minute)
	}
	for _, e := range entries {
		if err := dw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	files := dw.Files()
	if len(files) < 2 {
		t.Fatalf("expected multiple daily files, got %v", files)
	}
	for _, f := range files {
		head := make([]byte, len(binaryMagic))
		r, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r, head); err != nil || !bytes.Equal(head, binaryMagic) {
			t.Fatalf("%s: not a binary log (%v %x)", f, err, head)
		}
		r.Close()
	}
	got, st, err := ReadFiles(files, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) || st.Binary != len(entries) {
		t.Fatalf("reread %d entries (stats %+v), want %d", len(got), st, len(entries))
	}
	if dw.Entries() != int64(len(entries)) {
		t.Fatalf("Entries() %d want %d", dw.Entries(), len(entries))
	}
}

// TestBinarySyncWriter: SyncWriter over a BinaryWriter serializes
// concurrent producers into one decodable stream.
func TestBinarySyncWriter(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSyncWriter(NewBinaryWriter(&buf))
	entries := binaryTestEntries(200)
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := g; i < len(entries); i += 4 {
				if err := sw.Write(entries[i]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadAll(bytes.NewReader(buf.Bytes()), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) || sw.Count() != int64(len(entries)) {
		t.Fatalf("decoded %d, Count %d, want %d", len(got), sw.Count(), len(entries))
	}
}
