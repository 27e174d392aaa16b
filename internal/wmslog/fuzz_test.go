package wmslog

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzAppendEntryRoundTrip fuzzes the encode/decode pair over
// arbitrary field values: any entry Validate accepts must encode
// identically to the Fprintf encoder AppendEntry replaced, parse back
// through ParseAppend, and re-encode to the same bytes.
func FuzzAppendEntryRoundTrip(f *testing.F) {
	f.Add(int64(1010275384), "10.0.0.1", "player-1", "Windows 98", "Pentium III",
		"/live/feed1", int64(1742), int64(23953750), int64(110000), int64(3),
		int64(437), "http://show.example.br/aovivo", 200, 1916, "BR")
	f.Add(int64(0), "a", "b", "", "", "/", int64(0), int64(0), int64(0), int64(0),
		int64(0), "", 0, 0, "")
	f.Add(int64(1<<40), "x", "y", "has space", "-", "/u", int64(1<<60), int64(1<<60),
		int64(1<<60), int64(1<<60), int64(10000), "ref", 404, 1<<32-1, "B R")
	// cpuCenti MinInt64 stands for a −0 s-cpu-util, which Validate must
	// refuse: "-0.00" is not a fixpoint of the round trip below.
	f.Add(int64(1010275384), "10.0.0.1", "player-1", "", "", "/live/feed1", int64(1),
		int64(1), int64(1), int64(0), int64(math.MinInt64), "", 200, 1, "BR")
	// A negative sc-status and an s-as outside [0, 2³²): refused too.
	f.Add(int64(1<<40), "x", "y", "has space", "-", "/u", int64(1), int64(1),
		int64(1), int64(1), int64(10000), "ref", -5, -6, "B R")
	f.Add(int64(1<<40), "x", "y", "", "", "/u", int64(1), int64(1),
		int64(1), int64(1), int64(10000), "", 200, 1<<32, "")
	// A tab or newline in an optional field would split the line: refused.
	f.Add(int64(1010275384), "10.0.0.1", "player-1", "Win\n98", "Pentium\tIII",
		"/live/feed1", int64(1), int64(1), int64(1), int64(0), int64(1), "a\tb", 200, 1, "B\nR")
	// \r, \v and \f split it too: refused; control bytes and non-ASCII
	// UTF-8 (U+00A0 and U+0085 among it) are content: accepted.
	f.Add(int64(1010275384), "10.0\r0.1", "p\vq", "Win\f98", "", "/u", int64(1), int64(1),
		int64(1), int64(0), int64(1), "", 200, 1, "BR")
	f.Add(int64(1010275384), "10.0.0.1", "jogador-\u00e1", "Win\x0198", "\x7f",
		"/live/São", int64(1), int64(1), int64(1), int64(0), int64(5), "a\u0085b", 200, 1, "Brasil\u00a0")

	f.Fuzz(func(t *testing.T, unix int64, ip, player, osName, cpu, uri string,
		duration, bytesServed, bw, lost int64, cpuCenti int64,
		referer string, status, asn int, country string) {
		e := &Entry{
			// Clamp into the 4-digit-year range the wire format (and
			// time.Parse round-tripping) covers.
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
		if err := e.Validate(); err != nil {
			t.Skip() // fuzzer fabricated an entry the writer would refuse
		}
		if math.Signbit(e.ServerCPU) {
			t.Fatalf("Validate accepted s-cpu-util %v", e.ServerCPU)
		}

		line := AppendEntry(nil, e)
		if strings.ContainsAny(string(line), "\t\n\v\f\r") {
			t.Fatalf("a field's separator split the line %q", line)
		}

		// Property 1: byte-identical to the Fprintf encoder.
		var fprintf strings.Builder
		e.marshalLine(&fprintf)
		if string(line) != fprintf.String() {
			t.Fatalf("encoders disagree\nappend:  %q\nfprintf: %q", line, fprintf.String())
		}

		// Property 2: ParseAppend accepts every line the encoder makes
		// of an entry Validate accepts, and re-encodes it to the same
		// bytes.
		var back Entry
		if err := ParseAppend(&back, line); err != nil {
			t.Fatalf("ParseAppend rejected the line %q: %v", line, err)
		}
		if got := AppendEntry(nil, &back); string(got) != string(line) {
			t.Fatalf("round trip not a fixpoint\nfirst:  %q\nsecond: %q", line, got)
		}

		// Property 3: non-float fields survive exactly, modulo the
		// documented underscore/space folding of optional fields.
		fold := func(s string) string {
			if s == "-" {
				return "" // a literal dash reads back as absent, like empty
			}
			return strings.ReplaceAll(s, "_", " ")
		}
		if back.ClientIP != e.ClientIP || back.PlayerID != e.PlayerID ||
			back.URIStem != e.URIStem || back.Status != e.Status ||
			back.ASNumber != e.ASNumber || back.Duration != e.Duration ||
			back.Bytes != e.Bytes || back.AvgBandwidth != e.AvgBandwidth ||
			back.PacketsLost != e.PacketsLost ||
			!back.Timestamp.Equal(e.Timestamp) ||
			back.ClientOS != fold(e.ClientOS) || back.ClientCPU != fold(e.ClientCPU) ||
			back.Referer != fold(e.Referer) || back.Country != fold(e.Country) {
			t.Fatalf("fields differ\nin:  %+v\nout: %+v", e, back)
		}
	})
}

// FuzzBinaryRoundTrip fuzzes the binary framing: any writer-accepted
// entry must survive binary → Entry → text → Entry with every field
// intact, and ParseBinary must never panic on arbitrary record bytes.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(int64(1010275384), "10.0.0.1", "player-1", "Windows 98", "Pentium III",
		"/live/feed1", int64(1742), int64(23953750), int64(110000), int64(3),
		int64(437), "http://show.example.br/aovivo", 200, 1916, "BR", []byte{})
	f.Add(int64(1), "a", "b", "", "", "/", int64(0), int64(0), int64(0), int64(0),
		int64(0), "", 0, 0, "", []byte{0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x7f})
	f.Add(int64(1<<40), "x", "y", "os", "-", "/u", int64(1<<60), int64(1<<60),
		int64(1<<60), int64(1<<60), int64(10000), "ref", 404, 7, "PT",
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, unix int64, ip, player, osName, cpu, uri string,
		duration, bytesServed, bw, lost int64, cpuCenti int64,
		referer string, status, asn int, country string, raw []byte) {
		// Robustness half: arbitrary record bytes must error or decode,
		// never panic — including against a dictionary that has state.
		var junk Entry
		d := NewBinaryDict()
		d.admit("seed", true)
		_ = ParseBinary(&junk, raw, d)

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
		if err := e.Validate(); err != nil {
			t.Skip() // fuzzer fabricated an entry the writer would refuse
		}
		if e.Status > math.MaxInt32 {
			t.Skip() // beyond the wire format's range for the field
		}

		// Binary → Entry: encode twice through one dictionary so both the
		// inline-first and the back-reference encodings are exercised.
		dict := NewBinaryDict()
		rec1 := AppendEntryBinary(nil, e, dict)
		rec2 := AppendEntryBinary(nil, e, dict)
		rdict := NewBinaryDict()
		var got1, got2 Entry
		for i, rec := range [][]byte{rec1, rec2} {
			ln, n := binary.Uvarint(rec)
			if n <= 0 || uint64(len(rec)-n) != ln {
				t.Fatalf("encoding %d: bad frame: len %d prefix %d of %d", i, ln, n, len(rec))
			}
			out := &got1
			if i == 1 {
				out = &got2
			}
			if err := ParseBinary(out, rec[n:], rdict); err != nil {
				t.Fatalf("encoding %d rejected: %v", i, err)
			}
		}
		for _, got := range []*Entry{&got1, &got2} {
			if !got.Timestamp.Equal(e.Timestamp) || got.ClientIP != e.ClientIP ||
				got.PlayerID != e.PlayerID || got.ClientOS != e.ClientOS ||
				got.ClientCPU != e.ClientCPU || got.URIStem != e.URIStem ||
				got.Duration != e.Duration || got.Bytes != e.Bytes ||
				got.AvgBandwidth != e.AvgBandwidth || got.PacketsLost != e.PacketsLost ||
				got.ServerCPU != e.ServerCPU || got.Referer != e.Referer ||
				got.Status != e.Status || got.ASNumber != e.ASNumber ||
				got.Country != e.Country {
				t.Fatalf("binary fields differ\nin:  %+v\nout: %+v", e, got)
			}
		}

		// Entry → text → Entry: the decoded entry renders to canonical
		// text that parses back equal, so a binary detour never disturbs
		// the text-form digest contracts.
		line := AppendEntry(nil, &got1)
		var back Entry
		if err := ParseAppend(&back, line); err != nil {
			t.Fatalf("text reparse rejected %q: %v", line, err)
		}
		if got := AppendEntry(nil, &back); string(got) != string(line) {
			t.Fatalf("binary → text not a fixpoint\nfirst:  %q\nsecond: %q", line, got)
		}
	})
}
