package wmslog

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"
)

// randomEntry draws a structurally valid entry: exactly what Validate
// accepts, over wide value ranges including the dash/underscore
// encodings of the optional fields.
func randomEntry(rng *rand.Rand) *Entry {
	word := func(minLen int, spaces bool) string {
		const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.:/-%"
		n := minLen + rng.IntN(12)
		var b strings.Builder
		for i := 0; i < n; i++ {
			if spaces && i > 0 && i < n-1 && rng.IntN(6) == 0 {
				b.WriteByte(' ')
				continue
			}
			b.WriteByte(letters[rng.IntN(len(letters))])
		}
		return b.String()
	}
	optional := func() string {
		if rng.IntN(4) == 0 {
			return ""
		}
		return word(1, true)
	}
	return &Entry{
		Timestamp: time.Date(1980+rng.IntN(120), time.Month(1+rng.IntN(12)), 1+rng.IntN(28),
			rng.IntN(24), rng.IntN(60), rng.IntN(60), 0, time.UTC),
		ClientIP:     word(1, false),
		PlayerID:     word(1, false),
		ClientOS:     optional(),
		ClientCPU:    optional(),
		URIStem:      word(1, false),
		Duration:     rng.Int64N(1 << 40),
		Bytes:        rng.Int64N(1 << 50),
		AvgBandwidth: rng.Int64N(1 << 40),
		PacketsLost:  rng.Int64N(1 << 30),
		ServerCPU:    float64(rng.IntN(10001)) / 100,
		Referer:      optional(),
		Status:       rng.IntN(1000),
		ASNumber:     rng.IntN(1 << 20),
		Country:      optional(),
	}
}

// marshalLine is the original fmt-based encoder, kept as the oracle
// AppendEntry must match byte for byte: one log line in Fields order.
func (e *Entry) marshalLine(b *strings.Builder) {
	b.WriteString(e.Timestamp.Format("2006-01-02"))
	b.WriteByte(' ')
	b.WriteString(e.Timestamp.Format("15:04:05"))
	fmt.Fprintf(b, " %s %s %s %s %s %d %d %d %d %.2f %s %d %d %s",
		e.ClientIP,
		e.PlayerID,
		dashIfEmpty(e.ClientOS),
		dashIfEmpty(e.ClientCPU),
		e.URIStem,
		e.Duration,
		e.Bytes,
		e.AvgBandwidth,
		e.PacketsLost,
		e.ServerCPU,
		dashIfEmpty(e.Referer),
		e.Status,
		e.ASNumber,
		dashIfEmpty(e.Country),
	)
}

func dashIfEmpty(s string) string {
	if s == "" {
		return "-"
	}
	// Field values are space-separated; spaces inside values would break
	// the line format, so encode them.
	return strings.ReplaceAll(s, " ", "_")
}

// legacyLine renders an entry through marshalLine.
func legacyLine(e *Entry) string {
	var b strings.Builder
	e.marshalLine(&b)
	return b.String()
}

// TestAppendEntryMatchesLegacy is the encoder-equivalence property:
// AppendEntry output is byte-identical to the legacy Fprintf encoder
// for arbitrary valid entries.
func TestAppendEntryMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 0))
	for i := 0; i < 5000; i++ {
		e := randomEntry(rng)
		if err := e.Validate(); err != nil {
			t.Fatalf("generator produced invalid entry: %v", err)
		}
		got := string(AppendEntry(nil, e))
		want := legacyLine(e)
		if got != want {
			t.Fatalf("iteration %d: encoders disagree\nappend: %q\nlegacy: %q\nentry: %+v", i, got, want, e)
		}
	}
}

// TestAppendEntryMatchesLegacyEdgeCases pins the boundary values the
// random sweep may miss.
func TestAppendEntryMatchesLegacyEdgeCases(t *testing.T) {
	base := func() *Entry {
		return &Entry{
			Timestamp: time.Date(2002, 1, 6, 0, 0, 0, 0, time.UTC),
			ClientIP:  "10.0.0.1", PlayerID: "p", URIStem: "/live/feed1",
		}
	}
	cases := map[string]func(*Entry){
		"zero values":       func(e *Entry) {},
		"cpu 100":           func(e *Entry) { e.ServerCPU = 100 },
		"cpu tiny":          func(e *Entry) { e.ServerCPU = 0.004999 },
		"cpu two decimals":  func(e *Entry) { e.ServerCPU = 99.99 },
		"underscored field": func(e *Entry) { e.ClientOS = "Windows 98 SE" },
		"literal dash":      func(e *Entry) { e.Country = "-" },
		"year 0042":         func(e *Entry) { e.Timestamp = time.Date(42, 7, 9, 3, 4, 5, 0, time.UTC) },
		"end of day":        func(e *Entry) { e.Timestamp = time.Date(2002, 12, 31, 23, 59, 59, 0, time.UTC) },
		"big numbers": func(e *Entry) {
			e.Duration = 1<<62 - 1
			e.Bytes = 1<<62 - 1
			e.AvgBandwidth = 1<<62 - 1
			e.PacketsLost = 1<<62 - 1
			e.Status = 1<<31 - 1
			e.ASNumber = 1<<31 - 1
		},
		"negative status": func(e *Entry) { e.Status = -7; e.ASNumber = -42 },
	}
	for name, mutate := range cases {
		e := base()
		mutate(e)
		got := string(AppendEntry(nil, e))
		want := legacyLine(e)
		if got != want {
			t.Errorf("%s: encoders disagree\nappend: %q\nlegacy: %q", name, got, want)
		}
	}
}

// TestAppendEntryParseRoundTrip is the decode property: ParseAppend
// over AppendEntry output recovers the entry. ServerCPU is quantized
// by the %.2f wire format, so the re-encoded line — not the float bit
// pattern — is the fixpoint; underscores decode as spaces by design,
// so optional fields containing literal underscores are excluded (the
// legacy parser has the same lossiness).
func TestAppendEntryParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 0))
	for i := 0; i < 5000; i++ {
		e := randomEntry(rng)
		line := AppendEntry(nil, e)
		var back Entry
		if err := ParseAppend(&back, line); err != nil {
			t.Fatalf("iteration %d: ParseAppend(%q): %v", i, line, err)
		}
		reencoded := AppendEntry(nil, &back)
		if string(reencoded) != string(line) {
			t.Fatalf("iteration %d: round trip not a fixpoint\nfirst:  %q\nsecond: %q", i, line, reencoded)
		}
		cmp := *e
		cmp.ServerCPU = back.ServerCPU // quantized by the wire format
		// Optional fields fold through the dash encoding: a literal
		// "-" reads back as absent (same lossiness as the legacy
		// parser); the wire bytes above are the authoritative check.
		for _, f := range []*string{&cmp.ClientOS, &cmp.ClientCPU, &cmp.Referer, &cmp.Country} {
			if *f == "-" {
				*f = ""
			}
		}
		if cmp != back {
			t.Fatalf("iteration %d: fields differ\nin:  %+v\nout: %+v", i, e, back)
		}
	}
}

// TestParseAppendAgreesWithLegacyParser: every canonical line must
// decode identically through the fast path and the tolerant splitter.
func TestParseAppendAgreesWithLegacyParser(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 0))
	p := &Parser{}
	for i := 0; i < 2000; i++ {
		e := randomEntry(rng)
		line := AppendEntry(nil, e)
		var fast Entry
		if err := ParseAppend(&fast, line); err != nil {
			t.Fatalf("fast path rejected canonical line %q: %v", line, err)
		}
		var legacy Entry
		if err := p.parseLine(&legacy, string(line)); err != nil {
			t.Fatalf("legacy parser rejected canonical line %q: %v", line, err)
		}
		if fast != legacy {
			t.Fatalf("parsers disagree on %q\nfast:   %+v\nlegacy: %+v", line, fast, legacy)
		}
	}
}

// TestParseAppendRejectsMalformed: the fast path must fail (never
// mis-parse) on lines outside the canonical format.
func TestParseAppendRejectsMalformed(t *testing.T) {
	good := string(AppendEntry(nil, &Entry{
		Timestamp: time.Date(2002, 1, 6, 1, 2, 3, 0, time.UTC),
		ClientIP:  "10.0.0.1", PlayerID: "p", URIStem: "/u", ServerCPU: 1.25,
	}))
	bad := []string{
		"",
		"2002-01-06",
		good + " extra",
		strings.Replace(good, " ", "  ", 1),     // doubled separator
		strings.Replace(good, "1.25", "1.2", 1), // not 2 decimals
		strings.Replace(good, "1.25", "1.2e0", 1), // scientific
		strings.Replace(good, "2002-01-06", "2002-13-06", 1),
		strings.Replace(good, "2002-01-06", "2002-02-30", 1),
		strings.Replace(good, "01:02:03", "25:02:03", 1),
		strings.Replace(good, "01:02:03", "01:02:3x", 1),
		// int64 overflow must error like strconv's ErrRange, not wrap:
		// 19 digits > MaxInt64 in the sc-status column.
		strings.Replace(good, " 0 -", " 9300000000000000000 -", 1),
		// A tab inside a column: strings.Fields would split it into an
		// extra column, so the fast path must not accept it as one.
		strings.Replace(good, "10.0.0.1", "10.0\t0.1", 1),
		// Non-ASCII (incl. unicode whitespace like U+00A0) defers to
		// the legacy splitter rather than risking a field mismatch.
		strings.Replace(good, "10.0.0.1", "10.0\u00a00.1", 1),
	}
	for _, line := range bad {
		var e Entry
		if err := ParseAppend(&e, []byte(line)); err == nil {
			t.Errorf("ParseAppend accepted %q", line)
		}
	}
}

// TestAppendEntryZeroAlloc pins the tentpole property: encoding into a
// pre-sized buffer allocates nothing, and a warm Writer allocates
// nothing per entry.
func TestAppendEntryZeroAlloc(t *testing.T) {
	e := &Entry{
		Timestamp: time.Date(2002, 1, 6, 1, 2, 3, 0, time.UTC),
		ClientIP:  "200.131.17.42", PlayerID: "player-1", ClientOS: "Windows 98",
		ClientCPU: "Pentium III", URIStem: "/live/feed1", Duration: 1742,
		Bytes: 23953750, AvgBandwidth: 110000, PacketsLost: 3, ServerCPU: 4.37,
		Referer: "http://a/b", Status: 200, ASNumber: 1916, Country: "BR",
	}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendEntry(buf[:0], e)
	}); n != 0 {
		t.Errorf("AppendEntry allocates %v/op, want 0", n)
	}

	lw := NewWriter(discard{})
	if err := lw.Write(e); err != nil { // header + buffer warm-up
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := lw.Write(e); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Writer.Write allocates %v/op, want 0", n)
	}
}

// discard is io.Discard without the io import ambiguity in asserts.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
