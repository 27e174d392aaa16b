package wmslog

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"time"
)

// randomEntry draws a structurally valid entry: exactly what Validate
// accepts, over wide value ranges including the dash/underscore
// encodings of the optional fields, control bytes and the bytes of
// non-ASCII UTF-8 ("á", U+00A0, U+0085).
func randomEntry(rng *rand.Rand) *Entry {
	word := func(minLen int, spaces bool) string {
		const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.:/-%\x01\x1f\x7f\xc3\xa1\xc2\xa0\x85"
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
// over AppendEntry output recovers the entry, and so does a strict and
// a tolerant ReadAll of the same line re-spaced — every separator a run
// of space, \t, \v, \f and \r (respaceAll), runs at both ends too — or
// with its s-cpu-util in exponent form. ServerCPU is quantized by the
// %.2f wire format, so the re-encoded line — not the float bit pattern
// — is the fixpoint; underscores decode as spaces by design, so
// optional fields containing literal underscores are excluded.
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
		// "-" reads back as absent; the wire bytes above are the
		// authoritative check.
		for _, f := range []*string{&cmp.ClientOS, &cmp.ClientCPU, &cmp.Referer, &cmp.Country} {
			if *f == "-" {
				*f = ""
			}
		}
		if cmp != back {
			t.Fatalf("iteration %d: fields differ\nin:  %+v\nout: %+v", i, e, back)
		}

		cols := strings.Split(string(line), " ")
		cols[11] = strconv.FormatFloat(back.ServerCPU, 'e', -1, 64)
		for _, variant := range []string{" \v" + string(respaceAll(line)) + "\r\t", strings.Join(cols, " ")} {
			for _, tolerant := range []bool{false, true} {
				got, st, err := ReadAll(strings.NewReader(variant), tolerant)
				if err != nil || len(got) != 1 || *got[0] != back {
					t.Fatalf("iteration %d, tolerant=%v: %q reads as %v (stats %+v, err %v), want %+v", i, tolerant, variant, got, st, err, back)
				}
			}
		}
	}
}

// TestParseAppendRejectsMalformed: the decoder must fail (never
// mis-parse) on lines outside the format, in ParseAppend, in a strict
// scan (an error) and in a tolerant one (a malformed line). The last
// rows are the leniencies of the strings.Fields/time.Parse decoder the
// column splitter replaced, which no producer of these logs emits:
// non-ASCII whitespace as a separator (it is column content), a '+' on
// an integer, fractional seconds in the clock column.
func TestParseAppendRejectsMalformed(t *testing.T) {
	good := string(AppendEntry(nil, &Entry{
		Timestamp: time.Date(2002, 1, 6, 1, 2, 3, 0, time.UTC),
		ClientIP:  "10.0.0.1", PlayerID: "p", URIStem: "/u", ServerCPU: 1.25,
	}))
	bad := []string{
		"2002-01-06",
		good + " extra",
		strings.Replace(good, "1.25", "1.2.5", 1),
		strings.Replace(good, "1.25", "1,25", 1),
		strings.Replace(good, "1.25", "NaN", 1), // out of [0,100], as Validate has it
		strings.Replace(good, "2002-01-06", "2002-13-06", 1),
		strings.Replace(good, "2002-01-06", "2002-02-30", 1),
		strings.Replace(good, "01:02:03", "25:02:03", 1),
		strings.Replace(good, "01:02:03", "01:02:3x", 1),
		// int64 overflow must error like strconv's ErrRange, not wrap:
		// 19 digits > MaxInt64 in the sc-status column.
		strings.Replace(good, " 0 -", " 9300000000000000000 -", 1),
		// A tab inside a column splits it in two: one column too many.
		strings.Replace(good, "10.0.0.1", "10.0\t0.1", 1),
		// Dropped leniencies.
		strings.Replace(good, " ", "\u00a0", 1),
		strings.Replace(good, " p ", "\u0085p ", 1),
		strings.Replace(good, " p ", " p\u3000", 1),
		strings.Replace(good, " /u 0 ", " /u +0 ", 1),
		strings.Replace(good, "01:02:03", "01:02:03.5", 1),
	}
	for _, line := range bad {
		var e Entry
		if err := ParseAppend(&e, []byte(line)); err == nil {
			t.Errorf("ParseAppend accepted %q", line)
		}
		text := good + "\n" + line + "\n" + good + "\n"
		if _, _, err := ReadAll(strings.NewReader(text), false); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("strict scan of %q: err = %v, want ErrFormat at line 2", line, err)
		}
		if entries, st, err := ReadAll(strings.NewReader(text), true); err != nil || len(entries) != 2 || st.Malformed != 1 {
			t.Errorf("tolerant scan of %q: %d entries, stats %+v, err %v", line, len(entries), st, err)
		}
	}
	var e Entry
	if err := ParseAppend(&e, nil); err == nil {
		t.Error("ParseAppend accepted an empty line")
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
