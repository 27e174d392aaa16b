package wmslog

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"
)

// AppendEntry appends e rendered as one log line (no trailing newline)
// to b and returns the extended slice. The output is byte-identical to
// the legacy fmt.Fprintf encoder for every valid entry — the
// equivalence the property tests in append_test.go pin against their
// copy of it (marshalLine) — but does
// not allocate: integer fields go through strconv.Append*, s-cpu-util
// through the integer fixed-2 path (appendFixed2), the timestamp is
// decoded once and rendered digit by digit, and string fields are
// copied straight from the entry.
//
// This is the hot-path encoder: Writer, SyncWriter and DailyWriter all
// route through it with a reused scratch buffer, so the serve pipeline
// writes log lines without any per-entry allocation.
//
//lsm:hotpath
func AppendEntry(b []byte, e *Entry) []byte {
	b = appendTimestamp(b, e.Timestamp)
	b = append(b, ' ')
	b = appendRawField(b, e.ClientIP)
	b = append(b, ' ')
	b = appendRawField(b, e.PlayerID)
	b = append(b, ' ')
	b = appendDashField(b, e.ClientOS)
	b = append(b, ' ')
	b = appendDashField(b, e.ClientCPU)
	b = append(b, ' ')
	b = appendRawField(b, e.URIStem)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.Duration, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.Bytes, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.AvgBandwidth, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.PacketsLost, 10)
	b = append(b, ' ')
	b = appendFixed2(b, e.ServerCPU)
	b = append(b, ' ')
	b = appendDashField(b, e.Referer)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(e.Status), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(e.ASNumber), 10)
	b = append(b, ' ')
	b = appendDashField(b, e.Country)
	return b
}

// fixed2Limit bounds the integer fixed-2 path: below 2^46 adjacent
// float64s are less than 0.01 apart, so a value is the nearest double
// of at most one k/100 and k stays under 2^53 (exact as a float64).
const fixed2Limit = 1 << 46

// exactCenti reports the k with v == float64(k)/100, when v is a
// non-negative value below fixed2Limit that has one — every value the
// parser's nextFixed2 produces and every math.Round(x*100)/100 the
// simulator logs. Then "%.2f" of v is k's digits: v is the double
// nearest k/100, so |v − k/100| ≤ ulp(v)/2 < 0.005, while every other
// two-decimal value is at least 0.01 − ulp(v)/2 > 0.005 away — k/100 is
// the strictly nearest one, which is what strconv's correctly rounded
// 'f' formatting prints. The unsigned compare of the bit pattern turns
// away negatives, −0 (printed "-0.00"), NaN and ±Inf in one test.
//
//lsm:hotpath
func exactCenti(v float64) (uint64, bool) {
	if math.Float64bits(v) >= math.Float64bits(fixed2Limit) {
		return 0, false
	}
	k := uint64(v*100 + 0.5)
	return k, float64(k)/100 == v
}

// appendFixed2 renders v exactly as strconv.AppendFloat(b, v, 'f', 2, 64)
// does — the encode twin of nextFixed2: integer digits when exactCenti
// finds v's centi-units, strconv for everything else.
//
//lsm:hotpath
func appendFixed2(b []byte, v float64) []byte {
	k, ok := exactCenti(v)
	if !ok {
		return strconv.AppendFloat(b, v, 'f', 2, 64)
	}
	b = strconv.AppendUint(b, k/100, 10)
	b = append(b, '.')
	return append2(b, int(k%100))
}

// appendTimestamp renders t as "YYYY-MM-DD HH:MM:SS", matching
// Format("2006-01-02 15:04:05") at the log's 1-second resolution, from
// one calendar decode. A UTC stamp — everything the simulator and the
// parser produce — takes its clock columns from the unix second of the
// day; any other location goes through t.Clock.
//
//lsm:hotpath
func appendTimestamp(b []byte, t time.Time) []byte {
	y, mo, d := t.Date()
	var h, mi, s int
	if t.Location() == time.UTC {
		sod := t.Unix() % 86400
		if sod < 0 {
			sod += 86400 // before 1970: Go's % truncates toward zero
		}
		h, mi, s = int(sod/3600), int(sod/60%60), int(sod%60)
	} else {
		h, mi, s = t.Clock()
	}
	if y >= 0 && y <= 9999 {
		b = append2(b, y/100)
		b = append2(b, y%100)
	} else {
		b = appendPadInt(b, y, 4)
	}
	b = append(b, '-')
	b = append2(b, int(mo))
	b = append(b, '-')
	b = append2(b, d)
	b = append(b, ' ')
	b = append2(b, h)
	b = append(b, ':')
	b = append2(b, mi)
	b = append(b, ':')
	return append2(b, s)
}

// append2 appends v ∈ [0, 99] as two digits.
func append2(b []byte, v int) []byte {
	return append(b, byte('0'+v/10), byte('0'+v%10))
}

// appendPadInt appends v left-padded with zeros to the given width,
// like time.Time.Format's fixed-width verbs (a wider value keeps all
// its digits; negatives fall back to plain formatting). Only years
// outside [0, 9999] reach it.
func appendPadInt(b []byte, v, width int) []byte {
	if v < 0 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	var digits [20]byte
	n := 0
	for x := v; x > 0; x /= 10 {
		digits[n] = byte('0' + x%10)
		n++
	}
	for i := n; i < width; i++ {
		b = append(b, '0')
	}
	for i := n - 1; i >= 0; i-- {
		b = append(b, digits[i])
	}
	return b
}

// appendRawField copies a mandatory field (validated non-empty and
// space-free) verbatim.
func appendRawField(b []byte, s string) []byte {
	return append(b, s...)
}

// appendDashField renders an optional field: "-" for the empty string,
// spaces encoded as underscores otherwise.
func appendDashField(b []byte, s string) []byte {
	if s == "" {
		return append(b, '-')
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' {
			c = '_'
		}
		b = append(b, c)
	}
	return b
}

// ParseAppend is the decoding twin of AppendEntry: it parses one
// canonical data line (exactly 16 single-space-separated columns in
// Fields order, 2-decimal s-cpu-util) into *e, overwriting every field.
// It allocates only the retained string fields — timestamps and all
// numeric columns are decoded in place, with no scratch split or
// sub-string slices — so it is the fast path the parser tries before
// falling back to the tolerant legacy column splitter (which accepts
// repeated whitespace and arbitrary float formats).
//
// The line must not include the trailing newline.
func ParseAppend(e *Entry, line []byte) error {
	return parseAppend(e, line, nil)
}

// parseAppend is ParseAppend with the string fields drawn from in: a
// field that repeats the value *e already holds (the previous record
// of a reused entry) or one the interner knows costs no allocation, so
// a scan over a real log allocates per distinct value. Referer takes
// only the first shortcut — see Interner.
//
//lsm:hotpath
func parseAppend(e *Entry, line []byte, in *Interner) error {
	cols := fieldSplitter{line: line}
	date, ok := cols.next()
	clock, ok2 := cols.next()
	if !ok || !ok2 {
		return errTruncated()
	}
	ts, err := parseTimestamp(date, clock)
	if err != nil {
		return err
	}
	e.Timestamp = ts
	ip, ok := cols.next()
	if !ok {
		return errMissing("c-ip")
	}
	pid, ok := cols.next()
	if !ok {
		return errMissing("c-playerid")
	}
	e.ClientIP, e.PlayerID = in.client(ip, pid, e.ClientIP, e.PlayerID)
	if e.ClientOS, ok = cols.nextUndashed(in, colOS, e.ClientOS); !ok {
		return errMissing("c-os")
	}
	if e.ClientCPU, ok = cols.nextUndashed(in, colCPU, e.ClientCPU); !ok {
		return errMissing("c-cpu")
	}
	uri, ok := cols.next()
	if !ok {
		return errMissing("cs-uri-stem")
	}
	e.URIStem = in.intern(ColURI, uri, e.URIStem)
	if e.Duration, err = cols.nextInt("x-duration"); err != nil {
		return err
	}
	if e.Bytes, err = cols.nextInt("sc-bytes"); err != nil {
		return err
	}
	if e.AvgBandwidth, err = cols.nextInt("avgbandwidth"); err != nil {
		return err
	}
	if e.PacketsLost, err = cols.nextInt("c-pkts-lost"); err != nil {
		return err
	}
	if e.ServerCPU, err = cols.nextFixed2("s-cpu-util"); err != nil {
		return err
	}
	if e.Referer, ok = cols.nextUndashed(nil, 0, e.Referer); !ok {
		return errMissing("cs(Referer)")
	}
	status, err := cols.nextInt("sc-status")
	if err != nil {
		return err
	}
	e.Status = int(status)
	asn, err := cols.nextInt("s-as")
	if err != nil {
		return err
	}
	e.ASNumber = int(asn)
	if e.Country, ok = cols.nextUndashed(in, ColCountry, e.Country); !ok {
		return errMissing("s-country")
	}
	if !cols.done() {
		return errTrailing()
	}
	return e.Validate()
}

// The fast path's error constructors live outside the //lsm:hotpath
// decoder body: they run only on malformed input, where the line is
// about to take the allocating legacy fallback anyway.

func errTruncated() error { return fmt.Errorf("%w: truncated line", ErrFormat) }

func errMissing(field string) error { return fmt.Errorf("%w: missing %s", ErrFormat, field) }

func errTrailing() error { return fmt.Errorf("%w: trailing columns", ErrFormat) }

// fieldSplitter walks single-space-separated columns without allocating.
type fieldSplitter struct {
	line []byte
	pos  int
}

// next returns the next column. It is deliberately stricter than the
// tolerant splitter: control bytes (tab included) and non-ASCII bytes
// fail the column, sending the line to the legacy path — the fast
// path must never *accept* a line `strings.Fields` would split
// differently (tabs, unicode whitespace), and over-rejecting is safe
// because rejection only means falling back.
func (f *fieldSplitter) next() ([]byte, bool) {
	line, start := f.line, f.pos
	// A column byte is printable ASCII, 0x21..0x7f: one unsigned compare,
	// on locals the loop keeps in registers.
	i := start
	for i < len(line) && line[i]-0x21 < 0x5f {
		i++
	}
	if i == start {
		return nil, false // end of line, or an empty column: doubled space, not canonical
	}
	if i < len(line) {
		if line[i] != ' ' {
			return nil, false // control or non-ASCII byte
		}
		f.pos = i + 1 // skip the single separator
	} else {
		f.pos = i
	}
	return line[start:i], true
}

func (f *fieldSplitter) done() bool { return f.pos >= len(f.line) }

// nextUndashed reads a dash-encoded optional field: "-" decodes to the
// empty string without allocating; underscores decode back to spaces
// (in a stack scratch for any realistic length) before interning
// through column c of in; prev is the value the entry being
// overwritten holds for the field.
func (f *fieldSplitter) nextUndashed(in *Interner, c Column, prev string) (string, bool) {
	col, ok := f.next()
	if !ok {
		return "", false
	}
	if len(col) == 1 && col[0] == '-' {
		return "", true
	}
	if bytes.IndexByte(col, '_') < 0 {
		return in.intern(c, col, prev), true
	}
	var scratch [64]byte
	s := append(scratch[:0], col...)
	for i, c := range s {
		if c == '_' {
			s[i] = ' '
		}
	}
	return in.intern(c, s, prev), true
}

func (f *fieldSplitter) nextInt(field string) (int64, error) {
	col, ok := f.next()
	if !ok {
		return 0, fmt.Errorf("%w: missing %s", ErrFormat, field)
	}
	v, err := atoi64(col)
	if err != nil {
		return 0, fmt.Errorf("%w: %s %q", ErrFormat, field, col)
	}
	return v, nil
}

// nextFixed2 parses the fixed 2-decimal float the encoder emits
// ("%.2f"). Anything else — scientific notation, other precisions,
// magnitudes beyond exact centi-unit range — fails, sending the line
// down the legacy strconv.ParseFloat path. The value is computed as
// one correctly-rounded division of exact integers, so it is
// bit-identical to what strconv.ParseFloat returns for the same text.
func (f *fieldSplitter) nextFixed2(field string) (float64, error) {
	col, ok := f.next()
	if !ok {
		return 0, fmt.Errorf("%w: missing %s", ErrFormat, field)
	}
	if len(col) < 4 || col[len(col)-3] != '.' {
		return 0, fmt.Errorf("%w: %s %q not fixed-point", ErrFormat, field, col)
	}
	whole, err := atoi64(col[:len(col)-3])
	if err != nil {
		return 0, fmt.Errorf("%w: %s %q", ErrFormat, field, col)
	}
	d1, d2 := col[len(col)-2], col[len(col)-1]
	if d1 < '0' || d1 > '9' || d2 < '0' || d2 > '9' {
		return 0, fmt.Errorf("%w: %s %q", ErrFormat, field, col)
	}
	const maxExact = (1 << 53) / 100 // centi-units stay exactly representable
	if whole > maxExact || whole < -maxExact {
		return 0, fmt.Errorf("%w: %s %q out of fast-path range", ErrFormat, field, col)
	}
	centi := whole*100 + int64(int(d1-'0')*10+int(d2-'0'))
	if col[0] == '-' {
		centi = whole*100 - int64(int(d1-'0')*10+int(d2-'0'))
	}
	return float64(centi) / 100, nil
}

// atoi64 is a strict base-10 integer parse over bytes (optional
// leading minus, digits only), avoiding the string conversion strconv
// needs. Overflow is an error, like strconv.ParseInt's ErrRange —
// never a silent wrap.
func atoi64(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, ErrFormat
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i++
		if len(b) == 1 {
			return 0, ErrFormat
		}
	}
	limit := uint64(1<<63 - 1) // MaxInt64; MinInt64's magnitude when negative
	if neg {
		limit = 1 << 63
	}
	var v uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, ErrFormat
		}
		d := uint64(c - '0')
		if v > (limit-d)/10 { // overflow: error like strconv's ErrRange
			return 0, ErrFormat
		}
		v = v*10 + d
	}
	if neg {
		if v == 1<<63 {
			return -1 << 63, nil
		}
		return -int64(v), nil
	}
	return int64(v), nil
}

// parseTimestamp decodes "YYYY-MM-DD" + "HH:MM:SS" without the layout
// machinery of time.Parse. Like time.Parse it yields UTC and rejects
// out-of-range components.
func parseTimestamp(date, clock []byte) (time.Time, error) {
	if len(date) != 10 || date[4] != '-' || date[7] != '-' ||
		len(clock) != 8 || clock[2] != ':' || clock[5] != ':' {
		return time.Time{}, fmt.Errorf("%w: timestamp %q %q", ErrFormat, date, clock)
	}
	y, err1 := atoiFixed(date[0:4])
	mo, err2 := atoiFixed(date[5:7])
	d, err3 := atoiFixed(date[8:10])
	h, err4 := atoiFixed(clock[0:2])
	mi, err5 := atoiFixed(clock[3:5])
	s, err6 := atoiFixed(clock[6:8])
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil || err6 != nil ||
		mo < 1 || mo > 12 || d < 1 || d > daysIn(y, mo) || h > 23 || mi > 59 || s > 59 {
		return time.Time{}, fmt.Errorf("%w: timestamp %q %q", ErrFormat, date, clock)
	}
	return time.Date(y, time.Month(mo), d, h, mi, s, 0, time.UTC), nil
}

// atoiFixed parses an all-digit field.
func atoiFixed(b []byte) (int, error) {
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, ErrFormat
		}
		v = v*10 + int(c-'0')
	}
	return v, nil
}

// daysIn mirrors time.Date's normalization boundary so the fast path
// rejects exactly the dates time.Parse would reject.
func daysIn(year, month int) int {
	switch month {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	}
	if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		return 29
	}
	return 28
}
