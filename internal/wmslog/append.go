package wmslog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"time"
)

// AppendEntry appends e rendered as one log line (no trailing newline)
// to b and returns the extended slice. The output is byte-identical to
// the fmt.Fprintf encoder it replaced for every valid entry — the
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
// parser's fixed2 produces and every math.Round(x*100)/100 the
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
// does — the encode twin of fixed2: integer digits when exactCenti
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
// separator-free) verbatim.
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

// ParseAppend is the decoding twin of AppendEntry and the one text
// decoder: it parses one data line in Fields order into *e,
// overwriting every field. Columns are separated by runs of ASCII
// whitespace — space, \t, \v, \f and \r (isSpace) — and hold every
// other byte, control bytes and non-ASCII UTF-8 included, which is
// exactly what Entry.Validate lets a writer put in a field. An
// s-cpu-util not in AppendEntry's fixed-2 form is read by
// strconv.ParseFloat. It allocates only the retained string fields —
// timestamps and all numeric columns are decoded in place, with no
// scratch split or sub-string slices.
//
// The line must not include the trailing newline.
//
//lsm:keep -- wmslog's round-trip and fuzz tests, and BenchmarkStreamingParseEntry
func ParseAppend(e *Entry, line []byte) error {
	return parseAppend(e, line, nil)
}

// parseAppend is ParseAppend with the string fields drawn from in: a
// field that repeats the value *e already holds (the previous record
// of a reused entry) or one the interner knows costs no allocation, so
// a scan over a real log allocates per distinct c-os, c-cpu, URI and
// country. c-ip, c-playerid and Referer take only the first shortcut.
// A deferred interner takes c-ip and
// c-playerid as bytes instead and leaves c-os, c-cpu and cs(Referer)
// empty, their columns checked but made into no string — see Interner.
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
	in.identity(e, ip, pid)
	drop := in.drops()
	if e.ClientOS, ok = cols.nextOptional(drop, in, colOS, e.ClientOS); !ok {
		return errMissing("c-os")
	}
	if e.ClientCPU, ok = cols.nextOptional(drop, in, colCPU, e.ClientCPU); !ok {
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
	if e.ServerCPU, err = cols.nextCPU(); err != nil {
		return err
	}
	if e.Referer, ok = cols.nextOptional(drop, nil, 0, e.Referer); !ok {
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
	// The splitter hands out only non-empty runs of non-separator
	// bytes, so the text fields pass Validate's charset rules by
	// construction — c-ip and c-playerid included where deferred mode
	// never made them strings.
	return e.validateValues()
}

// The decoder's error constructors live outside the //lsm:hotpath
// decoder body: they run only on malformed input.

func errTruncated() error { return fmt.Errorf("%w: truncated line", ErrFormat) }

func errMissing(field string) error { return fmt.Errorf("%w: missing %s", ErrFormat, field) }

func errTrailing() error { return fmt.Errorf("%w: trailing columns", ErrFormat) }

// fieldSplitter walks columns separated by runs of isSpace bytes
// without allocating.
type fieldSplitter struct {
	line []byte
	pos  int
}

// next returns the column at pos, after any separators, or false at
// the end of the line.
//
// A column followed by one space or by the end of the line — every
// column of a line AppendEntry wrote — is scanned 8 bytes a step for
// its first byte ≤ 0x20: in m = (x − 0x21…21) &^ x & 0x80…80 the lowest
// set bit marks it. Every byte below it is above 0x20, so its
// subtraction borrows nothing; a byte 0x21..0x7f then leaves
// 0x00..0x5e, and a byte ≥ 0x80 has its bit cleared by &^ x, so neither
// sets a bit of m; the first byte ≤ 0x20 borrows, which sets its bit,
// and keeps it through &^ x. A bit above it may be a borrow's artefact,
// and is never read. The last < 8 bytes take the byte loop. Any other
// stop — a run of separators, a control byte, which is column content
// — hands the column to nextSlow.
//
//lsm:hotpath
func (f *fieldSplitter) next() ([]byte, bool) {
	line, start := f.line, f.pos
	const ones, highs = 0x2121212121212121, 0x8080808080808080
	i := start
	for ; i+8 <= len(line); i += 8 {
		x := binary.LittleEndian.Uint64(line[i:])
		if m := (x - ones) &^ x & highs; m != 0 {
			i += bits.TrailingZeros64(m) >> 3
			break
		}
	}
	for i < len(line) && line[i] > ' ' {
		i++
	}
	if i == len(line) {
		f.pos = i
		return line[start:i], i > start
	}
	if i == start || line[i] != ' ' {
		return f.nextSlow(start)
	}
	f.pos = i + 1 // skip the single separator
	return line[start:i], true
}

// nextSlow is next one byte a step: skip the separators at i, then take
// every byte up to the next separator.
func (f *fieldSplitter) nextSlow(i int) ([]byte, bool) {
	line := f.line
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	start := i
	for i < len(line) && !isSpace(line[i]) {
		i++
	}
	f.pos = i
	return line[start:i], i > start
}

// done reports whether only separators are left.
func (f *fieldSplitter) done() bool {
	_, more := f.nextSlow(f.pos)
	return !more
}

// trimSpace returns b without its leading and trailing separators
// (isSpace). Unlike bytes.TrimSpace it leaves non-ASCII whitespace,
// which is column content, where it is.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// nextOptional reads a dash-encoded optional column: with drop, as
// empty — the column checked, no string made — and as nextUndashed
// reads it otherwise.
func (f *fieldSplitter) nextOptional(drop bool, in *Interner, c Column, prev string) (string, bool) {
	if drop {
		_, ok := f.next()
		return "", ok
	}
	return f.nextUndashed(in, c, prev)
}

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

// nextCPU parses s-cpu-util: the fixed 2-decimal form the encoder
// emits ("%.2f") through fixed2, anything else through
// strconv.ParseFloat. A −0 reads as +0, which is what it prints as.
func (f *fieldSplitter) nextCPU() (float64, error) {
	col, ok := f.next()
	if !ok {
		return 0, errMissing("s-cpu-util")
	}
	if v, ok := fixed2(col); ok {
		return v, nil
	}
	v, err := strconv.ParseFloat(string(col), 64)
	if err != nil {
		return 0, fmt.Errorf("%w: s-cpu-util %q", ErrFormat, col)
	}
	if v == 0 {
		v = 0 // −0
	}
	return v, nil
}

// fixed2 parses col when it is in the fixed 2-decimal form within
// exact centi-unit range. The value is computed as one
// correctly-rounded division of exact integers, so it is bit-identical
// to what strconv.ParseFloat returns for the same text.
func fixed2(col []byte) (float64, bool) {
	if len(col) < 4 || col[len(col)-3] != '.' {
		return 0, false
	}
	whole, err := atoi64(col[:len(col)-3])
	if err != nil {
		return 0, false
	}
	d1, d2 := col[len(col)-2], col[len(col)-1]
	if d1 < '0' || d1 > '9' || d2 < '0' || d2 > '9' {
		return 0, false
	}
	const maxExact = (1 << 53) / 100 // centi-units stay exactly representable
	if whole > maxExact || whole < -maxExact {
		return 0, false
	}
	centi := whole*100 + int64(int(d1-'0')*10+int(d2-'0'))
	if col[0] == '-' {
		centi = whole*100 - int64(int(d1-'0')*10+int(d2-'0'))
	}
	return float64(centi) / 100, true
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

// daysIn mirrors time.Date's normalization boundary so the decoder
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
