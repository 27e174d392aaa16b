package wmslog

import (
	"fmt"
	"strconv"
	"time"
)

// Field is a text column of a Line in its log form, checked when it is
// made rather than on every line that carries it: a generator holds a
// handful of distinct values per column (OS, CPU, referer, country, one
// URI per object) and renders millions of lines from them. The zero
// Field is an absent optional value, rendered "-".
type Field struct{ s string }

// MandatoryField checks s against the rule Entry.Validate applies to
// c-ip, c-playerid and cs-uri-stem — non-empty, no separator byte
// (space, \t, \n, \v, \f, \r) — and returns it as a Field. It is the
// test anything bound for one of those columns can be put to, a live
// client's player ID included.
func MandatoryField(s string) (Field, error) {
	if s == "" || !stringSafe(s) {
		return Field{}, fmt.Errorf("%w: bad mandatory field %q", ErrFormat, s)
	}
	return Field{s}, nil
}

// OptionalField checks s against the rule Entry.Validate applies to
// c-os, c-cpu, cs(Referer) and s-country — no separator byte but the
// space — and returns it dash-encoded, as AppendEntry renders it: "-" for the
// empty string, spaces as underscores.
func OptionalField(s string) (Field, error) {
	if !optionalSafe(s) {
		return Field{}, fmt.Errorf("%w: bad optional field %q", ErrFormat, s)
	}
	if s == "" {
		return Field{}, nil
	}
	return Field{string(appendDashField(nil, s))}, nil
}

// Line is one log line as a generator holds it when it writes it: the
// timestamp and every count as numbers, the client's identity as the
// bytes the generator rendered, and each table column as a Field.
// AppendLine renders it to exactly the bytes AppendEntry renders for the
// equivalent Entry — the one whose text fields are the values the
// Fields were made from.
//
// Validate checks what the Fields cannot: the numeric fields, by
// Entry.Validate's rules, and a present cs-uri-stem. ClientIP and
// PlayerID are the caller's to keep non-empty and free of separator
// bytes (MandatoryField's rule); a generator renders them from numbers (digits and dots,
// "player-" and digits), so they hold that by construction.
type Line struct {
	Timestamp    time.Time
	ClientIP     []byte
	PlayerID     []byte
	ClientOS     Field
	ClientCPU    Field
	URIStem      Field // made by MandatoryField
	Duration     int64
	Bytes        int64
	AvgBandwidth int64
	PacketsLost  int64
	ServerCPU    float64
	Referer      Field
	Status       int
	ASNumber     int
	Country      Field
}

// Validate checks l's numeric fields by Entry.Validate's rule for them
// (checkValues, on l's own fields), and that it names a URI.
func (l *Line) Validate() error {
	if l.URIStem.s == "" {
		return fmt.Errorf("%w: missing URI", ErrFormat)
	}
	return checkValues(l.Timestamp, l.Duration, l.Bytes, l.AvgBandwidth, l.PacketsLost, l.ServerCPU, l.Status, l.ASNumber)
}

// AppendLine appends l rendered as one log line (no trailing newline)
// to b and returns the extended slice: AppendEntry's encoder with every
// text field already in its log form, so each is one copy.
//
//lsm:hotpath
func AppendLine(b []byte, l *Line) []byte {
	b = appendTimestamp(b, l.Timestamp)
	b = append(b, ' ')
	b = append(b, l.ClientIP...)
	b = append(b, ' ')
	b = append(b, l.PlayerID...)
	b = append(b, ' ')
	b = appendField(b, l.ClientOS)
	b = append(b, ' ')
	b = appendField(b, l.ClientCPU)
	b = append(b, ' ')
	b = appendField(b, l.URIStem)
	b = append(b, ' ')
	b = strconv.AppendInt(b, l.Duration, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, l.Bytes, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, l.AvgBandwidth, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, l.PacketsLost, 10)
	b = append(b, ' ')
	b = appendFixed2(b, l.ServerCPU)
	b = append(b, ' ')
	b = appendField(b, l.Referer)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(l.Status), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(l.ASNumber), 10)
	b = append(b, ' ')
	return appendField(b, l.Country)
}

// appendField copies f's log form.
func appendField(b []byte, f Field) []byte {
	if f.s == "" {
		return append(b, '-')
	}
	return append(b, f.s...)
}
