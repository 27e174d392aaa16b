// Package wmslog implements a Windows-Media-Server-style access log: the
// on-disk substrate the paper's trace arrived in (Section 2.3).
//
// Each log entry records one client/server request/response pair, written
// when the transfer completes, and carries the seven field groups the
// paper enumerates: client identification (IP, player ID), client
// environment (OS, CPU), requested object (URI), transfer statistics
// (duration, bytes, average bandwidth, packet loss), server load (CPU
// utilization), other metadata (referer, protocol status), and a
// 1-second-resolution timestamp.
//
// The format is a W3C-extended-style space-separated text file with a
// "#Fields:" header, one entry per line, harvested into one file per day
// at midnight — matching the paper's daily log harvests.
package wmslog

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrFormat reports a malformed log line or header.
var ErrFormat = errors.New("wmslog: malformed log data")

// Fields is the canonical column list written in the "#Fields:" header.
// Order matters: Entry encoding and decoding follow it.
var Fields = []string{
	"date",         // YYYY-MM-DD of entry generation
	"time",         // HH:MM:SS of entry generation (1-second resolution)
	"c-ip",         // client IP address
	"c-playerid",   // unique player (client software) ID
	"c-os",         // client operating system
	"c-cpu",        // client CPU class
	"cs-uri-stem",  // requested live object URI
	"x-duration",   // transfer length in seconds
	"sc-bytes",     // bytes served for the transfer
	"avgbandwidth", // average transfer bandwidth in bits/second
	"c-pkts-lost",  // packets lost client-side
	"s-cpu-util",   // server CPU utilization percentage at log time
	"cs(Referer)",  // referer URI
	"sc-status",    // protocol status code
	"s-as",         // origin AS number of the client (resolved offline)
	"s-country",    // origin country of the client (resolved offline)
}

// Entry is one access-log record. Timestamps are wall-clock; the trace
// layer converts them to seconds since trace start.
type Entry struct {
	Timestamp    time.Time // when the entry was generated (transfer end)
	ClientIP     string
	PlayerID     string // unique client software identifier
	ClientOS     string
	ClientCPU    string
	URIStem      string // requested live object, e.g. "/live/feed1"
	Duration     int64  // transfer length in whole seconds
	Bytes        int64  // bytes served
	AvgBandwidth int64  // bits per second
	PacketsLost  int64
	ServerCPU    float64 // server CPU utilization percent
	Referer      string
	Status       int
	ASNumber     int
	Country      string
}

// Validate performs structural sanity checks on an entry before writing.
func (e *Entry) Validate() error {
	if e.ClientIP == "" || !stringSafe(e.ClientIP) {
		return fmt.Errorf("%w: bad client IP %q", ErrFormat, e.ClientIP)
	}
	if e.PlayerID == "" || !stringSafe(e.PlayerID) {
		return fmt.Errorf("%w: bad player ID %q", ErrFormat, e.PlayerID)
	}
	if e.URIStem == "" || !stringSafe(e.URIStem) {
		return fmt.Errorf("%w: bad URI %q", ErrFormat, e.URIStem)
	}
	if !optionalSafe(e.ClientOS) || !optionalSafe(e.ClientCPU) || !optionalSafe(e.Referer) || !optionalSafe(e.Country) {
		return fmt.Errorf("%w: a separator other than space in c-os %q, c-cpu %q, cs(Referer) %q or s-country %q",
			ErrFormat, e.ClientOS, e.ClientCPU, e.Referer, e.Country)
	}
	return e.validateValues()
}

// validateValues is Validate without the rules for the text fields —
// the check of a line the decoder split, whose columns satisfy those
// rules by construction.
func (e *Entry) validateValues() error {
	return checkValues(e.Timestamp, e.Duration, e.Bytes, e.AvgBandwidth, e.PacketsLost, e.ServerCPU, e.Status, e.ASNumber)
}

// checkValues is the rule for a log line's timestamp and numeric
// fields, wherever a caller holds them: an Entry's and a Line's
// Validate both apply it to their own fields.
func checkValues(ts time.Time, duration, bytes, bandwidth, lost int64, cpu float64, status, as int) error {
	if ts.IsZero() {
		return fmt.Errorf("%w: zero timestamp", ErrFormat)
	}
	if duration < 0 {
		return fmt.Errorf("%w: negative duration %d", ErrFormat, duration)
	}
	if bytes < 0 || bandwidth < 0 || lost < 0 {
		return fmt.Errorf("%w: negative transfer statistics", ErrFormat)
	}
	// The sign bit, not "< 0": −0 prints as "-0.00", reads back as 0 and
	// re-encodes as "0.00" — a line that is not its own round trip. And
	// "!(cpu <= 100)", not "cpu > 100": a NaN has no binary encoding.
	if math.Signbit(cpu) || !(cpu <= 100) {
		return fmt.Errorf("%w: server CPU %v out of [0,100]", ErrFormat, cpu)
	}
	if status < 0 {
		return fmt.Errorf("%w: negative status %d", ErrFormat, status)
	}
	// AS numbers are 32-bit (RFC 6793); one unsigned compare turns away
	// the negatives with the oversized.
	if uint64(as) > math.MaxUint32 {
		return fmt.Errorf("%w: AS number %d out of [0, 2^32)", ErrFormat, as)
	}
	return nil
}

// isSpace reports whether c separates the columns of a log line: ASCII
// whitespace, that is space, \t, \v, \f, \r — and \n, which ends the
// line before the column splitter sees it. Every other byte is column
// content. It is the one rule the decoder splits by and the writers
// check by (stringSafe, optionalSafe).
func isSpace(c byte) bool { return c == ' ' || c-'\t' < 5 }

// stringSafe is the charset rule of the mandatory text fields, which
// are written verbatim: no separator byte (isSpace). One byte loop
// instead of strings.ContainsAny, which builds an ASCII set per call —
// Validate runs on every entry written.
func stringSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		if isSpace(s[i]) {
			return false
		}
	}
	return true
}

// optionalSafe is the charset rule of the optional, dash-encoded text
// fields: no separator byte but the space, which is written as an
// underscore. Any other would split the line, which a tolerant scan
// then drops without an error.
func optionalSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != ' ' && isSpace(c) {
			return false
		}
	}
	return true
}

// Start returns the transfer start time (Timestamp minus Duration).
//
//lsm:keep -- wmslog_test.go checks a parsed entry's start with it
func (e *Entry) Start() time.Time {
	return e.Timestamp.Add(-time.Duration(e.Duration) * time.Second)
}
