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
	"strings"
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
	if e.Timestamp.IsZero() {
		return fmt.Errorf("%w: zero timestamp", ErrFormat)
	}
	if e.ClientIP == "" || !stringSafe(e.ClientIP) {
		return fmt.Errorf("%w: bad client IP %q", ErrFormat, e.ClientIP)
	}
	if e.PlayerID == "" || !stringSafe(e.PlayerID) {
		return fmt.Errorf("%w: bad player ID %q", ErrFormat, e.PlayerID)
	}
	if e.URIStem == "" || !stringSafe(e.URIStem) {
		return fmt.Errorf("%w: bad URI %q", ErrFormat, e.URIStem)
	}
	if e.Duration < 0 {
		return fmt.Errorf("%w: negative duration %d", ErrFormat, e.Duration)
	}
	if e.Bytes < 0 || e.AvgBandwidth < 0 || e.PacketsLost < 0 {
		return fmt.Errorf("%w: negative transfer statistics", ErrFormat)
	}
	// The sign bit, not "< 0": −0 prints as "-0.00", reads back as 0 and
	// re-encodes as "0.00" — a line that is not its own round trip.
	if math.Signbit(e.ServerCPU) || e.ServerCPU > 100 {
		return fmt.Errorf("%w: server CPU %v out of [0,100]", ErrFormat, e.ServerCPU)
	}
	if e.Status < 0 {
		return fmt.Errorf("%w: negative status %d", ErrFormat, e.Status)
	}
	// AS numbers are 32-bit (RFC 6793); one unsigned compare turns away
	// the negatives with the oversized.
	if uint64(e.ASNumber) > math.MaxUint32 {
		return fmt.Errorf("%w: AS number %d out of [0, 2^32)", ErrFormat, e.ASNumber)
	}
	return nil
}

// stringSafe is the charset rule of the mandatory text fields: no space,
// tab or newline, the bytes that would break the space-separated line.
// One byte loop instead of strings.ContainsAny, which builds an ASCII
// set per call — Validate runs on every entry written and every line
// parsed.
func stringSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n':
			return false
		}
	}
	return true
}

// Start returns the transfer start time (Timestamp minus Duration).
func (e *Entry) Start() time.Time {
	return e.Timestamp.Add(-time.Duration(e.Duration) * time.Second)
}

func undash(s string) string {
	if s == "-" {
		return ""
	}
	return strings.ReplaceAll(s, "_", " ")
}
