package wmslog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// ParseStats accumulates per-parse bookkeeping: how many lines were
// consumed, how many were comments/headers, and how many were malformed
// (and skipped, in tolerant mode). Binary records count as both a line
// and an entry, and additionally under Binary, so a mixed-format
// ReadFiles pass can report how much of its input took the fast
// framing.
type ParseStats struct {
	Lines     int
	Comments  int
	Entries   int
	Malformed int
	// Binary counts entries decoded from the binary framing.
	Binary int
	// Fallback counts text entries the canonical fast path refused and
	// the tolerant legacy splitter accepted (repeated whitespace, tabs,
	// a foreign float format).
	Fallback int
}

// parserMode is the detected stream format.
type parserMode int

const (
	modeUndetected parserMode = iota
	modeText
	modeBinary
)

// Parser reads entries from a single log stream, auto-detecting the
// format by magic bytes: a stream opening with the binary magic is
// decoded as framed binary records, anything else as the W3C-style
// text format. No flag ever selects the format — the bytes do.
//
// In strict mode (default) any malformed line aborts with an error
// identifying the line number. In tolerant mode malformed text lines
// are counted and skipped — the disposition a measurement pipeline
// needs for month-scale production logs. A line longer than
// maxLineBytes is one malformed line like any other: it is skipped to
// its newline without ever being buffered whole. Binary corruption is
// ALWAYS fatal, tolerant or not: the length-prefixed framing cannot be
// resynchronized after a bad record, so skipping would silently drop
// an unbounded tail. A truncated or corrupt binary file is a loud
// error and never emits a partial entry.
type Parser struct {
	Tolerant bool

	br      *bufio.Reader
	mode    parserMode
	in      *Interner   // text mode; nil (Next): every string field is a fresh allocation
	dict    *BinaryDict // binary mode
	spill   []byte      // a text line or binary record spanning br's window
	slab    []Entry     // Next: batch-allocated entries, handed out once each
	stats   ParseStats
	fields  []string // the #Fields header's columns when they are NOT Fields, else nil
	readErr error    // text mode: read error held back behind the final unterminated line
}

// maxLineBytes bounds one text line. Anything longer is not a log entry
// (a canonical line is ~150 bytes) but junk without a newline.
const maxLineBytes = 1 << 20

// NewParser wraps r.
func NewParser(r io.Reader) *Parser {
	return &Parser{br: bufio.NewReaderSize(r, 1<<16)}
}

// Stats returns the bookkeeping so far.
func (p *Parser) Stats() ParseStats { return p.stats }

// Add accumulates another stream's bookkeeping into s.
func (s *ParseStats) Add(o ParseStats) {
	s.Lines += o.Lines
	s.Comments += o.Comments
	s.Entries += o.Entries
	s.Malformed += o.Malformed
	s.Binary += o.Binary
	s.Fallback += o.Fallback
}

// detect sniffs the stream format from its first bytes. A stream too
// short to carry the magic is text (possibly empty).
func (p *Parser) detect() {
	prefix, _ := p.br.Peek(len(binaryMagic))
	if bytes.Equal(prefix, binaryMagic) {
		p.br.Discard(len(binaryMagic))
		p.mode = modeBinary
		p.dict = NewBinaryDict()
		return
	}
	p.mode = modeText
}

// Next returns the next entry, or io.EOF when the stream is exhausted.
// The entry is the caller's to keep: it comes from a batch-allocated
// slab, handed out exactly once, and scan decodes straight into it.
func (p *Parser) Next() (*Entry, error) {
	if len(p.slab) == 0 {
		p.slab = make([]Entry, 512)
	}
	e := &p.slab[0]
	if err := p.scan(e); err != nil {
		return nil, err
	}
	p.slab = p.slab[1:]
	return e, nil
}

// scan decodes the next record into *e, overwriting every field, or
// returns io.EOF when the stream is exhausted. It is the one parse loop
// behind Next, Scan, ReadAll and ReadFiles. After an error *e holds
// garbage.
//
// Text data lines go through the parseAppend fast path first — the
// strict canonical format the encoder emits, decoded without scratch
// allocations — and only fall back to the tolerant legacy column
// splitter (repeated whitespace, arbitrary float formats) when the
// fast path rejects them. Binary streams decode record by record
// through ParseBinary.
//
//lsm:hotpath
func (p *Parser) scan(e *Entry) error {
	if p.mode == modeUndetected {
		p.detect()
	}
	if p.mode == modeBinary {
		return p.scanBinary(e)
	}
	for {
		line, tooLong, err := p.readLine()
		if err != nil {
			return err
		}
		p.stats.Lines++
		if tooLong {
			err = errLineTooLong
		} else {
			raw := bytes.TrimSpace(line)
			if len(raw) == 0 {
				p.stats.Comments++
				continue
			}
			if raw[0] == '#' {
				p.stats.Comments++
				p.header(raw)
				continue
			}
			if err = p.parseData(e, raw); err == nil {
				p.stats.Entries++
				return nil
			}
		}
		p.stats.Malformed++
		if !p.Tolerant {
			return errAtLine(p.stats.Lines, err)
		}
	}
}

var errLineTooLong = fmt.Errorf("%w: line longer than %d bytes", ErrFormat, maxLineBytes)

func errAtLine(n int, err error) error { return fmt.Errorf("line %d: %w", n, err) }

func errRead(err error) error { return fmt.Errorf("wmslog: scan: %w", err) }

// header records a "#Fields:" directive. The column set is compared
// here, once per header, not once per data line: fields stays nil
// while the columns are the canonical ones.
func (p *Parser) header(raw []byte) {
	rest, ok := bytes.CutPrefix(raw, []byte("#Fields:"))
	if !ok {
		return
	}
	p.fields = strings.Fields(string(rest))
	if slices.Equal(p.fields, Fields) {
		p.fields = nil
	}
}

// readLine returns the next text line, newline included if it had one.
// The slice is only valid until the next read. A line that outgrows
// br's window is assembled in spill; once it outgrows maxLineBytes too
// it is no longer buffered, only skipped to its newline, and reported
// as tooLong. A read error is held back until the bytes before it have
// been delivered as a final line, as bufio.Scanner does.
//
//lsm:hotpath
func (p *Parser) readLine() (line []byte, tooLong bool, err error) {
	if p.readErr != nil {
		return nil, false, p.readErr
	}
	line, err = p.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		p.spill = append(p.spill[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = p.br.ReadSlice('\n')
			if len(p.spill)+len(line) > maxLineBytes {
				tooLong = true
			}
			if !tooLong {
				p.spill = append(p.spill, line...)
			}
		}
		line = p.spill
	}
	if err != nil {
		if err != io.EOF {
			err = errRead(err)
		}
		if len(line) == 0 {
			return nil, false, err
		}
		p.readErr = err
	}
	return line, tooLong, nil
}

// scanBinary decodes one length-prefixed binary record. Any framing or
// decode error is fatal regardless of Tolerant: after a bad record the
// stream offset is unknowable, so there is nothing to skip to.
//
// The common case decodes in place: the record is Peeked out of the
// bufio window and Discarded after the parse (ParseBinary never
// retains the payload — inline strings are copied at interning), so no
// bytes move. Only a record spanning the window boundary is copied out
// through spill.
func (p *Parser) scanBinary(e *Entry) error {
	n, err := binary.ReadUvarint(p.br)
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return fmt.Errorf("wmslog: binary record %d: length prefix: %w", p.stats.Lines+1, err)
	}
	if n == 0 || n > maxBinaryRecord {
		return fmt.Errorf("wmslog: binary record %d: %w: record length %d", p.stats.Lines+1, ErrFormat, n)
	}
	rec, perr := p.br.Peek(int(n))
	if perr != nil {
		// Record spans the buffered window (or the stream is short):
		// copy it out. ReadFull consumes what Peek only looked at.
		if uint64(cap(p.spill)) < n {
			p.spill = make([]byte, n)
		}
		rec = p.spill[:n]
		if _, err := io.ReadFull(p.br, rec); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return fmt.Errorf("wmslog: binary record %d: truncated: want %d payload bytes: %w", p.stats.Lines+1, n, io.ErrUnexpectedEOF)
			}
			return fmt.Errorf("wmslog: binary record %d: %w", p.stats.Lines+1, err)
		}
	}
	if err := ParseBinary(e, rec, p.dict); err != nil {
		return fmt.Errorf("wmslog: binary record %d: %w", p.stats.Lines+1, err)
	}
	if perr == nil {
		p.br.Discard(int(n))
	}
	p.stats.Lines++
	p.stats.Entries++
	p.stats.Binary++
	return nil
}

// parseData decodes one data line into *e: canonical fast path, then
// the tolerant legacy splitter.
func (p *Parser) parseData(e *Entry, raw []byte) error {
	if p.fields != nil {
		return fmt.Errorf("%w: unsupported field set %v", ErrFormat, p.fields)
	}
	if err := parseAppend(e, raw, p.in); err == nil {
		return nil
	}
	if err := p.parseLine(e, string(raw)); err != nil {
		return err
	}
	p.stats.Fallback++
	return nil
}

// parseLine decodes one data line according to the canonical Fields
// order with the tolerant legacy splitter. The columns alias line, so
// the retained ones go through the interner (which clones on first
// sight) rather than pinning the whole line per entry.
func (p *Parser) parseLine(e *Entry, line string) error {
	cols := strings.Fields(line)
	if len(cols) != len(Fields) {
		return fmt.Errorf("%w: %d columns, want %d", ErrFormat, len(cols), len(Fields))
	}
	ts, err := time.Parse("2006-01-02 15:04:05", cols[0]+" "+cols[1])
	if err != nil {
		return fmt.Errorf("%w: timestamp %q %q: %v", ErrFormat, cols[0], cols[1], err)
	}
	*e = Entry{
		Timestamp: ts,
		ClientIP:  p.in.internString(ColIP, cols[2]),
		PlayerID:  p.in.internString(ColPlayer, cols[3]),
		ClientOS:  p.in.internString(colOS, undash(cols[4])),
		ClientCPU: p.in.internString(colCPU, undash(cols[5])),
		URIStem:   p.in.internString(ColURI, cols[6]),
		Referer:   strings.Clone(undash(cols[12])),
		Country:   p.in.internString(ColCountry, undash(cols[15])),
	}
	if e.Duration, err = parseInt(cols[7], "x-duration"); err != nil {
		return err
	}
	if e.Bytes, err = parseInt(cols[8], "sc-bytes"); err != nil {
		return err
	}
	if e.AvgBandwidth, err = parseInt(cols[9], "avgbandwidth"); err != nil {
		return err
	}
	if e.PacketsLost, err = parseInt(cols[10], "c-pkts-lost"); err != nil {
		return err
	}
	if e.ServerCPU, err = strconv.ParseFloat(cols[11], 64); err != nil {
		return fmt.Errorf("%w: s-cpu-util %q", ErrFormat, cols[11])
	}
	if e.ServerCPU == 0 {
		e.ServerCPU = 0 // a foreign "-0.00" reads as 0, as on the fast path
	}
	if e.Status, err = strconv.Atoi(cols[13]); err != nil {
		return fmt.Errorf("%w: sc-status %q", ErrFormat, cols[13])
	}
	if e.ASNumber, err = strconv.Atoi(cols[14]); err != nil {
		return fmt.Errorf("%w: s-as %q", ErrFormat, cols[14])
	}
	return e.Validate()
}

func parseInt(s, field string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s %q", ErrFormat, field, s)
	}
	return v, nil
}
