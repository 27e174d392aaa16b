package wmslog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// ParseStats accumulates per-parse bookkeeping: how many lines were
// consumed, how many were comments/headers (blank lines included), how
// many were entries and how many were malformed (and skipped, in
// tolerant mode). Every text data line goes through the one decoder,
// so a line is either an entry or malformed. Binary records count as
// both a line and an entry, and additionally under Binary, so a
// mixed-format ReadFiles pass can report how much of its input took
// the binary framing.
type ParseStats struct {
	Lines     int
	Comments  int
	Entries   int
	Malformed int
	// Binary counts entries decoded from the binary framing.
	Binary int
}

// parserMode is the detected stream format.
type parserMode int

const (
	modeUndetected parserMode = iota
	modeText
	modeBinary
)

// parser reads entries from a single log stream, auto-detecting the
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
type parser struct {
	tolerant bool

	br      *bufio.Reader
	mode    parserMode
	in      *Interner   // text mode; nil: every string field is the reused entry's or a fresh allocation
	dict    *BinaryDict // binary mode
	spill   []byte      // a text line or binary record spanning br's window
	stats   ParseStats
	fields  []string // the #Fields header's columns when they are NOT Fields, else nil
	readErr error    // text mode: read error held back behind the final unterminated line
}

// maxLineBytes bounds one text line. Anything longer is not a log entry
// (a canonical line is ~150 bytes) but junk without a newline.
const maxLineBytes = 1 << 20

// newParser wraps r.
func newParser(r io.Reader, tolerant bool, in *Interner) *parser {
	return &parser{br: bufio.NewReaderSize(r, 1<<16), tolerant: tolerant, in: in}
}

// Add accumulates another stream's bookkeeping into s.
func (s *ParseStats) Add(o ParseStats) {
	s.Lines += o.Lines
	s.Comments += o.Comments
	s.Entries += o.Entries
	s.Malformed += o.Malformed
	s.Binary += o.Binary
}

// detect sniffs the stream format from its first bytes. A stream too
// short to carry the magic is text (possibly empty).
func (p *parser) detect() {
	prefix, _ := p.br.Peek(len(binaryMagic))
	if bytes.Equal(prefix, binaryMagic) {
		p.br.Discard(len(binaryMagic))
		p.mode = modeBinary
		p.dict = NewBinaryDict()
		return
	}
	p.mode = modeText
}

// scan decodes the next record into *e, overwriting every field, or
// returns io.EOF when the stream is exhausted. It is the one parse loop
// behind Scan, and so behind ScanFile, ReadAll and ReadFiles. After an
// error *e holds garbage.
//
// Text data lines are decoded by parseAppend, the one text decoder
// (see ParseAppend for the column rule); binary streams decode record
// by record through ParseBinary.
//
//lsm:hotpath
func (p *parser) scan(e *Entry) error {
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
			raw := trimSpace(line)
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
		if !p.tolerant {
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
func (p *parser) header(raw []byte) {
	rest, ok := bytes.CutPrefix(raw, []byte("#Fields:"))
	if !ok {
		return
	}
	p.fields = []string{} // non-nil: an empty column set is not the canonical one
	cols := fieldSplitter{line: rest}
	for col, ok := cols.next(); ok; col, ok = cols.next() {
		p.fields = append(p.fields, string(col))
	}
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
func (p *parser) readLine() (line []byte, tooLong bool, err error) {
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
// decode error is fatal regardless of tolerant: after a bad record the
// stream offset is unknowable, so there is nothing to skip to.
//
// The common case decodes in place: the record is Peeked out of the
// bufio window and Discarded after the parse (ParseBinary never
// retains the payload — inline strings are copied at interning), so no
// bytes move. Only a record spanning the window boundary is copied out
// through spill.
func (p *parser) scanBinary(e *Entry) error {
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
	p.in.drop(e)
	if perr == nil {
		p.br.Discard(int(n))
	}
	p.stats.Lines++
	p.stats.Entries++
	p.stats.Binary++
	return nil
}

// parseData decodes one data line under the canonical #Fields header.
func (p *parser) parseData(e *Entry, raw []byte) error {
	if p.fields != nil {
		return fmt.Errorf("%w: unsupported field set %v", ErrFormat, p.fields)
	}
	return parseAppend(e, raw, p.in)
}
