package wmslog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// header lines written at the top of every log file.
const (
	softwareHeader = "#Software: Synthetic Windows Media Server (repro of Veloso et al., IMC 2002)"
	versionHeader  = "#Version: 1.0"
)

// EntryWriter is the sink contract shared by the text Writer and the
// BinaryWriter: validate-and-append one entry, flush buffered bytes,
// report how many entries were written. SyncWriter and DailyWriter are
// generic over it, so every pipeline stage picks its on-disk format by
// constructor, not by code path.
type EntryWriter interface {
	Write(e *Entry) error
	Flush() error
	Count() int64
}

// Writer streams entries to a single io.Writer with the standard header.
type Writer struct {
	w           *bufio.Writer
	wroteHeader bool
	count       int64
	buf         []byte // per-writer scratch line, reused across entries
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
}

// Write validates and appends one entry. The entry is fully rendered
// before the call returns; Writer never retains it.
func (lw *Writer) Write(e *Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if !lw.wroteHeader {
		if err := lw.writeHeader(); err != nil {
			return err
		}
		lw.wroteHeader = true
	}
	lw.buf = AppendEntry(lw.buf[:0], e)
	return lw.writeLine(lw.buf)
}

// WriteLine appends one rendered line — AppendEntry's or AppendLine's
// bytes, without the newline — under the same header and count as
// Write. The line's fields are not checked again: a line carrying a
// newline, or none at all, is refused, since it would not be one line.
func (lw *Writer) WriteLine(line []byte) error {
	if len(line) == 0 || bytes.IndexByte(line, '\n') >= 0 {
		return fmt.Errorf("%w: a log line of %d bytes that is not one line", ErrFormat, len(line))
	}
	if !lw.wroteHeader {
		if err := lw.writeHeader(); err != nil {
			return err
		}
		lw.wroteHeader = true
	}
	return lw.writeLine(line)
}

// writeLine writes line and its newline and counts it.
func (lw *Writer) writeLine(line []byte) error {
	if _, err := lw.w.Write(line); err != nil {
		return fmt.Errorf("wmslog: write entry: %w", err)
	}
	if err := lw.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("wmslog: write entry: %w", err)
	}
	lw.count++
	return nil
}

func (lw *Writer) writeHeader() error {
	for _, line := range []string{
		softwareHeader,
		versionHeader,
		"#Fields: " + strings.Join(Fields, " "),
	} {
		if _, err := lw.w.WriteString(line + "\n"); err != nil {
			return fmt.Errorf("wmslog: write header: %w", err)
		}
	}
	return nil
}

// reset points the writer at w as if it were new — the header is
// written again before the next entry and the count restarts — keeping
// its buffers.
func (lw *Writer) reset(w io.Writer) {
	lw.w.Reset(w)
	lw.wroteHeader = false
	lw.count = 0
}

// Count returns the number of entries written.
func (lw *Writer) Count() int64 { return lw.count }

// Flush flushes buffered data to the underlying writer.
func (lw *Writer) Flush() error { return lw.w.Flush() }

// SyncWriter makes an EntryWriter safe for concurrent use — the form a
// live server's completion sink needs, where connection handlers finish
// (and log) concurrently. Each Write is atomic: entries never
// interleave within a record, though their order across writers is
// whatever the scheduler produced (entry timestamps, not file order,
// carry time).
type SyncWriter struct {
	mu sync.Mutex
	w  EntryWriter
}

// NewSyncWriter wraps w. The underlying writer must no longer be used
// directly.
func NewSyncWriter(w EntryWriter) *SyncWriter {
	return &SyncWriter{w: w}
}

// Write validates and appends one entry.
func (sw *SyncWriter) Write(e *Entry) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Write(e)
}

// Flush flushes buffered data to the underlying writer.
func (sw *SyncWriter) Flush() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Flush()
}

// Count returns the number of entries written.
func (sw *SyncWriter) Count() int64 {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Count()
}

// DailyWriter splits entries across one log file per calendar day,
// mirroring the paper's midnight log harvests ("Logs were harvested daily
// (at midnight)", Section 2.3). Files are named
// "wms-YYYY-MM-DD.log" inside Dir.
//
// Entries must be written in non-decreasing timestamp order; the writer
// rotates when an entry's date moves past the current file's date and
// rejects an entry whose date lies before it (re-opening the earlier
// day's file would truncate it). Order within a day is not checked.
//
// With Binary set, daily files carry the length-prefixed binary framing
// instead of text lines. Each file opens its own dictionary (a reader
// never needs cross-file state), and downstream readers auto-detect the
// format by magic bytes, so mixed text/binary directories merge fine.
//
// One text and one binary writer, each made at its first file, serve
// every day: a rotation points the writer at the new file, so a run of
// any length holds one 64 KB write buffer per format.
type DailyWriter struct {
	Dir    string
	Binary bool

	cur    *os.File
	curDay int // packed y*10000 + m*100 + d of the open file, 0 when none
	// [dayLo, dayHi) is the open file's calendar day as unix seconds in
	// dayLoc, so the per-entry day check decodes no calendar date.
	dayLo, dayHi int64
	dayLoc       *time.Location
	writer       EntryWriter   // the open file's: text or bin, nil when none
	text         *Writer       // reused across rotations once made
	bin          *BinaryWriter // reused across rotations once made
	files        []string
	entries      int64
}

// NewDailyWriter creates the directory if needed and returns a writer
// producing text daily files.
func NewDailyWriter(dir string) (*DailyWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wmslog: create log dir: %w", err)
	}
	return &DailyWriter{Dir: dir}, nil
}

// Write routes the entry to the file for its calendar day. The day
// check is two integer compares against the open day's unix-second
// window, so the hot path decodes no date — only an entry outside the
// window (once per simulated day) or in another location does.
func (dw *DailyWriter) Write(e *Entry) error {
	if err := dw.day(e.Timestamp); err != nil {
		return err
	}
	if err := dw.writer.Write(e); err != nil {
		return err
	}
	dw.entries++
	return nil
}

// WriteLine routes one rendered text line (Writer.WriteLine) stamped
// ts to the file for its calendar day, by Write's rotation, date-order,
// header and count rules. A binary DailyWriter refuses it: its files
// take entries.
func (dw *DailyWriter) WriteLine(ts time.Time, line []byte) error {
	if dw.Binary {
		return fmt.Errorf("%w: a text line written to a binary daily log", ErrFormat)
	}
	if err := dw.day(ts); err != nil {
		return err
	}
	if err := dw.text.WriteLine(line); err != nil {
		return err
	}
	dw.entries++
	return nil
}

// day makes the open file the one for ts's calendar day.
func (dw *DailyWriter) day(ts time.Time) error {
	if unix := ts.Unix(); unix < dw.dayLo || unix >= dw.dayHi || ts.Location() != dw.dayLoc {
		return dw.enterDay(ts)
	}
	return nil
}

// enterDay is Write's slow path: ts fell outside the cached window. It
// rotates to a later day, rejects an earlier one, and re-anchors the
// window when only the location changed within the open day.
func (dw *DailyWriter) enterDay(ts time.Time) error {
	y, m, d := ts.Date()
	day := y*10000 + int(m)*100 + d
	if dw.curDay != 0 && day < dw.curDay {
		return fmt.Errorf("%w: entry dated %s written after %s was opened: daily logs take non-decreasing dates",
			ErrFormat, ts.Format("2006-01-02"), filepath.Base(dw.files[len(dw.files)-1]))
	}
	if day != dw.curDay {
		if err := dw.rotate(day, ts); err != nil {
			return err
		}
	}
	loc := ts.Location()
	dw.dayLo = time.Date(y, m, d, 0, 0, 0, 0, loc).Unix()
	dw.dayHi = time.Date(y, m, d+1, 0, 0, 0, 0, loc).Unix()
	dw.dayLoc = loc
	return nil
}

func (dw *DailyWriter) rotate(day int, ts time.Time) error {
	if err := dw.closeCurrent(); err != nil {
		return err
	}
	name := filepath.Join(dw.Dir, "wms-"+ts.Format("2006-01-02")+".log")
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("wmslog: rotate to %s: %w", name, err)
	}
	dw.cur = f
	dw.curDay = day
	if dw.Binary {
		if dw.bin == nil {
			dw.bin = NewBinaryWriter(f)
		} else {
			dw.bin.reset(f)
		}
		dw.writer = dw.bin
	} else {
		if dw.text == nil {
			dw.text = NewWriter(f)
		} else {
			dw.text.reset(f)
		}
		dw.writer = dw.text
	}
	dw.files = append(dw.files, name)
	return nil
}

func (dw *DailyWriter) closeCurrent() error {
	if dw.cur == nil {
		return nil
	}
	if err := dw.writer.Flush(); err != nil {
		dw.cur.Close()
		return err
	}
	if err := dw.cur.Close(); err != nil {
		return fmt.Errorf("wmslog: close log file: %w", err)
	}
	dw.cur = nil
	dw.writer = nil
	return nil
}

// Close flushes and closes the current file.
func (dw *DailyWriter) Close() error { return dw.closeCurrent() }

// Files returns the paths of all files written so far, in creation order.
func (dw *DailyWriter) Files() []string {
	out := make([]string, len(dw.files))
	copy(out, dw.files)
	return out
}

// Entries returns the total number of entries written across all files.
func (dw *DailyWriter) Entries() int64 { return dw.entries } //lsm:keep -- the wmslog tests and bench_test.go's log fixture

// TraceEpoch is the default wall-clock instant of trace second 0:
// midnight, Sunday 2002-01-06 — "28 days in early 2002" starting on a
// Sunday, as in Figure 4 (left).
var TraceEpoch = time.Date(2002, time.January, 6, 0, 0, 0, 0, time.UTC)
