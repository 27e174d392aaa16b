package wmslog

import (
	"fmt"
	"io"
	"slices"
)

// Scan decodes every record of r — text or framed binary, detected by
// magic bytes exactly as Parser does — into ONE reused Entry and hands
// it to fn, record by record. It is the allocation-free way to consume
// a log: nothing is materialized, and the entry's string fields are
// canonical instances — owned by in (when non-nil) for a text log, by
// the file's dictionary for a binary one.
//
// The entry-reuse contract: *e is overwritten by the next record, so fn
// must not retain the pointer (lsmvet's entryretain analyzer checks
// scan callbacks like any other *Entry sink). Copying the value
// (cp := *e) is always safe, and so is keeping any of its strings:
// strings are immutable, and a string field is never rewritten in
// place.
//
// Tolerant and strict mode, ParseStats and errors are Parser's; an
// error returned by fn stops the scan and is returned as is.
//
//lsm:hotpath
func Scan(r io.Reader, tolerant bool, in *Interner, fn func(*Entry) error) (ParseStats, error) {
	p := NewParser(r)
	p.Tolerant = tolerant
	p.in = in
	var e Entry
	for {
		err := p.scan(&e)
		if err == io.EOF {
			return p.stats, nil
		}
		if err != nil {
			return p.stats, err
		}
		if err := fn(&e); err != nil {
			return p.stats, err
		}
	}
}

// ScanFile is Scan over one log file, ".gz" transparently decompressed.
// A parse error names the file.
func ScanFile(path string, tolerant bool, in *Interner, fn func(*Entry) error) (ParseStats, error) {
	r, closer, err := openLog(path)
	if err != nil {
		return ParseStats{}, err
	}
	defer closer.Close()
	st, err := Scan(r, tolerant, in, fn)
	if err != nil {
		return st, fmt.Errorf("wmslog: parse %s: %w", path, err)
	}
	return st, nil
}

// collector is the materializing scan callback behind ReadAll and
// ReadFiles: it clones each scanned entry into a batch-allocated slab
// (one allocation per 512 entries) and keeps the clone.
type collector struct {
	out  []*Entry
	slab []Entry
}

// add clones *e. This is the one place a scanned entry outlives its
// callback, and it does so as a value copy: the pointer kept is the
// slab's, never the scan's.
//
//lsm:retain -- keeps &slab[0], a clone of *e; the reused scan entry itself is not retained
func (c *collector) add(e *Entry) error {
	if len(c.slab) == 0 {
		c.slab = make([]Entry, 512)
	}
	c.slab[0] = *e
	c.out = append(c.out, &c.slab[0])
	c.slab = c.slab[1:]
	return nil
}

// ReadAll parses every entry from r, in tolerant or strict mode.
func ReadAll(r io.Reader, tolerant bool) ([]*Entry, ParseStats, error) {
	var c collector
	st, err := Scan(r, tolerant, NewInterner(), c.add)
	return c.out, st, err
}

// ReadFiles parses a set of daily log files (in name order, which is date
// order for DailyWriter output) and concatenates their entries.
func ReadFiles(paths []string, tolerant bool) ([]*Entry, ParseStats, error) {
	var c collector
	var total ParseStats
	in := NewInterner()
	for _, path := range slices.Sorted(slices.Values(paths)) {
		st, err := ScanFile(path, tolerant, in, c.add)
		total.Add(st)
		if err != nil {
			return c.out, total, err
		}
	}
	return c.out, total, nil
}
