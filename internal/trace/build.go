package trace

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wmslog"
)

// builder turns log entries into transfers, one add per entry, and is
// the one trace-build loop behind FromEntries and FromLogs. Client and
// object identities are densified: player IDs and URI stems are mapped
// to consecutive integers in first-seen order, and the builder keeps
// the id → name tables so that builders fed disjoint runs of one log
// can be merged into the numbering a single builder would have handed
// out (see merge).
//
// add copies what it needs out of the entry — numbers by value, strings
// by reference — which is all the scan's entry-reuse contract allows a
// wmslog.Scan callback to keep.
type builder struct {
	epoch     time.Time
	clients   idTable
	objects   idTable
	transfers []Transfer
}

// idTable numbers distinct names 0, 1, 2, … in first-seen order.
type idTable struct {
	ids   map[string]int
	names []string
}

//lsm:hotpath
func (t *idTable) id(name string) int {
	id, ok := t.ids[name]
	if !ok {
		id = len(t.names)
		t.ids[name] = id
		t.names = append(t.names, name)
	}
	return id
}

// newBuilder returns a builder for entries stamped against epoch, the
// wall-clock instant of trace second 0, with room for sizeHint
// transfers: a close hint means the transfer slice is allocated (and
// zeroed — a Transfer holds pointers) exactly once.
func newBuilder(epoch time.Time, sizeHint int) *builder {
	return &builder{
		epoch:     epoch,
		clients:   idTable{ids: make(map[string]int, 1024)},
		objects:   idTable{ids: make(map[string]int, 8)},
		transfers: make([]Transfer, 0, sizeHint),
	}
}

// add appends the transfer e records. Entries are timestamped at
// transfer end (that is when the server logs them), so Start =
// timestamp - duration; entries whose computed interval escapes
// [0, horizon] are kept here and removed by Sanitize, mirroring the
// paper's two-step handling.
//
//lsm:hotpath
func (b *builder) add(e *wmslog.Entry) {
	end := int64(e.Timestamp.Sub(b.epoch) / time.Second)
	b.transfers = append(b.transfers, Transfer{
		Client:    b.clients.id(e.PlayerID),
		IP:        e.ClientIP,
		AS:        e.ASNumber,
		Country:   e.Country,
		Object:    b.objects.id(e.URIStem),
		Start:     end - e.Duration,
		Duration:  e.Duration,
		Bytes:     e.Bytes,
		Bandwidth: e.AvgBandwidth,
		ServerCPU: e.ServerCPU,
	})
}

// build sorts the accumulated transfers into a Trace over horizon
// seconds. The builder's slice becomes the trace's, so the builder must
// not be used afterwards.
func (b *builder) build(horizon int64) (*Trace, error) {
	return newOwned(horizon, b.transfers)
}

// merge appends o's transfers to b as if o's entries had been added to
// b after b's own. Walking o's id tables in order reproduces the
// sequential first-seen numbering exactly: a name b already knows keeps
// its id, and the names new to b appear in o's table in the order o
// first saw them — the order b would have met them in.
//
//lsm:hotpath
func (b *builder) merge(o *builder) {
	clients := make([]int, len(o.clients.names))
	for i, name := range o.clients.names {
		clients[i] = b.clients.id(name)
	}
	objects := make([]int, len(o.objects.names))
	for i, name := range o.objects.names {
		objects[i] = b.objects.id(name)
	}
	at := len(b.transfers)
	b.transfers = append(b.transfers, o.transfers...)
	for i := at; i < len(b.transfers); i++ {
		t := &b.transfers[i]
		t.Client, t.Object = clients[t.Client], objects[t.Object]
	}
}

// Collector accumulates transfers, in any order, for a trace that will
// own them — the in-memory counterpart of FromLogs, for a caller (the
// calibration twin) that is handed transfers one at a time and cannot
// know their number in advance. Transfers gather in fixed-size chunks,
// so collecting allocates the sample once more than its size instead of
// the several times over that append's geometric growth, with its
// copying, costs. The zero value is ready to use.
type Collector struct {
	chunks [][]Transfer // every chunk but the last is full
}

// collectorChunk is the chunk length in transfers (1.5 MB): large
// enough that the chunk list stays short at paper scale, small enough
// that a short trace does not pay for it.
const collectorChunk = 1 << 14

// Add appends one transfer.
func (c *Collector) Add(t Transfer) {
	k := len(c.chunks) - 1
	if k < 0 || len(c.chunks[k]) == collectorChunk {
		c.chunks = append(c.chunks, make([]Transfer, 0, collectorChunk))
		k++
	}
	c.chunks[k] = append(c.chunks[k], t)
}

// Trace moves the collected transfers into one exactly-sized slice,
// sorts it into a trace over horizon seconds and sanitizes that trace
// in place (Section 2.4): the result is what New followed by Sanitize
// yields over the same transfers, without either copy. The collector is
// empty afterwards.
func (c *Collector) Trace(horizon int64) (*Trace, SanitizeReport, error) {
	n := 0
	for _, chunk := range c.chunks {
		n += len(chunk)
	}
	all := make([]Transfer, 0, n)
	for i, chunk := range c.chunks {
		all = append(all, chunk...)
		c.chunks[i] = nil // a chunk is garbage as soon as it is copied
	}
	c.chunks = nil
	tr, err := newOwned(horizon, all)
	if err != nil {
		return nil, SanitizeReport{}, err
	}
	return tr, tr.sanitizeInto(tr.Transfers[:0]), nil
}

// FromEntries converts parsed log entries into a Trace. epoch is the
// wall-clock instant of trace second 0; horizon is the trace length in
// seconds. See builder for the id and interval conventions.
func FromEntries(entries []*wmslog.Entry, epoch time.Time, horizon int64) (*Trace, error) {
	b := newBuilder(epoch, len(entries))
	for _, e := range entries {
		b.add(e)
	}
	return b.build(horizon)
}

// FromLogs is the one-call ingest: it parses the daily log files
// (text, ".gz" or framed binary, tolerantly), rebuilds the trace and
// sanitizes it (Section 2.4), without ever materializing the entries.
// The result — trace, parse bookkeeping, sanitize report and error —
// is what FromEntries(wmslog.ReadFiles(paths, true)) followed by
// Sanitize yields, bit for bit, at any GOMAXPROCS.
//
// The files are scanned concurrently on min(GOMAXPROCS, files) workers
// (inline, without goroutines, when that is one). Each file gets its
// own builder, so its client and object ids are file-local; merging the
// builders in file-name order restores the sequential numbering. Each
// worker owns one interner, so a string is allocated once per worker
// that meets it, and the strings never cross goroutines until the
// merge. On error the first failing file in name order is reported, as
// a sequential pass would.
func FromLogs(paths []string, epoch time.Time, horizon int64) (*Trace, wmslog.ParseStats, SanitizeReport, error) {
	if horizon <= 0 {
		return nil, wmslog.ParseStats{}, SanitizeReport{}, fmt.Errorf("%w: horizon %d", ErrBadTrace, horizon)
	}
	sorted := slices.Sorted(slices.Values(paths))

	type fileResult struct {
		b   *builder
		st  wmslog.ParseStats
		err error
	}
	files := make([]fileResult, len(sorted))
	var next atomic.Int64
	var failed atomic.Bool
	worker := func() {
		in := wmslog.NewInterner()
		// Files are claimed in name order, so once one fails every
		// earlier file is already claimed and will finish; the later
		// ones cannot change which error is first and are left alone.
		for !failed.Load() {
			k := int(next.Add(1)) - 1
			if k >= len(sorted) {
				return
			}
			f := &files[k]
			f.b = newBuilder(epoch, wmslog.EntryHint(sorted[k]))
			f.st, f.err = wmslog.ScanFile(sorted[k], true, in, func(e *wmslog.Entry) error {
				f.b.add(e)
				return nil
			})
			if f.err != nil {
				failed.Store(true)
			}
		}
	}
	if workers := min(runtime.GOMAXPROCS(0), len(sorted)); workers <= 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}

	var st wmslog.ParseStats
	total := 0
	for k := range files {
		st.Add(files[k].st)
		if err := files[k].err; err != nil {
			return nil, st, SanitizeReport{}, err
		}
		total += len(files[k].b.transfers)
	}
	all := newBuilder(epoch, total)
	for k := range files {
		all.merge(files[k].b)
		files[k].b = nil
	}
	tr, err := all.build(horizon)
	if err != nil {
		return nil, st, SanitizeReport{}, err
	}
	report := tr.sanitizeInto(tr.Transfers[:0])
	return tr, st, report, nil
}
