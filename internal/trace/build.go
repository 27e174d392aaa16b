package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wmslog"
)

// The trace build numbers four columns of every entry — player ID, IP,
// URI stem and country — 0, 1, 2, … in the order a sequential pass over
// the accepted entries first meets each value; Transfer carries the
// numbers. A log ingest (StreamLogs, SortLogs) runs in four stages:
//
//   - parse: workers claim the files in name order, at most ParseAhead
//     runs ahead of the merge, and turn each into a run — its
//     transfers, every numeric field set, and beside each the c-ip and
//     c-playerid bytes, copied out of the parser's buffer — noting the
//     least start Sanitize will keep (run.low). Each file is scanned
//     through the run's own deferred wmslog.Interner, which makes no
//     string of c-ip, c-playerid, c-os, c-cpu or cs(Referer) and
//     numbers URI and country, a handful of values, within the file;
//   - identity: one goroutine takes the runs strictly in file-name
//     order and numbers all four columns, writing the ids into the
//     rows: players and IPs in the assembler's arena tables (idTable),
//     URIs and countries through a wmslog.Interner. It is the
//     sequential pass, so its ids are the sequential ones by
//     construction;
//   - sort: each numbered run is sanitized and sorted in place
//     (sortByKeys) on a goroutine of its own;
//   - merge: the calling goroutine merges the held tail with each sorted
//     run in turn, hands on every row that starts before the next run's
//     low — the watermark: that run holds nothing earlier — and holds
//     the rest as the new tail (merger). The trace order is total
//     (before), so the rows depend on the transfers alone, not on how
//     they were split into runs.
//
// FromEntries is the same identity stage and sort over one run.

// idLimit is, per column, how many distinct values the Transfer field
// holding its id can tell apart. A build that meets more is ErrBadTrace:
// an id is never allowed to wrap.
var idLimit = [wmslog.NumColumns]uint64{
	wmslog.ColPlayer:  1 << 31,
	wmslog.ColIP:      1 << 32,
	wmslog.ColURI:     1 << 16,
	wmslog.ColCountry: 1 << 16,
}

var columnName = [wmslog.NumColumns]string{
	wmslog.ColPlayer:  "clients",
	wmslog.ColIP:      "client IPs",
	wmslog.ColURI:     "objects",
	wmslog.ColCountry: "countries",
}

// errTooMany is the error of a build that met more distinct values of
// column c than idLimit allows.
func errTooMany(c wmslog.Column) error {
	return fmt.Errorf("%w: more than %d distinct %s", ErrBadTrace, idLimit[c], columnName[c])
}

var errBadAS = fmt.Errorf("%w: an AS number beyond 32 bits", ErrBadTrace)

// run is one file's (or one entry slice's) transfers on their way into
// a trace. Until the identity stage numbers it, a row's Client and IP
// are unset and its Object and Country are ids into local.
type run struct {
	rows []Transfer
	// ids holds each row's c-ip and then its c-playerid, in row order,
	// each as a uvarint length followed by the bytes.
	ids []byte
	// local numbers the run's URIs and countries in first-seen order. A
	// file is scanned through it: it is deferred.
	local   *wmslog.Interner
	horizon int64 // the trace length Sanitize will hold the rows to
	low     int64 // the least start of a row Sanitize keeps; MaxInt64 if none
	badAS   bool  // some AS number did not fit its field
}

// idBytes is what one row's identity takes in a run's arena, rounded
// up: two length bytes, a dotted quad and a player ID.
const idBytes = 32

// newRun returns a run over horizon seconds with room for sizeHint
// rows: a close hint means the rows and the arena are allocated once
// each.
func newRun(sizeHint int, horizon int64) *run {
	return &run{rows: make([]Transfer, 0, sizeHint), ids: make([]byte, 0, sizeHint*idBytes),
		local: wmslog.NewDeferredInterner(), horizon: horizon, low: math.MaxInt64}
}

// appendID appends one identity column to a run's arena.
func appendID[B []byte | string](ids []byte, b B) []byte {
	ids = binary.AppendUvarint(ids, uint64(len(b)))
	return append(ids, b...)
}

// nextID splits the next identity column off a run's arena.
func nextID(ids []byte) (b, rest []byte) {
	n, k := binary.Uvarint(ids)
	end := k + int(n)
	return ids[k:end], ids[end:]
}

// add appends the transfer e records, its identity into the arena
// beside it (appendID), and lowers the run's low if Sanitize keeps the
// transfer. Entries are timestamped at transfer end (that is when the
// server logs them), so Start = timestamp - duration; entries whose
// computed interval escapes [0, horizon] are kept here and removed by
// Sanitize, mirroring the paper's two-step handling.
//
// add keeps nothing of the entry itself — numbers by value, URI and
// country as run-local ids — as the scan's entry-reuse contract demands
// of a wmslog.Scan callback.
//
//lsm:hotpath
func (r *run) add(e *wmslog.Entry, epoch time.Time) {
	if uint64(e.ASNumber) > math.MaxUint32 {
		r.badAS = true
	}
	end := int64(e.Timestamp.Sub(epoch) / time.Second)
	if start := end - e.Duration; start < r.low && kept(start, e.Duration, r.horizon) {
		r.low = start
	}
	r.rows = append(r.rows, Transfer{
		Start:     end - e.Duration,
		Duration:  e.Duration,
		Bytes:     e.Bytes,
		Bandwidth: e.AvgBandwidth,
		ServerCPU: e.ServerCPU,
		AS:        uint32(e.ASNumber),
		Object:    uint16(r.local.Ordinal(wmslog.ColURI, e.URIStem)),
		Country:   uint16(r.local.Ordinal(wmslog.ColCountry, e.Country)),
	})
}

// assembler is the identity stage: it numbers the runs it is handed,
// in the order it is handed them.
type assembler struct {
	clients identities      // the build's numbering of players and IPs
	objects wmslog.Interner // and of URIs and countries
	uri     []uint16        // scratch: a run's local URI id → global id
	cc      []uint16        // the same for countries
}

func newAssembler() *assembler {
	return &assembler{clients: identities{players: newIDTable(), ips: newIDTable()}}
}

var errArena = fmt.Errorf("%w: client identities beyond 4 GiB", ErrBadTrace)

// take numbers r — the run after every run taken before it. The ids it
// writes into r's rows are first-seen over the rows of the runs taken
// so far, in order.
//
//lsm:hotpath
func (a *assembler) take(r *run) error {
	if r.badAS {
		return errBadAS
	}
	var err error
	if a.uri, err = a.remap(wmslog.ColURI, r.local.Names(wmslog.ColURI), a.uri); err != nil {
		return err
	}
	if a.cc, err = a.remap(wmslog.ColCountry, r.local.Names(wmslog.ColCountry), a.cc); err != nil {
		return err
	}
	ids := r.ids
	for i := range r.rows {
		var ip, pid []byte
		ip, ids = nextID(ids)
		pid, ids = nextID(ids)
		t := &r.rows[i]
		ipOrd, pidOrd, ok := a.clients.client(ip, pid)
		if !ok {
			return errArena
		}
		t.Client, t.IP = int32(pidOrd), ipOrd
		t.Object, t.Country = a.uri[t.Object], a.cc[t.Country]
	}
	r.ids = nil // the arena is garbage once read
	if uint64(a.clients.players.len()) > idLimit[wmslog.ColPlayer] {
		return errTooMany(wmslog.ColPlayer)
	}
	if uint64(a.clients.ips.len()) > idLimit[wmslog.ColIP] {
		return errTooMany(wmslog.ColIP)
	}
	return nil
}

// remap gives each of a run's local names of column c its global id.
func (a *assembler) remap(c wmslog.Column, local []string, to []uint16) ([]uint16, error) {
	to = to[:0]
	for _, name := range local {
		to = append(to, uint16(a.objects.Ordinal(c, name)))
	}
	if uint64(len(a.objects.Names(c))) > idLimit[c] {
		return nil, errTooMany(c)
	}
	return to, nil
}

// FromEntries converts parsed log entries into a Trace. epoch is the
// wall-clock instant of trace second 0; horizon is the trace length in
// seconds. The entries are one run through the identity stage (see the
// note above run), so their ids are first-seen in slice order; see
// run.add for the interval convention.
//
//lsm:keep -- benchmark/layers/trace.go and pipeline.go probes, and the ingest tests' sequential reference; ROADMAP item 4a deletes
func FromEntries(entries []*wmslog.Entry, epoch time.Time, horizon int64) (*Trace, error) {
	r := newRun(len(entries), horizon)
	for _, e := range entries {
		r.ids = appendID(appendID(r.ids, e.ClientIP), e.PlayerID)
		r.add(e, epoch)
	}
	a := newAssembler()
	if err := a.take(r); err != nil {
		return nil, err
	}
	if err := checkHorizon(horizon); err != nil {
		return nil, err
	}
	sortTraceOrder(r.rows)
	return &Trace{Horizon: horizon, Transfers: r.rows, Names: &Names{Countries: a.objects.Names(wmslog.ColCountry)}}, nil
}

// ParseAhead bounds the runs in flight — claimed by a parse worker and
// not yet merged — so that an ingest holds a few files' rows whatever
// the number of files, and the same few at any GOMAXPROCS. The merge
// needs two: the run it merges and the next, whose low is its
// watermark.
const ParseAhead = 4

// Ingest is what a log ingest reports beside its rows.
type Ingest struct {
	Stats  wmslog.ParseStats
	Report SanitizeReport
	Names  *Names // the table the rows' Country ids index
	// Ordered is false when some file held a kept row that sorts before
	// a row already handed on: its transfers reached back further than
	// a daily harvest's do (see StreamLogs).
	Ordered bool
	// Held is the most transfers the ingest held at once: the held tail
	// plus every row of the ParseAhead runs from the one being merged.
	// It is counted from the files, so it is the same at any GOMAXPROCS.
	Held int
}

// logFile is one log file on its way through the ingest.
type logFile struct {
	path   string
	hint   int // wmslog.EntryHint
	r      *run
	n      int // the rows parsed, kept or not
	st     wmslog.ParseStats
	err    error
	parsed chan struct{}  // closed once r, n, st and err are final
	rows   []Transfer     // r's kept rows in the trace order
	report SanitizeReport // what sanitizing r kept and dropped
	ok     bool           // r was numbered and sorted
	sorted chan struct{}  // closed once rows, report and ok are final
	tail   int            // the rows held in the tail as the run was merged
}

// logFiles returns paths in name order as files to ingest, and the sum
// of their hints.
func logFiles(paths []string) ([]logFile, int) {
	files := make([]logFile, len(paths))
	total := 0
	for k, path := range slices.Sorted(slices.Values(paths)) {
		files[k] = logFile{path: path, hint: wmslog.EntryHint(path), parsed: make(chan struct{}), sorted: make(chan struct{})}
		total += files[k].hint
	}
	return files, total
}

// StreamLogs parses the daily log files (text, ".gz" or framed binary,
// tolerantly), rebuilds their transfers and sanitizes them (Section
// 2.4), without ever materializing the entries, and hands each kept
// transfer to emit in the trace order — the pointer valid only for the
// call — as soon as no file still to merge can hold one that sorts
// before it; the rest it reports in the Ingest. The rows, parse
// bookkeeping, sanitize report and error are what
// FromEntries(wmslog.ReadFiles(paths, true)) followed by Sanitize
// yields, bit for bit, at any GOMAXPROCS. Every row can go in order
// when the files' least kept starts do not decrease in name order — no
// file reaches back further than the file before it — as with logs
// harvested daily, whose only rows from before their midnight are the
// transfers that span it. A file holding a row that sorts before one
// already handed on ends the stream there: Ordered false, the later
// files unread (SortLogs reads such logs). On error the first failing
// file in name order is reported, as a sequential pass would; a parse
// error anywhere wins over an id overflow, because ReadFiles fails
// before FromEntries numbers anything.
func StreamLogs(paths []string, epoch time.Time, horizon int64, emit func(*Transfer)) (Ingest, error) {
	files, _ := logFiles(paths)
	return ingest(files, epoch, horizon, emit, true)
}

// SortLogs is StreamLogs for logs that reach back further than a daily
// harvest's: it reads every file, holds every kept row in one slice
// sized by the files' wmslog.EntryHint (text 128, gzip 24, binary 38
// bytes an entry), sorts the slice once if the files broke the order,
// and then hands each row to emit in the trace order, the pointer valid
// only for the call: every row StreamLogs would hand on. The Ingest's
// Ordered tells whether the files broke the order; its other fields
// are StreamLogs'. On error no row is handed on.
func SortLogs(paths []string, epoch time.Time, horizon int64, emit func(*Transfer)) (Ingest, error) {
	files, total := logFiles(paths)
	rows := make([]Transfer, 0, total)
	ing, err := ingest(files, epoch, horizon, func(t *Transfer) { rows = append(rows, *t) }, false)
	if err != nil {
		return ing, err
	}
	if !ing.Ordered {
		sortByKeys(rows)
	}
	for i := range rows {
		emit(&rows[i])
	}
	return ing, nil
}

// ingest runs the four stages over files on min(GOMAXPROCS, files,
// ParseAhead) parse workers, handing the rows to emit. With stream (for
// StreamLogs) it ends at the first run that breaks the order; without
// (for SortLogs) it reads every file.
func ingest(files []logFile, epoch time.Time, horizon int64, emit func(*Transfer), stream bool) (Ingest, error) {
	if err := checkHorizon(horizon); err != nil {
		return Ingest{}, err
	}
	var next atomic.Int64
	var failed atomic.Bool
	slots := make(chan struct{}, ParseAhead) // a semaphore: a token per run in flight
	quit := make(chan struct{})              // closed once no stage needs another file
	parse := func() {
		// Files are claimed in name order, so once one fails every
		// earlier file is already claimed and will finish; the later
		// ones cannot change which error is first and are left alone.
		for !failed.Load() {
			select {
			case slots <- struct{}{}:
			case <-quit:
				return
			}
			k := int(next.Add(1)) - 1
			if k >= len(files) {
				return
			}
			f := &files[k]
			r := newRun(f.hint, horizon)
			in := r.local
			f.st, f.err = wmslog.ScanFile(f.path, true, in, func(e *wmslog.Entry) error {
				ip, pid := in.Identity(e)
				r.ids = appendID(appendID(r.ids, ip), pid)
				r.add(e, epoch)
				return nil
			})
			if f.err != nil {
				failed.Store(true)
			}
			f.r, f.n = r, len(r.rows)
			close(f.parsed)
		}
	}
	var workers, sorts sync.WaitGroup
	for i := min(runtime.GOMAXPROCS(0), len(files), ParseAhead); i > 0; i-- {
		workers.Add(1)
		go func() {
			defer workers.Done()
			parse()
		}()
	}

	// The identity stage stops at the first file that failed to parse —
	// every file before it was claimed, so it never waits on one nobody
	// will parse. After an id error it numbers nothing more but goes on
	// releasing the parsed runs: a later parse error is still the one to
	// report. A run it does not number is marked sorted, not ok.
	a := newAssembler()
	var idErr error
	numbered := make(chan struct{})
	go func() {
		defer close(numbered)
		k := 0
		for ; k < len(files); k++ {
			f := &files[k]
			select {
			case <-f.parsed:
			case <-quit:
				return
			}
			if f.err != nil {
				break
			}
			if idErr == nil {
				idErr = a.take(f.r)
			}
			if idErr != nil {
				close(f.sorted)
				<-slots
				continue
			}
			sorts.Add(1)
			go func() {
				defer sorts.Done()
				part := &Trace{Horizon: horizon, Transfers: f.r.rows}
				f.report = part.sanitizeInto(part.Transfers[:0])
				sortByKeys(part.Transfers)
				f.rows, f.ok = part.Transfers, true
				close(f.sorted)
			}()
		}
		for ; k < len(files); k++ {
			close(files[k].sorted)
		}
	}()

	// The merge stage: run k goes once it is sorted and run k+1, whose
	// low is the watermark, is parsed.
	m := merger{emit: emit, stop: stream, last: Transfer{Start: -1}, ordered: true}
	var report SanitizeReport
	for k := range files {
		f := &files[k]
		if <-f.sorted; !f.ok {
			break
		}
		w := int64(math.MaxInt64)
		if k+1 < len(files) {
			g := &files[k+1]
			if <-g.parsed; g.err != nil {
				break
			}
			w = g.r.low
		}
		f.tail = len(m.tail)
		report.add(f.report)
		m.merge(f.rows, w)
		f.r, f.rows = nil, nil // garbage once merged
		<-slots
		if stream && !m.ordered {
			close(quit) // before the identity stage is done: it may wait on a file nobody will parse
			break
		}
	}
	<-numbered
	if m.ordered || !stream {
		close(quit)
	}
	workers.Wait()
	sorts.Wait()

	ing := Ingest{Report: report, Ordered: m.ordered}
	for k := range files {
		ing.Stats.Add(files[k].st)
		if err := files[k].err; err != nil {
			return ing, err
		}
	}
	if idErr != nil {
		return ing, idErr
	}
	ing.Names = &Names{Countries: a.objects.Names(wmslog.ColCountry)}
	for k := range files {
		held := files[k].tail
		for _, f := range files[k:min(k+ParseAhead, len(files))] {
			held += f.n
		}
		ing.Held = max(ing.Held, held)
	}
	return ing, nil
}
