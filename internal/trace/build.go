package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wmslog"
)

// The trace build numbers four columns of every entry — player ID, IP,
// URI stem and country — 0, 1, 2, … in the order a sequential pass over
// the accepted entries first meets each value; Transfer carries the
// numbers. FromLogs runs it in three stages:
//
//   - parse: workers claim the files in name order and turn each into a
//     run — its transfers, every numeric field set, and beside each the
//     c-ip and c-playerid bytes, copied out of the parser's buffer (a
//     deferred wmslog.Interner never makes them strings). URI and
//     country, a handful of values, are numbered within the file;
//   - identity: the calling goroutine takes the runs strictly in
//     file-name order, each as soon as it is parsed, and numbers all four
//     columns through one ordinary wmslog.Interner, writing the ids into
//     the rows. It is the sequential pass, so its ids are the sequential
//     ones by construction. The numbered run is then sanitized into the
//     build's one slice of transfers, behind the runs before it, and the
//     run itself is garbage;
//   - sort and merge: each run's segment of that slice is sorted in
//     place on a goroutine of its own, and neighbouring segments are
//     merged in place (mergeInPlace), with a buffer holding only where
//     they overlap. The trace order is total (before), so the result
//     depends on the transfers alone, not on how they were split into
//     runs.
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
	// local numbers the run's URIs and countries in first-seen order.
	local wmslog.Interner
	badAS bool // some AS number did not fit its field
}

// idBytes is what one row's identity takes in a run's arena, rounded
// up: two length bytes, a dotted quad and a player ID.
const idBytes = 32

// newRun returns a run with room for sizeHint rows: a close hint means
// the rows and the arena are allocated once each.
func newRun(sizeHint int) *run {
	return &run{rows: make([]Transfer, 0, sizeHint), ids: make([]byte, 0, sizeHint*idBytes)}
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

// add appends the transfer e records; its identity goes into the arena
// beside it (appendID). Entries are timestamped at transfer end (that
// is when the server logs them), so Start = timestamp - duration;
// entries whose computed interval escapes [0, horizon] are kept here
// and removed by Sanitize, mirroring the paper's two-step handling.
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
	ids *wmslog.Interner // the build's one numbering of all four columns
	uri []uint16         // scratch: a run's local URI id → global id
	cc  []uint16         // the same for countries
}

func newAssembler() *assembler { return &assembler{ids: wmslog.NewInterner()} }

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
		ipOrd, pidOrd := a.ids.Client(ip, pid)
		t.Client, t.IP = int32(pidOrd), ipOrd
		t.Object, t.Country = a.uri[t.Object], a.cc[t.Country]
	}
	r.ids = nil // the arena is garbage once read
	if uint64(len(a.ids.Names(wmslog.ColPlayer))) > idLimit[wmslog.ColPlayer] {
		return errTooMany(wmslog.ColPlayer)
	}
	if uint64(len(a.ids.Names(wmslog.ColIP))) > idLimit[wmslog.ColIP] {
		return errTooMany(wmslog.ColIP)
	}
	return nil
}

// remap gives each of a run's local names of column c its global id.
func (a *assembler) remap(c wmslog.Column, local []string, to []uint16) ([]uint16, error) {
	to = to[:0]
	for _, name := range local {
		to = append(to, uint16(a.ids.Ordinal(c, name)))
	}
	if uint64(len(a.ids.Names(c))) > idLimit[c] {
		return nil, errTooMany(c)
	}
	return to, nil
}

// names returns the build's IP and country tables.
func (a *assembler) names() *Names {
	return &Names{IPs: a.ids.Names(wmslog.ColIP), Countries: a.ids.Names(wmslog.ColCountry)}
}

// segments is the sort-and-merge stage of FromLogs: one slice holding
// every numbered run's kept transfers back to back, each run's segment
// sorted in place on a goroutine of its own.
type segments struct {
	rows   []Transfer
	ends   []int // segment k is rows[ends[k-1]:ends[k]]
	report SanitizeReport
	sorts  sync.WaitGroup // one per segment being sorted
}

// add sanitizes run over horizon seconds into a new segment behind the
// others and starts the segment's sort. The rows grow only when the
// run's transfers might not fit, and then only after every running
// sort has finished: a sort holds a window onto the old array.
func (s *segments) add(run []Transfer, horizon int64) {
	if len(s.rows)+len(run) > cap(s.rows) {
		s.sorts.Wait()
		s.rows = slices.Grow(s.rows, len(run))
	}
	from := len(s.rows)
	for i := range run {
		if s.report.keep(&run[i], horizon) {
			s.rows = append(s.rows, run[i])
		}
	}
	s.ends = append(s.ends, len(s.rows))
	seg := s.rows[from:]
	s.sorts.Add(1)
	go func() {
		defer s.sorts.Done()
		sort.Sort(byStart(seg))
	}()
}

// merged waits for the sorts and merges the segments, each into the
// merged ones before it, in place; the rows are then in the trace
// order.
func (s *segments) merged() []Transfer {
	s.sorts.Wait()
	var buf []Transfer
	for k := 1; k < len(s.ends); k++ {
		buf = mergeInPlace(s.rows[:s.ends[k]], s.ends[k-1], buf)
	}
	return s.rows
}

// mergeInPlace merges the sorted halves s[:mid] and s[mid:] of s into
// one sorted run in place, with buf (returned, perhaps grown, for
// reuse) holding only the smaller side of where they overlap. The
// leading transfers of s[:mid] that sort no later than s[mid], and the
// trailing ones of s[mid:] that sort no earlier than s[mid-1], are
// already in place and are not moved; of the two overlapping parts
// left, the shorter is copied out and the two are merged into the gap
// — from the front when it is the left part (Timsort's merge_lo), from
// the back when it is the right (merge_hi). Daily files overlap only
// where a transfer spans midnight: the right part is then the few
// transfers that started the day before.
func mergeInPlace(s []Transfer, mid int, buf []Transfer) []Transfer {
	if mid == 0 || mid == len(s) || !before(&s[mid], &s[mid-1]) {
		return buf
	}
	// s[lo:mid] sorts after s[mid]; s[mid:hi] sorts before s[mid-1].
	lo := sort.Search(mid, func(i int) bool { return before(&s[mid], &s[i]) })
	hi := mid + sort.Search(len(s)-mid, func(j int) bool { return !before(&s[mid+j], &s[mid-1]) })
	if mid-lo <= hi-mid {
		buf = append(buf[:0], s[lo:mid]...)
		d, p, q := lo, 0, mid // merge buf and s[mid:hi] into s[lo:hi] from the front
		for p < len(buf) && q < hi {
			if before(&s[q], &buf[p]) {
				s[d] = s[q]
				q++
			} else {
				s[d] = buf[p]
				p++
			}
			d++
		}
		copy(s[d:], buf[p:])
		return buf
	}
	buf = append(buf[:0], s[mid:hi]...)
	d, p, q := hi-1, mid-1, len(buf)-1 // merge s[lo:mid] and buf into s[lo:hi] from the back
	for p >= lo && q >= 0 {
		if before(&buf[q], &s[p]) {
			s[d] = s[p]
			p--
		} else {
			s[d] = buf[q]
			q--
		}
		d--
	}
	copy(s[lo:], buf[:q+1])
	return buf
}

// Collector accumulates transfers, in any order, for a trace that will
// own them — the in-memory counterpart of FromLogs, for a caller that
// is handed transfers one at a time and cannot know their number in
// advance: core.Serve, so core.Run, lsmrepro and the examples. (The
// calibration twin builds no trace: its rows go through a Stream
// straight into core's observer.) Transfers gather in fixed-size
// chunks, so collecting allocates the sample once more than its size
// instead of the several times over that append's geometric growth,
// with its copying, costs. The zero value is ready to use.
type Collector struct {
	// Names are the tables the collected transfers' IP and Country ids
	// index, if the caller has them; Trace attaches them to its result.
	Names *Names

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
// sanitizes it in place (Section 2.4) and sorts what is kept into a
// trace over horizon seconds: the result is what New followed by
// Sanitize yields over the same transfers, without either copy.
// Sanitizing first drops a serve run's spanning rows — the only ones it
// adds out of start order — before the sort sees them. The collector is
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
	if err := checkHorizon(horizon); err != nil {
		return nil, SanitizeReport{}, err
	}
	tr := &Trace{Horizon: horizon, Transfers: all, Names: c.Names}
	report := tr.sanitizeInto(all[:0])
	sortTraceOrder(tr.Transfers)
	return tr, report, nil
}

// FromEntries converts parsed log entries into a Trace. epoch is the
// wall-clock instant of trace second 0; horizon is the trace length in
// seconds. The entries are one run through the identity stage (see the
// note above run), so their ids are first-seen in slice order; see
// run.add for the interval convention.
func FromEntries(entries []*wmslog.Entry, epoch time.Time, horizon int64) (*Trace, error) {
	r := newRun(len(entries))
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
	sort.Sort(byStart(r.rows))
	return &Trace{Horizon: horizon, Transfers: r.rows, Names: a.names()}, nil
}

// FromLogs is the one-call ingest: it parses the daily log files
// (text, ".gz" or framed binary, tolerantly), rebuilds the trace and
// sanitizes it (Section 2.4), without ever materializing the entries.
// The result — trace, parse bookkeeping, sanitize report and error —
// is what FromEntries(wmslog.ReadFiles(paths, true)) followed by
// Sanitize yields, bit for bit, at any GOMAXPROCS.
//
// The files are parsed on min(GOMAXPROCS, files) workers while the
// identity stage numbers them in name order and their sorts run beside
// both (see the note above run). The kept transfers are held once: in
// one slice sized up front by the files' wmslog.EntryHint, which the
// runs are sanitized into and which is sorted and merged in place. On
// error the first failing file in name order is reported, as a
// sequential pass would; a parse error anywhere wins over an id
// overflow, because ReadFiles fails before FromEntries numbers
// anything.
func FromLogs(paths []string, epoch time.Time, horizon int64) (*Trace, wmslog.ParseStats, SanitizeReport, error) {
	if horizon <= 0 {
		return nil, wmslog.ParseStats{}, SanitizeReport{}, fmt.Errorf("%w: horizon %d", ErrBadTrace, horizon)
	}
	sorted := slices.Sorted(slices.Values(paths))

	type file struct {
		hint   int // wmslog.EntryHint
		r      *run
		st     wmslog.ParseStats
		err    error
		parsed chan struct{} // closed once r, st and err are final
	}
	files := make([]file, len(sorted))
	total := 0
	for k := range files {
		files[k].hint = wmslog.EntryHint(sorted[k])
		files[k].parsed = make(chan struct{})
		total += files[k].hint
	}
	var next atomic.Int64
	var failed atomic.Bool
	parse := func() {
		in := wmslog.NewDeferredInterner()
		// Files are claimed in name order, so once one fails every
		// earlier file is already claimed and will finish; the later
		// ones cannot change which error is first and are left alone.
		for !failed.Load() {
			k := int(next.Add(1)) - 1
			if k >= len(sorted) {
				return
			}
			f := &files[k]
			r := newRun(f.hint)
			f.st, f.err = wmslog.ScanFile(sorted[k], true, in, func(e *wmslog.Entry) error {
				ip, pid := in.Identity(e)
				r.ids = appendID(appendID(r.ids, ip), pid)
				r.add(e, epoch)
				return nil
			})
			if f.err != nil {
				failed.Store(true)
			}
			f.r = r
			close(f.parsed)
		}
	}
	var workers sync.WaitGroup
	for i := min(runtime.GOMAXPROCS(0), len(sorted)); i > 0; i-- {
		workers.Add(1)
		go func() {
			defer workers.Done()
			parse()
		}()
	}

	// The identity stage. It stops at the first file that failed to
	// parse — every file before it was claimed, so it never waits on one
	// nobody will parse — or at its own first error.
	a := newAssembler()
	segs := segments{rows: make([]Transfer, 0, total)}
	var idErr error
	for k := range files {
		<-files[k].parsed
		if files[k].err != nil {
			break
		}
		if idErr = a.take(files[k].r); idErr != nil {
			break
		}
		segs.add(files[k].r.rows, horizon)
		files[k].r = nil // the run is garbage once copied
	}
	workers.Wait()
	segs.sorts.Wait()

	var st wmslog.ParseStats
	for k := range files {
		st.Add(files[k].st)
		if err := files[k].err; err != nil {
			return nil, st, SanitizeReport{}, err
		}
	}
	if idErr != nil {
		return nil, st, SanitizeReport{}, idErr
	}
	if err := checkHorizon(horizon); err != nil {
		return nil, st, SanitizeReport{}, err
	}
	return &Trace{Horizon: horizon, Transfers: segs.merged(), Names: a.names()}, st, segs.report, nil
}
