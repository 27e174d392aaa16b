package trace

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wmslog"
)

// The trace build numbers four columns of every entry — player ID,
// IP, URI stem and country — 0, 1, 2, … in the order a sequential pass
// over the entries first meets each value; Transfer carries the
// numbers. The build never hashes a string per entry to do it. It runs
// in three layers:
//
//   - a worker's wmslog.Interner gives every value it scans an ordinal:
//     first-seen order over everything that worker has parsed, malformed
//     lines included — dense, but nobody's final id;
//   - a builder, one per file, turns ordinals into file-local ids —
//     first-seen order over the entries the file's scan accepted —
//     through flat slices the worker lends it;
//   - the numbering, once every file is built, walks the builders in
//     file-name order and each builder's ids in file-local order,
//     giving every (worker, ordinal) pair it has not met its global id.
//     A value new to the whole build appears in that walk exactly when
//     a sequential pass would first have read it, so the global ids are
//     the sequential ones. Only here is a name hashed: once per distinct
//     value per worker that met it, and not at all when one worker met
//     them all.

// column aliases for the four numbered columns, in Transfer's terms.
const (
	colClient  = wmslog.ColPlayer
	colIP      = wmslog.ColIP
	colObject  = wmslog.ColURI
	colCountry = wmslog.ColCountry
	numColumns = wmslog.NumColumns
)

// idLimit is, per column, how many distinct values the Transfer field
// holding its id can tell apart. A build that meets more is ErrBadTrace:
// an id is never allowed to wrap.
var idLimit = [numColumns]uint64{
	colClient:  1 << 31,
	colIP:      1 << 32,
	colObject:  1 << 16,
	colCountry: 1 << 16,
}

var columnName = [numColumns]string{
	colClient:  "clients",
	colIP:      "client IPs",
	colObject:  "objects",
	colCountry: "countries",
}

// worker is the state one ingest goroutine carries from file to file.
type worker struct {
	in *wmslog.Interner
	// local maps, per column, an interner ordinal to 1 + its id in the
	// file being built; 0 is "not seen in this file". The builder clears
	// the entries it set when its file ends.
	local [numColumns][]uint32
	// global is the same map to 1 + the global id; it belongs to the
	// numbering, which runs after every worker has finished.
	global [numColumns][]uint32
}

func newWorker() *worker { return &worker{in: wmslog.NewInterner()} }

// builder turns the entries of one file (or one slice) into transfers,
// one add per entry, and is the one trace-build loop behind FromEntries
// and FromLogs.
//
// add copies what it needs out of the entry — numbers by value, the
// four numbered strings as ids — and keeps nothing of the entry itself,
// as the scan's entry-reuse contract demands of a wmslog.Scan callback.
type builder struct {
	epoch     time.Time
	w         *worker
	ords      [numColumns][]uint32 // file-local id → the worker's ordinal, in first-seen order
	transfers []Transfer
	overflow  bool // some id or AS number did not fit its field
}

// newBuilder returns a builder for entries stamped against epoch, the
// wall-clock instant of trace second 0, with room for sizeHint
// transfers: a close hint means the transfer slice is allocated
// exactly once. A worker feeds one builder at a time and calls done
// before starting the next.
func (w *worker) newBuilder(epoch time.Time, sizeHint int) *builder {
	return &builder{epoch: epoch, w: w, transfers: make([]Transfer, 0, sizeHint)}
}

// add appends the transfer e records. Entries are timestamped at
// transfer end (that is when the server logs them), so Start =
// timestamp - duration; entries whose computed interval escapes
// [0, horizon] are kept here and removed by Sanitize, mirroring the
// paper's two-step handling.
//
//lsm:hotpath
func (b *builder) add(e *wmslog.Entry) {
	var id [numColumns]uint32
	for c, o := range b.w.in.Ordinals(e) {
		local := upTo(b.w.local[c], int(o))
		b.w.local[c] = local
		if local[o] == 0 {
			if uint64(len(b.ords[c])) == idLimit[c] {
				b.overflow = true
				continue
			}
			b.ords[c] = append(b.ords[c], o)
			local[o] = uint32(len(b.ords[c]))
		}
		id[c] = local[o] - 1
	}
	if uint64(e.ASNumber) > math.MaxUint32 {
		b.overflow = true
	}
	end := int64(e.Timestamp.Sub(b.epoch) / time.Second)
	b.transfers = append(b.transfers, Transfer{
		Start:     end - e.Duration,
		Duration:  e.Duration,
		Bytes:     e.Bytes,
		Bandwidth: e.AvgBandwidth,
		ServerCPU: e.ServerCPU,
		Client:    int32(id[colClient]),
		IP:        id[colIP],
		AS:        uint32(e.ASNumber),
		Country:   uint16(id[colCountry]),
		Object:    uint16(id[colObject]),
	})
}

// done ends the builder's file: the worker's ordinal → local id slots
// go back to "not seen" for the next builder.
func (b *builder) done() {
	for c, ords := range b.ords {
		for _, o := range ords {
			b.w.local[c][o] = 0
		}
	}
}

// errTooMany is the error of a build that met more distinct values of
// column c than idLimit allows. It lives outside the //lsm:hotpath loop
// that returns it.
func errTooMany(c wmslog.Column) error {
	return fmt.Errorf("%w: more than %d distinct %s", ErrBadTrace, idLimit[c], columnName[c])
}

// numberColumn hands out column c's global ids: it walks the builders
// in order and each builder's file-local ids in order, and gives every
// (worker, ordinal) pair it has not met the id of its name, new names
// numbered as they appear — as if every builder's entries had been
// added to one builder, after those of the builders before it (see the
// layering note above). It returns, per builder, the map from
// file-local to global id, and the id → name table.
//
//lsm:hotpath
func numberColumn(c wmslog.Column, builders []*builder) (remaps [][]uint32, names []string, err error) {
	// Values met by different workers have to be matched by name — the
	// one place the build hashes one. A single worker's ordinals already
	// tell its values apart.
	var byName *wmslog.Interner
	for _, b := range builders {
		if b.w != builders[0].w {
			byName = wmslog.NewInterner()
			break
		}
	}
	remaps = make([][]uint32, len(builders))
	for k, b := range builders {
		local := b.w.in.Names(c)
		global := upTo(b.w.global[c], len(local)-1)
		b.w.global[c] = global
		remap := make([]uint32, len(b.ords[c]))
		for i, o := range b.ords[c] {
			if global[o] == 0 {
				id := uint32(len(names))
				if byName != nil {
					id = byName.Ordinal(c, local[o])
				}
				if int(id) == len(names) {
					names = append(names, local[o])
				}
				global[o] = id + 1
			}
			remap[i] = global[o] - 1
		}
		if uint64(len(names)) > idLimit[c] {
			return nil, nil, errTooMany(c)
		}
		remaps[k] = remap
	}
	return remaps, names, nil
}

// assemble numbers the builders' ids, in builder order, into one id
// space — the four columns are independent, so each is numbered on its
// own goroutine when there is a second core — moves the transfers into
// one slice under their global ids and sorts it into a Trace over
// horizon seconds. The builders are spent afterwards.
func assemble(horizon int64, builders []*builder) (*Trace, error) {
	total := 0
	for _, b := range builders {
		if b.overflow {
			return nil, fmt.Errorf("%w: one log file has more distinct clients, IPs, objects or countries than a transfer can number, or an AS number beyond 32 bits", ErrBadTrace)
		}
		total += len(b.transfers)
	}
	var (
		remaps [numColumns][][]uint32
		names  [numColumns][]string
		errs   [numColumns]error
		wg     sync.WaitGroup
	)
	for c := wmslog.Column(0); c < numColumns; c++ {
		if runtime.GOMAXPROCS(0) == 1 {
			remaps[c], names[c], errs[c] = numberColumn(c, builders)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			remaps[c], names[c], errs[c] = numberColumn(c, builders)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var all []Transfer
	if len(builders) == 1 {
		all = builders[0].transfers[:0] // renumbered in place
	} else {
		all = make([]Transfer, 0, total)
	}
	for k, b := range builders {
		client, ip, country, object := remaps[colClient][k], remaps[colIP][k], remaps[colCountry][k], remaps[colObject][k]
		for i := range b.transfers {
			t := b.transfers[i]
			t.Client = int32(client[t.Client])
			t.IP = ip[t.IP]
			t.Country = uint16(country[t.Country])
			t.Object = uint16(object[t.Object])
			all = append(all, t)
		}
		builders[k] = nil // a file's transfers are garbage as soon as they are copied
	}
	tr, err := newOwned(horizon, all)
	if err != nil {
		return nil, err
	}
	tr.Names = &Names{IPs: names[colIP], Countries: names[colCountry]}
	return tr, nil
}

// Collector accumulates transfers, in any order, for a trace that will
// own them — the in-memory counterpart of FromLogs, for a caller (the
// calibration twin) that is handed transfers one at a time and cannot
// know their number in advance. Transfers gather in fixed-size chunks,
// so collecting allocates the sample once more than its size instead of
// the several times over that append's geometric growth, with its
// copying, costs. The zero value is ready to use.
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
	tr.Names = c.Names
	return tr, tr.sanitizeInto(tr.Transfers[:0]), nil
}

// FromEntries converts parsed log entries into a Trace. epoch is the
// wall-clock instant of trace second 0; horizon is the trace length in
// seconds. See builder for the id and interval conventions. The
// entries come with no ordinals, so this is the build that hashes: each
// entry's strings are looked up in a fresh interner.
func FromEntries(entries []*wmslog.Entry, epoch time.Time, horizon int64) (*Trace, error) {
	b := newWorker().newBuilder(epoch, len(entries))
	for _, e := range entries {
		b.add(e)
	}
	return assemble(horizon, []*builder{b})
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
// own builder, so its ids are file-local; renumbering the builders in
// file-name order restores the sequential numbering (see the layering
// note above builder). Each worker owns one interner, so a string is
// allocated — and hashed — once per worker that meets it, and the
// strings never cross goroutines until the renumbering. On error the
// first failing file in name order is reported, as a sequential pass
// would.
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
	ingest := func() {
		w := newWorker()
		// Files are claimed in name order, so once one fails every
		// earlier file is already claimed and will finish; the later
		// ones cannot change which error is first and are left alone.
		for !failed.Load() {
			k := int(next.Add(1)) - 1
			if k >= len(sorted) {
				return
			}
			f := &files[k]
			f.b = w.newBuilder(epoch, wmslog.EntryHint(sorted[k]))
			f.st, f.err = wmslog.ScanFile(sorted[k], true, w.in, func(e *wmslog.Entry) error {
				f.b.add(e)
				return nil
			})
			f.b.done()
			if f.err != nil {
				failed.Store(true)
			}
		}
	}
	if workers := min(runtime.GOMAXPROCS(0), len(sorted)); workers <= 1 {
		ingest()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ingest()
			}()
		}
		wg.Wait()
	}

	var st wmslog.ParseStats
	builders := make([]*builder, len(files))
	for k := range files {
		st.Add(files[k].st)
		if err := files[k].err; err != nil {
			return nil, st, SanitizeReport{}, err
		}
		builders[k], files[k].b = files[k].b, nil
	}
	tr, err := assemble(horizon, builders)
	if err != nil {
		return nil, st, SanitizeReport{}, err
	}
	report := tr.sanitizeInto(tr.Transfers[:0])
	return tr, st, report, nil
}
