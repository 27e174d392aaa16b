package loadgen

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// Decompress maps entry e, logged on the wall clock of a
// compressed-time replay, onto the trace clock that starts at
// wmslog.TraceEpoch, in place, so that a characterization run can
// consume it as if the trace had been served in real time: the
// timestamp becomes the epoch plus trace seconds, the duration is
// re-expanded by the compression factor (at least 1 s), and the
// bandwidth is recomputed against the trace-time duration.
//
// Wall instant begin is trace second origin, and every wall second
// spans compression trace seconds (a Result's Begin, Origin and
// Compression; compression must be positive). The server log's
// 1-second resolution therefore quantizes reconstructed instants to
// ±compression trace seconds — validation must compare at a granularity
// (session timeout) comfortably above that.
func Decompress(e *wmslog.Entry, begin time.Time, origin int64, compression float64) {
	traceDur := max(int64(math.Round(float64(e.Duration)*compression)), 1)
	traceEnd := max(origin+int64(math.Round(e.Timestamp.Sub(begin).Seconds()*compression)), traceDur)
	e.Timestamp = wmslog.TraceEpoch.Add(time.Duration(traceEnd) * time.Second)
	e.Duration = traceDur
	e.AvgBandwidth = e.Bytes * 8 / traceDur
}

// Served is the served side of a replay check: the entries the
// replay's server logged, scanned one at a time (ReadServed) onto the
// trace clock as rows, reconciled against the replay's failure record,
// with the realization digest of every logged entry. Check reads it;
// no entry is kept.
//
// Reconciling covers the at-least-once semantics of a pooled
// connection's redial. The server commits a transfer's log entry just
// before sending END, and the client can fail after that commit (a
// timeout, a dropped connection), so the raw log can disagree with the
// client's accounting in two ways:
//
//   - The transfer fails and the event is recorded lost, but the server
//     had already logged it. The check excludes the event from the
//     offered side, so the tagged entry is dropped too (DroppedLost).
//   - The redial's retry succeeds, so the event is logged twice. One
//     serve is kept by the entries' content alone — the one that ended
//     first, then the one whose rendered line has the smaller 64-bit
//     FNV-1a hash (lineHash) — so the kept set does not depend on the
//     order the log files are read in (DroppedDup counts the others).
//     Equal hashes mean equal lines, but for a 2⁻⁶⁴ collision, and so
//     equal rows: either choice keeps the same row.
//
// Untagged entries carry no event and are all kept.
type Served struct {
	begin       time.Time
	origin      int64
	compression float64

	lost    map[eventID]bool
	kept    map[eventID]keptServe
	clients map[string]int32 // c-playerid → first-seen ordinal
	rows    []trace.Transfer // Client, Start and Duration on the trace clock

	realization wmslog.Realization
	line        []byte      // scratch: a tagged entry's rendered line
	hash        hash.Hash64 // FNV-1a over line, reset per entry

	DroppedLost, DroppedDup int
}

type eventID struct {
	session int64
	seq     int
}

// keptServe is the serve kept for a tagged event: its row, and what
// the reconciling rule compares a later serve of the event against.
type keptServe struct {
	row  int
	end  int64  // the logged end, in Unix seconds
	hash uint64 // lineHash of the logged line
}

// newServed starts an empty served side (ReadServed's arguments).
func newServed(begin time.Time, origin int64, compression float64, lost []workload.Event) (*Served, error) {
	if !(compression > 0) {
		return nil, fmt.Errorf("%w: compression %v", ErrBadConfig, compression)
	}
	s := &Served{
		begin: begin, origin: origin, compression: compression,
		lost:    make(map[eventID]bool, len(lost)),
		kept:    make(map[eventID]keptServe),
		clients: make(map[string]int32),
		hash:    fnv.New64a(),
	}
	for _, ev := range lost {
		s.lost[eventID{int64(ev.Session), ev.Seq}] = true
	}
	return s, nil
}

// ReadServed scans each log once, in any order, into the served side
// of a replay that began at wall instant begin = trace second origin,
// ran at compression trace seconds a wall second and recorded the
// events in lost as lost. It returns the summed parse statistics. The
// scan is tolerant: a line it skips is a transfer missing from the
// served side, which the exact comparison then reports as a MISMATCH,
// so a corrupt log cannot pass the check.
func ReadServed(paths []string, begin time.Time, origin int64, compression float64, lost []workload.Event) (*Served, wmslog.ParseStats, error) {
	var total wmslog.ParseStats
	s, err := newServed(begin, origin, compression, lost)
	if err != nil {
		return nil, total, err
	}
	in := wmslog.NewInterner()
	add := func(e *wmslog.Entry) error { s.add(e); return nil }
	for _, path := range paths {
		st, err := wmslog.ScanFile(path, true, in, add)
		total.Add(st)
		if err != nil {
			return nil, total, err
		}
	}
	return s, total, nil
}

// add takes one logged entry. It keeps the entry's player as a string
// and a hash of its rendered line, never the entry, so it can be a
// scan callback's sink.
func (s *Served) add(e *wmslog.Entry) {
	s.realization.Add(e)
	d := *e
	Decompress(&d, s.begin, s.origin, s.compression)
	id, ok := s.clients[e.PlayerID]
	if !ok {
		id = int32(len(s.clients))
		s.clients[e.PlayerID] = id
	}
	end := int64(d.Timestamp.Sub(wmslog.TraceEpoch) / time.Second)
	row := trace.Transfer{Client: id, Start: end - d.Duration, Duration: d.Duration}

	session, seq, tagged := e.SessionSeq()
	if !tagged {
		s.rows = append(s.rows, row)
		return
	}
	ev := eventID{session, seq}
	if s.lost[ev] {
		s.DroppedLost++
		return
	}
	serve := keptServe{row: len(s.rows), end: e.Timestamp.Unix(), hash: s.lineHash(e)}
	prev, dup := s.kept[ev]
	switch {
	case !dup:
		s.rows = append(s.rows, row)
	case serve.end < prev.end || serve.end == prev.end && serve.hash < prev.hash:
		s.DroppedDup++
		serve.row = prev.row
		s.rows[prev.row] = row
	default:
		s.DroppedDup++
		return
	}
	s.kept[ev] = serve
}

// lineHash is the 64-bit FNV-1a hash of e's rendered log line, which
// is rendered into a reused buffer: it allocates nothing.
func (s *Served) lineHash(e *wmslog.Entry) uint64 {
	s.line = wmslog.AppendEntry(s.line[:0], e)
	s.hash.Reset()
	s.hash.Write(s.line)
	return s.hash.Sum64()
}

// Realization is the hex realization digest of every entry scanned,
// lost events and duplicate serves included (wmslog.Realization).
func (s *Served) Realization() string { return s.realization.Digest() }
