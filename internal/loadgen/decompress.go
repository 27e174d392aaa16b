package loadgen

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/analyze"
	"repro/internal/sessions"
	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// DecompressEntries maps the server's wall-clock log entries from a
// compressed-time replay back onto the trace clock, producing entries
// a characterization run can consume as if the trace had been served in
// real time: timestamps become epoch + trace seconds, durations are
// re-expanded by the compression factor, and bandwidths are recomputed
// against trace-time durations.
//
// begin/origin/compression come from the replay's Result: wall instant
// begin corresponds to trace second origin, and every wall second spans
// compression trace seconds. The server log's 1-second resolution
// therefore quantizes reconstructed instants to ±compression trace
// seconds — validation must compare at a granularity (session timeout)
// comfortably above that.
func DecompressEntries(entries []*wmslog.Entry, begin time.Time, origin int64, compression float64, epoch time.Time) ([]*wmslog.Entry, error) {
	if compression <= 0 {
		return nil, fmt.Errorf("%w: compression %v", ErrBadConfig, compression)
	}
	out := make([]*wmslog.Entry, 0, len(entries))
	for _, e := range entries {
		traceEnd := origin + int64(math.Round(e.Timestamp.Sub(begin).Seconds()*compression))
		traceDur := int64(math.Round(float64(e.Duration) * compression))
		if traceDur < 1 {
			traceDur = 1
		}
		if traceEnd < traceDur {
			traceEnd = traceDur
		}
		bw := int64(0)
		if traceDur > 0 {
			bw = e.Bytes * 8 / traceDur
		}
		d := *e
		d.Timestamp = epoch.Add(time.Duration(traceEnd) * time.Second)
		d.Duration = traceDur
		d.AvgBandwidth = bw
		out = append(out, &d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Timestamp.Before(out[j].Timestamp) })
	return out, nil
}

// SafeTimeout finds a session timeout in the widest void of the
// offered workload's silent-gap distribution, at least slack
// trace-seconds from any actual gap. Decompression noise below slack
// then cannot move any gap across the timeout, so offered and served
// session counts can be compared exactly. Reasonable slack is a few
// multiples of the compression factor (the log's wall-second resolution
// re-expanded). Returns false if no gap-free band that wide exists.
//
// The events are walked in stream order, tracking each client's
// coverage (the latest end among its transfers so far): no client's
// starts decrease in that order, so a gap is a start past its client's
// coverage.
func SafeTimeout(events []workload.Event, horizon, slack int64) (int64, bool) {
	gaps := []int64{0}
	coverage := make(map[int]int64)
	for _, e := range events {
		c, seen := coverage[e.Client]
		if seen && e.Start > c {
			gaps = append(gaps, e.Start-c)
		}
		if !seen || e.End() > c {
			coverage[e.Client] = e.End()
		}
	}
	// A timeout above every observed gap is valid too (no session ever
	// splits), so the search space extends past the horizon.
	gaps = append(gaps, 4*horizon)
	slices.Sort(gaps)

	var best, bestWidth int64
	for i := 1; i < len(gaps); i++ {
		if w := gaps[i] - gaps[i-1]; w > bestWidth {
			bestWidth = w
			best = gaps[i-1] + w/2
		}
	}
	if bestWidth/2 < slack || best < 1 {
		return 0, false
	}
	return best, true
}

// Check compares a replay's offered events with what the server
// logged: the offered events go in stream order into one Sessionizer at
// timeout, and the served entries, decompressed onto the trace clock
// that starts at epoch (DecompressEntries), into another as rows in
// start order — each entry's start and duration, and as its client the
// first-seen ordinal of its c-playerid. analyze.CompareSessions
// compares the two.
func Check(offered []workload.Event, served []*wmslog.Entry, epoch time.Time, timeout int64) (*analyze.MatchReport, error) {
	off, err := sessions.NewSessionizer(timeout, 0)
	if err != nil {
		return nil, err
	}
	srv, _ := sessions.NewSessionizer(timeout, 0)
	for i, e := range offered {
		if e.Client != int(int32(e.Client)) {
			return nil, fmt.Errorf("%w: client %d beyond what a transfer can number", trace.ErrBadTrace, e.Client)
		}
		if i > 0 && e.Start < offered[i-1].Start {
			return nil, fmt.Errorf("%w: offered event %d starts at %d, before its predecessor", trace.ErrBadTrace, i, e.Start)
		}
		off.Add(&trace.Transfer{Client: int32(e.Client), Start: e.Start, Duration: e.Duration})
	}
	clients := make(map[string]int32)
	rows := make([]trace.Transfer, 0, len(served))
	for _, e := range served {
		id, ok := clients[e.PlayerID]
		if !ok {
			id = int32(len(clients))
			clients[e.PlayerID] = id
		}
		end := int64(e.Timestamp.Sub(epoch) / time.Second)
		rows = append(rows, trace.Transfer{Client: id, Start: end - e.Duration, Duration: e.Duration})
	}
	slices.SortStableFunc(rows, func(a, b trace.Transfer) int { return cmp.Compare(a.Start, b.Start) })
	for i := range rows {
		srv.Add(&rows[i])
	}
	return analyze.CompareSessions(off, srv), nil
}
