package loadgen

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/analyze"
	"repro/internal/sessions"
	"repro/internal/trace"
	"repro/internal/workload"
)

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

// Check compares a replay's offered events with what its servers
// logged: the offered events go in stream order into one Sessionizer
// at timeout, and the served rows (each entry's trace-clock start and
// duration, and as its client the first-seen ordinal of its
// c-playerid), in start order, into another. analyze.CompareSessions
// compares the two. Check orders served's rows in place.
func Check(offered []workload.Event, served *Served, timeout int64) (*analyze.MatchReport, error) {
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
	rows := served.rows
	slices.SortStableFunc(rows, func(a, b trace.Transfer) int { return cmp.Compare(a.Start, b.Start) })
	for i := range rows {
		srv.Add(&rows[i])
	}
	return analyze.CompareSessions(off, srv), nil
}
