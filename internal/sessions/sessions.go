// Package sessions groups a client's transfers into sessions, making the
// paper's Section 2.2 terminology executable.
//
// A client session is "the interval of time during which the client is
// actively engaged in requesting (and receiving) live objects ... such
// that the duration of any period of no transfers between the server and
// the client does not exceed a preset threshold T_o". Figure 1 relates
// the resulting ON/OFF structure at the session layer (session ON time,
// session OFF a.k.a. "log-off" time) and at the transfer layer (transfer
// ON runs, transfer OFF a.k.a. "think" times, necessarily below T_o).
//
// The paper settles on T_o = 1,500 seconds after the sensitivity sweep of
// Figure 9; DefaultTimeout mirrors that.
package sessions

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
	"repro/internal/trace"
)

// DefaultTimeout is the paper's session timeout T_o = 1,500 seconds.
const DefaultTimeout int64 = 1500

// ErrBadTimeout reports a non-positive T_o.
var ErrBadTimeout = errors.New("sessions: timeout must be positive")

// Session is one client session: a maximal run of transfers by one client
// with no silent gap exceeding T_o.
type Session struct {
	Client    int
	Transfers []int // indices into the trace's Transfers slice, start order
	Start     int64 // start of the first transfer
	End       int64 // latest end among the session's transfers
}

// On returns the session ON time l(i) = End - Start, in seconds.
func (s Session) On() int64 { return s.End - s.Start }

// Count returns the number of transfers in the session.
func (s Session) Count() int { return len(s.Transfers) }

// Set is the result of sessionizing a trace at a given timeout.
type Set struct {
	Timeout  int64
	Sessions []Session // sorted by (Start, Client)
	tr       *trace.Trace
}

// Sessionize groups each client's transfers into sessions using timeout
// T_o (seconds): a client's running session closes whenever the silent
// gap (next start minus the latest end so far) exceeds the timeout.
// Overlapping transfers extend coverage and can never split a session.
//
// It is one walk over the trace. Transfers are (Start, Client)-sorted
// and a session starts with its first transfer, so opening sessions in
// walk order emits them already (Start, Client)-sorted; a session's
// transfers are consecutive in its client's index row, so Transfers is
// a window onto that row, not a copy.
func Sessionize(tr *trace.Trace, timeout int64) (*Set, error) {
	if timeout <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadTimeout, timeout)
	}
	ci := tr.ByClient()
	seen := make([]int, ci.Len())   // transfers of the client walked so far
	open := make([]int32, ci.Len()) // 1 + index in out of its running session
	// A session opens at a client's first transfer and at every silent
	// gap above the timeout (see SweepTimeout), so out is allocated once.
	splits := 0
	walkSilentGaps(tr, func(gap int64) {
		if gap > timeout {
			splits++
		}
	})
	out := make([]Session, 0, ci.Len()+splits)
	for i := range tr.Transfers {
		t := &tr.Transfers[i]
		k := ci.Slot(i)
		row, p := ci.Transfers(k), seen[k]
		seen[k]++
		if o := open[k]; o != 0 && t.Start-out[o-1].End <= timeout {
			cur := &out[o-1]
			cur.Transfers = row[p-len(cur.Transfers) : p+1 : p+1]
			cur.End = max(cur.End, t.End())
			continue
		}
		out = append(out, Session{Client: ci.Client(k), Transfers: row[p : p+1 : p+1], Start: t.Start, End: t.End()})
		open[k] = int32(len(out))
	}
	return &Set{Timeout: timeout, Sessions: out, tr: tr}, nil
}

// Count returns the number of sessions.
func (s *Set) Count() int { return len(s.Sessions) }

// Trace returns the underlying trace.
func (s *Set) Trace() *trace.Trace { return s.tr }

// OnTimes returns l(i) for every session, honoring the paper's ⌊t+1⌋
// convention via +1 applied by callers when needed; raw seconds here.
func (s *Set) OnTimes() []float64 {
	out := make([]float64, len(s.Sessions))
	for i, sess := range s.Sessions {
		out[i] = float64(sess.On())
	}
	return out
}

// OffTimes returns the session OFF times f(i) = t(j) - t(i) - l(i) for
// every pair of consecutive sessions (i, j) of the same client, sorted
// ascending. Every client has a session, so there are at most
// Count() - clients pairs: the slice is made once at that size.
func (s *Set) OffTimes() []float64 {
	// Sessions is start-sorted, so a client's previous session is the
	// last one of that client walked so far.
	ci := s.tr.ByClient()
	prev := make([]int32, ci.Len()) // 1 + index of the client's previous session
	out := make([]float64, 0, max(len(s.Sessions)-ci.Len(), 0))
	for i := range s.Sessions {
		next := &s.Sessions[i]
		k := ci.Slot(next.Transfers[0])
		if p := prev[k]; p != 0 {
			if off := next.Start - s.Sessions[p-1].End; off >= 0 {
				out = append(out, float64(off))
			}
		}
		prev[k] = int32(i + 1)
	}
	stats.SortInPlace(out)
	return out
}

// TransfersPerSession returns the transfer count of every session.
func (s *Set) TransfersPerSession() []int {
	out := make([]int, len(s.Sessions))
	for i, sess := range s.Sessions {
		out[i] = sess.Count()
	}
	return out
}

// IntraSessionInterarrivals returns the gaps between consecutive transfer
// start times within each session (Figure 14's variable), in session
// order. Each session of k transfers has k-1 gaps, so the slice is made
// once at the trace's transfer count less the session count.
func (s *Set) IntraSessionInterarrivals() []float64 {
	out := make([]float64, 0, max(s.tr.NumTransfers()-len(s.Sessions), 0))
	for _, sess := range s.Sessions {
		for k := 1; k < len(sess.Transfers); k++ {
			a := s.tr.Transfers[sess.Transfers[k-1]].Start
			b := s.tr.Transfers[sess.Transfers[k]].Start
			out = append(out, float64(b-a))
		}
	}
	return out
}

// TransferOffTimes returns the silent gaps inside sessions — the "think"
// (active OFF) times of Figure 1. Every value is <= T_o by construction.
func (s *Set) TransferOffTimes() []float64 {
	var out []float64
	for _, sess := range s.Sessions {
		coverageEnd := int64(-1)
		for _, ti := range sess.Transfers {
			t := &s.tr.Transfers[ti]
			if coverageEnd >= 0 && t.Start > coverageEnd {
				out = append(out, float64(t.Start-coverageEnd))
			}
			if t.End() > coverageEnd {
				coverageEnd = t.End()
			}
		}
	}
	return out
}

// TransferOnRuns returns the lengths of maximal intervals within sessions
// during which at least one transfer is active (the transfer ON times of
// Figure 1, which can span overlapped transfers of multiple objects).
func (s *Set) TransferOnRuns() []float64 {
	var out []float64
	for _, sess := range s.Sessions {
		runStart := int64(-1)
		coverageEnd := int64(-1)
		for _, ti := range sess.Transfers {
			t := &s.tr.Transfers[ti]
			if runStart < 0 {
				runStart, coverageEnd = t.Start, t.End()
				continue
			}
			if t.Start > coverageEnd {
				out = append(out, float64(coverageEnd-runStart))
				runStart, coverageEnd = t.Start, t.End()
				continue
			}
			if t.End() > coverageEnd {
				coverageEnd = t.End()
			}
		}
		if runStart >= 0 {
			out = append(out, float64(coverageEnd-runStart))
		}
	}
	return out
}

// ArrivalTimes returns every session's start time in seconds, sorted.
func (s *Set) ArrivalTimes() []int64 {
	out := make([]int64, len(s.Sessions))
	for i, sess := range s.Sessions {
		out[i] = sess.Start
	}
	return out
}

// SweepPoint is one (timeout, session count) sample of the Figure 9 curve.
type SweepPoint struct {
	Timeout  int64
	Sessions int
}

// SweepTimeout evaluates the number of sessions at each timeout value —
// the sensitivity analysis of Figure 9 ("the number of sessions does not
// change drastically for T_o > 1,500 seconds").
//
// It sessionizes nothing. A client's silent gap before its k-th transfer
// is Start_k minus the latest end among its earlier transfers, whatever
// the timeout (see walkSilentGaps), and a session opens at a client's
// first transfer and at every gap above T_o, so
// sessions(T_o) = clients + #{gaps > T_o}. One walk tallies each gap
// against the sorted timeouts — the number of timeouts it exceeds, by
// binary search — and a suffix sum over the tally counts, for each
// timeout, the gaps above it. No gap is kept.
func SweepTimeout(tr *trace.Trace, timeouts []int64) ([]SweepPoint, error) {
	for _, to := range timeouts {
		if to <= 0 {
			return nil, fmt.Errorf("%w: %d", ErrBadTimeout, to)
		}
	}
	sorted := slices.Clone(timeouts)
	slices.Sort(sorted)
	// exceeds[k] counts the gaps above exactly the k smallest timeouts.
	exceeds := make([]int, len(sorted)+1)
	walkSilentGaps(tr, func(gap int64) {
		k, _ := slices.BinarySearch(sorted, gap) // sorted[:k] < gap <= sorted[k:]
		exceeds[k]++
	})
	// above[j] = #{gaps > sorted[j]} = the tally of every k > j.
	above := exceeds[1:]
	for j := len(above) - 2; j >= 0; j-- {
		above[j] += above[j+1]
	}
	out := make([]SweepPoint, 0, len(timeouts))
	for _, to := range timeouts {
		j, _ := slices.BinarySearch(sorted, to)
		out = append(out, SweepPoint{Timeout: to, Sessions: tr.NumClients() + above[j]})
	}
	return out, nil
}

// walkSilentGaps calls visit, in trace order, with every positive gap
// between a transfer's start and the latest end among the same
// client's earlier transfers. These are exactly the gaps Sessionize
// compares with T_o: its running End is the latest end within the
// current session only, but a session split at transfer j means
// Start_j exceeded every earlier end of the client, and later starts
// are no smaller, so ends from closed sessions can never be the latest
// that matters.
func walkSilentGaps(tr *trace.Trace, visit func(gap int64)) {
	ci := tr.ByClient()
	const unseen = math.MinInt64
	latest := make([]int64, ci.Len()) // latest end per client so far
	for k := range latest {
		latest[k] = unseen
	}
	for i := range tr.Transfers {
		t := &tr.Transfers[i]
		k := ci.Slot(i)
		if latest[k] != unseen && t.Start > latest[k] {
			visit(t.Start - latest[k])
		}
		latest[k] = max(latest[k], t.End())
	}
}
