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
	"iter"
	"slices"

	"repro/internal/trace"
)

// DefaultTimeout is the paper's session timeout T_o = 1,500 seconds.
const DefaultTimeout int64 = 1500

// ErrBadTimeout reports a non-positive T_o.
var ErrBadTimeout = errors.New("sessions: timeout must be positive")

// Set is a trace sessionized at a given timeout: the trace walked once
// into a Sessionizer.
type Set struct {
	z  *Sessionizer
	tr *trace.Trace
}

// Sessionize groups each client's transfers into sessions using timeout
// T_o (seconds): a client's running session closes whenever the silent
// gap (next start minus the latest end so far) exceeds the timeout.
// Overlapping transfers extend coverage and can never split a session.
// It walks tr into a Sessionizer, which keeps one Span per session.
//
//lsm:keep -- benchmark/layers/sessions.go probe; ROADMAP item 4a deletes
func Sessionize(tr *trace.Trace, timeout int64) (*Set, error) {
	z, err := NewSessionizer(timeout, 0)
	if err != nil {
		return nil, err
	}
	return &Set{z: z.feed(tr), tr: tr}, nil
}

// Span is one client session — a maximal run of transfers by one
// client with no silent gap exceeding T_o — without its transfer list:
// whose it is, when it starts (its first transfer's start) and ends
// (the latest end among its transfers) and how many transfers it holds.
type Span struct {
	Start, End int64
	Client     int32
	Count      int32
}

// On returns the session ON time End - Start, in seconds.
func (s Span) On() int64 { return s.End - s.Start }

// Sessionizer is sessionization one transfer at a time: fed a trace's
// transfers in the trace order (or any order in which no client's
// starts decrease: the sessions are the same), it assigns each to its
// client's session and keeps only what the session and client layers
// read — a Span per session, each client's session count, the session
// OFF times and the intra-session interarrival times — never the
// transfers or their indices. Its memory is a few words per session
// and per client, and 12 bytes per transfer that joins a running
// session.
type Sessionizer struct {
	timeout int64

	direct []clientState          // by client id, for ids in [0, directClients)
	sparse map[int32]*clientState // the other ids

	// spans holds every session so far, in open order, in blocks of
	// spanBlock: all but the last are full.
	spans  [][]Span
	nspans int

	offs []float64 // OFF times, in the order their second session opened

	// gaps holds the intra-session interarrival times in walk order,
	// gapSession beside each the index of its session; IntraArrivals
	// permutes them into session order.
	gaps       []float64
	gapSession []int32

	// Figure 9's sweep (TallyGaps): the timeouts as given and sorted;
	// exceeds[k] counts the silent gaps above exactly the k smallest.
	sweepTimeouts, sweepSorted []int64
	exceeds                    []int
}

// clientState is what a Sessionizer holds per client.
type clientState struct {
	latest    int32 // 1 + index of the client's latest session; 0 before its first
	sessions  int32 // the client's session count
	lastStart int64 // start of the client's latest transfer
}

// directClients bounds the direct-address half of a Sessionizer's
// client table: the generator, the server and the log ingest number
// clients densely from 0, so their ids index a slice (16 bytes an id,
// up to the largest id met); any other id goes through a map.
const directClients = 1 << 22

// NewSessionizer returns an empty Sessionizer at timeout T_o (seconds)
// with room for the ids [0, clients) — the population's, when the
// caller knows it (0 if not): a table sized once.
func NewSessionizer(timeout int64, clients int) (*Sessionizer, error) {
	if timeout <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadTimeout, timeout)
	}
	return &Sessionizer{
		timeout: timeout,
		direct:  make([]clientState, 0, min(max(clients, 0), directClients)),
		sparse:  make(map[int32]*clientState),
		// Empty, not nil, when there is nothing to keep: the samples
		// are the layers' fields as they are.
		offs:       []float64{},
		gaps:       []float64{},
		gapSession: []int32{},
	}, nil
}

// client returns the state of client id, made on first use.
func (z *Sessionizer) client(id int32) *clientState {
	if id >= 0 && id < directClients {
		if int(id) >= len(z.direct) {
			// Without a hint ids come densely, often one new id at a
			// time: the table doubles, so it is copied a logarithmic
			// number of times.
			if int(id) >= cap(z.direct) {
				grown := make([]clientState, len(z.direct), max(int(id)+1, 2*cap(z.direct)))
				copy(grown, z.direct)
				z.direct = grown
			}
			z.direct = z.direct[:id+1]
		}
		return &z.direct[id]
	}
	c := z.sparse[id]
	if c == nil {
		c = &clientState{}
		z.sparse[id] = c
	}
	return c
}

// Add assigns t, the next transfer in the trace order, to a session:
// the client's running one when t starts no more than T_o after the
// latest end among that session's transfers, else a new one. It
// returns the session's index in Spans and whether t opened it.
//
//lsm:hotpath
func (z *Sessionizer) Add(t *trace.Transfer) (session int, opened bool) {
	c := z.client(t.Client)
	if c.latest != 0 {
		cur := z.span(int(c.latest - 1))
		if z.exceeds != nil && t.Start > cur.End {
			k, _ := slices.BinarySearch(z.sweepSorted, t.Start-cur.End) // sorted[:k] < gap <= sorted[k:]
			z.exceeds[k]++
		}
		if t.Start-cur.End <= z.timeout {
			cur.End = max(cur.End, t.End())
			cur.Count++
			z.gaps = append(z.gaps, float64(t.Start-c.lastStart))
			z.gapSession = append(z.gapSession, c.latest-1)
			c.lastStart = t.Start
			return int(c.latest - 1), false
		}
		if off := t.Start - cur.End; off >= 0 {
			z.offs = append(z.offs, float64(off))
		}
	}
	if z.nspans%spanBlock == 0 {
		z.spans = append(z.spans, make([]Span, 0, spanBlock))
	}
	last := &z.spans[len(z.spans)-1]
	*last = append(*last, Span{Start: t.Start, End: t.End(), Client: t.Client, Count: 1})
	z.nspans++
	c.latest = int32(z.nspans)
	c.sessions++
	c.lastStart = t.Start
	return z.nspans - 1, true
}

// spanBlock is the length of a block of spans (24 KB). The spans are
// held in blocks so that a Sessionizer never copies one as it grows and
// holds at most one block more than it needs.
const spanBlock = 1 << 10

// span returns session i's span.
func (z *Sessionizer) span(i int) *Span { return &z.spans[i/spanBlock][i%spanBlock] }

// Sessions returns the number of sessions so far.
func (z *Sessionizer) Sessions() int { return z.nspans }

// Spans yields every session so far in the order they opened: for
// transfers fed in the trace order, the (Start, Client) order.
func (z *Sessionizer) Spans() iter.Seq[Span] {
	return func(yield func(Span) bool) {
		for _, block := range z.spans {
			for _, s := range block {
				if !yield(s) {
					return
				}
			}
		}
	}
}

// Clients returns the number of distinct clients so far.
func (z *Sessionizer) Clients() int {
	n := len(z.sparse)
	for i := range z.direct {
		if z.direct[i].sessions > 0 {
			n++
		}
	}
	return n
}

// SessionsPerClient returns each client's session count, in ascending
// client-id order.
func (z *Sessionizer) SessionsPerClient() []int {
	out := make([]int, 0, z.Clients())
	z.eachClient(func(_ int32, c *clientState) { out = append(out, int(c.sessions)) })
	return out
}

// TransfersPerClient returns each client's transfer count, in ascending
// client-id order: the sum of its sessions' counts.
func (z *Sessionizer) TransfersPerClient() []int {
	direct := make([]int, len(z.direct))
	sparse := make(map[int32]int, len(z.sparse))
	for s := range z.Spans() {
		if s.Client >= 0 && s.Client < directClients {
			direct[s.Client] += int(s.Count)
		} else {
			sparse[s.Client] += int(s.Count)
		}
	}
	out := make([]int, 0, z.Clients())
	z.eachClient(func(id int32, _ *clientState) {
		if id >= 0 && id < directClients {
			out = append(out, direct[id])
		} else {
			out = append(out, sparse[id])
		}
	})
	return out
}

// eachClient calls f with every client seen and its state, in ascending
// client-id order.
func (z *Sessionizer) eachClient(f func(id int32, c *clientState)) {
	ids := make([]int32, 0, len(z.sparse))
	for id := range z.sparse { //lsm:nondet -- the ids are sorted below
		ids = append(ids, id)
	}
	slices.Sort(ids)
	neg, _ := slices.BinarySearch(ids, 0) // ids[:neg] < 0 <= ids[neg:], all of which are at least directClients
	for _, id := range ids[:neg] {
		f(id, z.sparse[id])
	}
	for i := range z.direct {
		if c := &z.direct[i]; c.sessions > 0 {
			f(int32(i), c)
		}
	}
	for _, id := range ids[neg:] {
		f(id, z.sparse[id])
	}
}

// OffTimes returns the session OFF times f(i) = t(j) - t(i) - l(i) for
// every pair of consecutive sessions (i, j) of the same client, in the
// order the second sessions opened. The slice is the Sessionizer's.
func (z *Sessionizer) OffTimes() []float64 { return z.offs }

// IntraArrivals returns the gaps between consecutive transfer starts
// within each session (Figure 14's variable), in session order — the
// order the session layer's fit sums them in. The gaps were kept in
// walk order; the first call permutes them into session order in place,
// each session's k-1 gaps to its own window, and drops the session
// indices. The slice is the Sessionizer's.
func (z *Sessionizer) IntraArrivals() []float64 {
	if z.gapSession == nil {
		return z.gaps
	}
	// next[s] is where session s's next gap goes: its sessions' gaps
	// come in walk order, which within one session is session order.
	next := make([]int32, 0, z.nspans)
	var at int32
	for s := range z.Spans() {
		next = append(next, at)
		at += s.Count - 1
	}
	dest := z.gapSession // rewritten in place: gap i's place in session order
	for i, s := range dest {
		dest[i] = next[s]
		next[s]++
	}
	for i := range dest {
		for int(dest[i]) != i {
			j := dest[i]
			z.gaps[i], z.gaps[j] = z.gaps[j], z.gaps[i]
			dest[i], dest[j] = dest[j], dest[i]
		}
	}
	z.gapSession = nil
	return z.gaps
}

// feed adds tr's transfers to z in the trace order and returns z.
//
//lsm:keep -- benchmark/layers/sessions.go probe; ROADMAP item 4a deletes
func (z *Sessionizer) feed(tr *trace.Trace) *Sessionizer {
	for i := range tr.Transfers {
		z.Add(&tr.Transfers[i])
	}
	return z
}

// Timeout returns the Sessionizer's T_o in seconds.
func (z *Sessionizer) Timeout() int64 { return z.timeout }

// Count returns the number of sessions.
//
//lsm:keep -- benchmark/layers/analyze.go probe; ROADMAP item 4a deletes
func (s *Set) Count() int { return s.z.Sessions() }

// Trace returns the underlying trace.
func (s *Set) Trace() *trace.Trace { return s.tr } //lsm:keep -- benchmark/layers/analyze.go probe; ROADMAP item 4a deletes

// Sessionizer returns a Sessionizer fed the set's trace: the set in
// its streaming form, with the samples the session and client layers
// read. Every call walks the trace afresh and returns a Sessionizer of
// the caller's own.
//
//lsm:keep -- benchmark/layers/analyze.go probe; ROADMAP item 4a deletes
func (s *Set) Sessionizer() *Sessionizer {
	z, _ := NewSessionizer(s.z.timeout, 0) // the set's timeout is valid: Sessionize checked it
	return z.feed(s.tr)
}

// ArrivalTimes returns every session's start time in seconds, sorted.
//
//lsm:keep -- benchmark/layers/core.go probe; ROADMAP item 4a deletes
func (s *Set) ArrivalTimes() []int64 {
	out := make([]int64, 0, s.z.Sessions())
	for sp := range s.z.Spans() {
		out = append(out, sp.Start)
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
// change drastically for T_o > 1,500 seconds") — by walking tr into a
// Sessionizer that tallies its silent gaps (TallyGaps).
//
//lsm:keep -- benchmark/layers/sessions.go probe; ROADMAP item 4a deletes
func SweepTimeout(tr *trace.Trace, timeouts []int64) ([]SweepPoint, error) {
	z, _ := NewSessionizer(DefaultTimeout, 0) // the sweep does not depend on the Sessionizer's own timeout
	if err := z.TallyGaps(timeouts); err != nil {
		return nil, err
	}
	return z.feed(tr).Sweep(), nil
}

// TallyGaps makes z tally, from the next transfer on, each silent gap
// — a start minus the latest end among its client's earlier transfers —
// against the sorted timeouts, for Sweep. That latest end is the End of
// the client's running session: a split at transfer j means Start_j
// exceeded every earlier end of the client, and later starts are no
// smaller. A session opens at a client's first transfer and at every
// gap above T_o, so sessions(T_o) = clients + #{gaps > T_o}; no gap is
// kept. A non-positive timeout is ErrBadTimeout.
func (z *Sessionizer) TallyGaps(timeouts []int64) error {
	for _, to := range timeouts {
		if to <= 0 {
			return fmt.Errorf("%w: %d", ErrBadTimeout, to)
		}
	}
	z.sweepTimeouts, z.sweepSorted = timeouts, slices.Sorted(slices.Values(timeouts))
	z.exceeds = make([]int, len(timeouts)+1)
	return nil
}

// Sweep returns the number of sessions at each timeout given to
// TallyGaps, in its order, over the transfers added since.
func (z *Sessionizer) Sweep() []SweepPoint {
	// above[j] = #{gaps > sorted[j]} = the tally of every k > j.
	above := slices.Clone(z.exceeds[1:])
	for j := len(above) - 2; j >= 0; j-- {
		above[j] += above[j+1]
	}
	clients := z.Clients()
	out := make([]SweepPoint, 0, len(z.sweepTimeouts))
	for _, to := range z.sweepTimeouts {
		j, _ := slices.BinarySearch(z.sweepSorted, to)
		out = append(out, SweepPoint{Timeout: to, Sessions: clients + above[j]})
	}
	return out
}
