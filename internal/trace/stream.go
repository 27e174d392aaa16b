package trace

import (
	"fmt"
	"slices"
	"sort"
)

// Stream is the sanitize-and-order stage for transfers handed over one
// at a time in start order — a serve run's Transfer sink — on their way
// to a consumer that reads them in the trace order without a trace
// being built (core.Observer). Each transfer goes through Section 2.4's
// test (Sanitize); the kept ones are passed on in the trace order
// (before), a group of equal starts at a time, so a consumer sees
// exactly the rows, in exactly the order, of the trace New followed by
// Sanitize builds from the same transfers.
type Stream struct {
	horizon int64
	emit    func(*Transfer)
	report  SanitizeReport
	group   []Transfer // kept transfers sharing the latest start, in arrival order
}

// NewStream returns a stream over horizon seconds that hands each kept
// transfer to emit. The pointer is valid only for the duration of the
// call.
func NewStream(horizon int64, emit func(*Transfer)) (*Stream, error) {
	if err := checkHorizon(horizon); err != nil {
		return nil, err
	}
	return &Stream{horizon: horizon, emit: emit}, nil
}

// Add takes one transfer. Only the kept transfers must come in start
// order — a serve run's spanning rows, the only ones it hands over out
// of that order, are dropped first — and a kept transfer that starts
// before an earlier kept one is an ErrBadTrace error: the stream holds
// one start's transfers, not a trace, and cannot reorder across starts.
func (s *Stream) Add(t Transfer) error {
	if !s.report.keep(&t, s.horizon) {
		return nil
	}
	if len(s.group) > 0 && t.Start != s.group[0].Start {
		if t.Start < s.group[0].Start {
			return fmt.Errorf("%w: transfer starting at %d after one starting at %d", ErrBadTrace, t.Start, s.group[0].Start)
		}
		s.flush()
	}
	s.group = append(s.group, t)
	return nil
}

// Close passes on the last transfers held and returns what sanitizing
// kept and dropped.
func (s *Stream) Close() SanitizeReport {
	s.flush()
	return s.report
}

// flush passes on the held group of equal starts in the trace order.
func (s *Stream) flush() {
	sortGroup(s.group)
	for i := range s.group {
		s.emit(&s.group[i])
	}
	s.group = s.group[:0]
}

// merger is the merge stage: it hands rows on in the trace order and
// holds those a later run may yet sort before.
type merger struct {
	emit    func(*Transfer)
	stop    bool       // merge nothing more once the order breaks
	tail    []Transfer // the held rows, sorted, none starting before the last watermark
	last    Transfer   // the last row handed on; at first, one before every kept row
	ordered bool       // no row handed on sorts before one handed on earlier
}

// merge merges the sorted run with the held tail, hands on every row
// that starts before the watermark w and holds the rest: only the rows
// at or after w are copied, and into the tail's own buffer. Every row
// of run must sort no earlier than the last row handed on — the tail's
// do by construction — and since run is sorted its first row tells;
// one that does not breaks the order.
func (m *merger) merge(run []Transfer, w int64) {
	if len(run) > 0 && before(&run[0], &m.last) {
		if m.ordered = false; m.stop {
			return
		}
	}
	t := m.tail
	a := sort.Search(len(t), func(i int) bool { return t[i].Start >= w })
	b := sort.Search(len(run), func(i int) bool { return run[i].Start >= w })
	mergeRuns(t[:a], run[:b], m.emit)
	if a > 0 && (b == 0 || before(&run[b-1], &t[a-1])) {
		m.last = t[a-1]
	} else if b > 0 {
		m.last = run[b-1]
	}
	// The held rows move to the front of the buffer, which grows once
	// to the new tail's length; the merge then fills it from the back.
	// Its write index stays at or past the tail row it reads next — it
	// is that index plus the run rows still to place — so it never
	// overwrites a row still to be read.
	i := copy(t, t[a:]) - 1
	rest := run[b:]
	t = slices.Grow(t[:i+1], len(rest))[:i+1+len(rest)]
	for j, k := len(rest)-1, len(t)-1; j >= 0; k-- {
		if i >= 0 && before(&rest[j], &t[i]) {
			t[k] = t[i]
			i--
		} else {
			t[k] = rest[j]
			j--
		}
	}
	m.tail = t
}

// mergeRuns hands the rows of the sorted runs x and y to out in the
// trace order.
func mergeRuns(x, y []Transfer, out func(*Transfer)) {
	for len(x) > 0 && len(y) > 0 {
		if before(&y[0], &x[0]) {
			out(&y[0])
			y = y[1:]
		} else {
			out(&x[0])
			x = x[1:]
		}
	}
	for i := range x {
		out(&x[i])
	}
	for i := range y {
		out(&y[i])
	}
}
