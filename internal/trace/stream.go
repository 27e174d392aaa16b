package trace

import (
	"fmt"
	"sort"
)

// Stream is the sanitize-and-order stage for transfers handed over one
// at a time in start order — a serve run's Transfer sink — on their way
// to a consumer that reads them in the trace order without a trace
// being built (core.Observer). Each transfer goes through Section 2.4's
// test (Sanitize); the kept ones are passed on in the trace order
// (before), a group of equal starts at a time, so a consumer sees
// exactly the rows, in exactly the order, of the trace Collector would
// have built from the same transfers.
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
	if len(s.group) > 1 {
		sort.Sort(byStart(s.group))
	}
	for i := range s.group {
		s.emit(&s.group[i])
	}
	s.group = s.group[:0]
}
