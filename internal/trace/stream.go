package trace

import (
	"fmt"
	"slices"
	"sort"
)

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
