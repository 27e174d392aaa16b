// Package layers holds the traced half of the repo benchmark: the span
// recorder, in-process replicas of the commands the end-to-end
// workloads run (pipeline.go), and one probe file per internal layer
// that times calls into that layer's public functions. Everything here
// observes the program from outside — spans inside the program are a
// later issue — so deleting a layer API breaks exactly one file.
package layers

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public function.
type Span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // span ID, -1 for a root
	Workload string `json:"workload"`
	Rep      int    `json:"rep"` // always 0: each replica is traced once
	// BusyNS is set on aggregate spans: many short calls (a per-entry
	// sink) folded into one span whose interval runs from the first
	// call to the last and whose cost is the summed time inside them.
	BusyNS int64 `json:"busy_ns,omitempty"`
	Calls  int64 `json:"calls,omitempty"`
}

// Tracer keeps spans in memory until WriteFile. A nil *Tracer is
// tracing turned off: Begin and End cost a nil check, which is what
// the tracing-overhead metric compares the traced replica against.
type Tracer struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a span recorder for one workload.
func NewTracer(workload string) *Tracer {
	return &Tracer{workload: workload, origin: time.Now()}
}

// Begin opens a span under parent (-1 for a root) and returns its ID.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Name: name, StartNS: now, EndNS: now, Parent: parent, Workload: t.workload})
	t.mu.Unlock()
	return id
}

// End closes the span.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// Aggregate records many short calls as one span: first and last are
// offsets of the first call's start and the last call's end.
func (t *Tracer) Aggregate(name string, parent int, first, last time.Time, busy time.Duration, calls int64) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans), Name: name, Parent: parent, Workload: t.workload,
		StartNS: first.Sub(t.origin).Nanoseconds(), EndNS: last.Sub(t.origin).Nanoseconds(),
		BusyNS: busy.Nanoseconds(), Calls: calls,
	})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as a JSON array.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// SelfRow is one line of the self-time table: every span of one name.
type SelfRow struct {
	Name   string
	Calls  int64
	SelfNS int64
}

// SelfTimes folds spans into per-name self time: a span's duration
// minus the part of its interval its child spans cover. Aggregate
// spans count their busy time and cover nothing of their parent (their
// calls run on another goroutine, overlapping it). wallNS is the summed
// duration of the root spans; the rows sum to it exactly when children
// nest inside their parents, so the root's own row is the unattributed
// residual.
func SelfTimes(spans []Span) (rows []SelfRow, wallNS int64) {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 && s.BusyNS == 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*SelfRow)
	for _, s := range spans {
		row := byName[s.Name]
		if row == nil {
			row = &SelfRow{Name: s.Name}
			byName[s.Name] = row
		}
		if s.BusyNS > 0 {
			row.Calls += s.Calls
			row.SelfNS += s.BusyNS
			continue
		}
		row.Calls++
		row.SelfNS += s.EndNS - s.StartNS - covered(children[s.ID], s.StartNS, s.EndNS)
		if s.Parent < 0 {
			wallNS += s.EndNS - s.StartNS
		}
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfNS != rows[j].SelfNS {
			return rows[i].SelfNS > rows[j].SelfNS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, wallNS
}

// covered is the length of the union of the child intervals, clipped
// to [lo, hi]; concurrent children (the live clients) overlap.
func covered(kids []Span, lo, hi int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	end := lo
	for _, k := range kids {
		a, b := max(k.StartNS, end), min(k.EndNS, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// rootNames is the set of names root spans carry.
func rootNames(spans []Span) map[string]bool {
	roots := make(map[string]bool)
	for _, s := range spans {
		if s.Parent < 0 {
			roots[s.Name] = true
		}
	}
	return roots
}

// Residual is the root spans' self time — the part of the run no layer
// call accounts for — as a share of the traced wall, and that wall.
func Residual(spans []Span) (share float64, wall time.Duration) {
	roots := rootNames(spans)
	rows, wallNS := SelfTimes(spans)
	var residual int64
	for _, r := range rows {
		if roots[r.Name] {
			residual += r.SelfNS
		}
	}
	return float64(residual) / float64(max(wallNS, 1)), time.Duration(wallNS)
}

// PrintSelfTimes renders the self-time table. overlapping marks a
// pipeline whose stages run concurrently (gen_logs, live_loop): its
// rows are busy times and may sum past the wall.
func PrintSelfTimes(w io.Writer, workload string, spans []Span, overlapping bool) {
	roots := rootNames(spans)
	rows, wall := SelfTimes(spans)
	kind := "self time; rows sum to the traced wall"
	if overlapping {
		kind = "busy time of overlapping stages; rows need not sum to the wall"
	}
	fmt.Fprintf(w, "trace %s: traced wall %.1f ms (%s)\n", workload, float64(wall)/1e6, kind)
	for _, r := range rows {
		name := r.Name
		if roots[name] {
			name += " (unattributed residual)"
		}
		fmt.Fprintf(w, "  %-46s %9d calls %10.2f ms %6.1f%% of wall\n",
			name, r.Calls, float64(r.SelfNS)/1e6, 100*float64(r.SelfNS)/float64(max(wall, 1)))
	}
}
