// Package workload defines the pull-based, time-ordered event-stream
// interface the generate → serve → measure pipeline runs on.
//
// The pipeline used to materialize every request as an in-memory slice
// before serving it; at the paper's full scale (691,889 clients, ~5.5M
// transfers over 28 days) that caps throughput on memory. A Stream
// instead yields one Event at a time in a deterministic total order, so
// the simulator and the online estimators hold only O(active sessions)
// of state while the generator shards the work across CPUs
// (internal/gismo's sharded generator is the canonical producer).
package workload

// Event is one scheduled transfer request flowing through the pipeline.
// Session and Seq identify the event's provenance: Session is the
// global session index in arrival order, Seq the transfer's position
// within its session. Together with Start they define the stream's
// total order, which is what makes sharded generation reproducible: any
// partitioning of sessions across shards merges back into the same
// sequence.
type Event struct {
	Session  int   // global session index (unique, arrival order)
	Seq      int   // transfer index within the session
	Client   int   // dense client ID
	Object   int   // live object index
	Start    int64 // seconds since trace start
	Duration int64 // seconds
}

// End returns Start + Duration.
func (e Event) End() int64 { return e.Start + e.Duration }

// Less reports whether e precedes f in the stream's total order:
// (Start, Session, Seq) lexicographically. Within a session, Seq
// increases with time, so this order is consistent with time order.
func (e Event) Less(f Event) bool {
	if e.Start != f.Start {
		return e.Start < f.Start
	}
	if e.Session != f.Session {
		return e.Session < f.Session
	}
	return e.Seq < f.Seq
}

// Stream is a pull-based, time-ordered event source. Next returns the
// next event in (Start, Session, Seq) order, or false when the stream
// is exhausted. Streams are single-consumer: Next must not be called
// concurrently.
type Stream interface {
	Next() (Event, bool)
}

// Closer is the optional teardown half of a Stream: producers backed by
// goroutines (the sharded generator) implement it so an abandoned
// stream does not leak. Close is idempotent; a fully drained stream
// does not need it.
type Closer interface {
	Close()
}

// CloseStream closes s if it implements Closer.
func CloseStream(s Stream) {
	if c, ok := s.(Closer); ok {
		c.Close()
	}
}

// SliceStream replays a materialized event slice. The slice must
// already be in stream order.
type SliceStream struct {
	events []Event
	pos    int
}

// NewSliceStream wraps events, which must be in (Start, Session, Seq)
// order.
//
//lsm:keep -- benchmark/layers probes (simulate.go, loadgen.go, workload.go, fixture.go) and Workload.Stream; ROADMAP item 4a deletes
func NewSliceStream(events []Event) *SliceStream {
	return &SliceStream{events: events}
}

// Next implements Stream.
//
//lsm:keep -- benchmark/layers probes, through NewSliceStream; ROADMAP item 4a deletes
func (s *SliceStream) Next() (Event, bool) {
	if s.pos >= len(s.events) {
		return Event{}, false
	}
	e := s.events[s.pos]
	s.pos++
	return e, true
}

// Drain pulls the stream to exhaustion and returns all events. sizeHint
// (may be 0) pre-allocates the result.
func Drain(s Stream, sizeHint int) []Event {
	out := make([]Event, 0, sizeHint)
	for {
		e, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}
