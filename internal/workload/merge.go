package workload

// Merge combines already-ordered streams into one ordered stream. The
// result follows the (Start, Session, Seq) total order, so merging is
// deterministic regardless of how events were partitioned across the
// inputs — the property the sharded generator's reproducibility rests
// on. Inputs must each be in stream order; events must not repeat a
// (Session, Seq) pair across inputs.
//
//lsm:keep -- benchmark/layers/workload.go's merge probe; ROADMAP item 4a deletes
func Merge(streams ...Stream) Stream {
	switch len(streams) {
	case 0:
		return NewSliceStream(nil)
	case 1:
		return streams[0]
	}
	m := &mergeStream{inputs: make([]mergeHead, 0, len(streams))}
	for _, s := range streams {
		if e, ok := s.Next(); ok {
			m.inputs = append(m.inputs, mergeHead{src: s, head: e})
		}
	}
	return m
}

type mergeHead struct {
	src  Stream
	head Event
}

// mergeStream is a loop-min K-way merge. K is the shard count (small),
// so a linear scan beats heap bookkeeping and stays allocation-free.
type mergeStream struct {
	inputs []mergeHead
}

// Next implements Stream.
//
//lsm:keep -- benchmark/layers/workload.go's merge probe, through Merge; ROADMAP item 4a deletes
func (m *mergeStream) Next() (Event, bool) {
	if len(m.inputs) == 0 {
		return Event{}, false
	}
	best := 0
	for i := 1; i < len(m.inputs); i++ {
		if m.inputs[i].head.Less(m.inputs[best].head) {
			best = i
		}
	}
	e := m.inputs[best].head
	if next, ok := m.inputs[best].src.Next(); ok {
		m.inputs[best].head = next
	} else {
		last := len(m.inputs) - 1
		m.inputs[best] = m.inputs[last]
		m.inputs = m.inputs[:last]
	}
	return e, true
}

// Close implements Closer, closing any input that needs it.
//
//lsm:keep -- benchmark/layers/workload.go's merge probe, through Merge; ROADMAP item 4a deletes
func (m *mergeStream) Close() {
	for _, in := range m.inputs {
		CloseStream(in.src)
	}
	m.inputs = nil
}
