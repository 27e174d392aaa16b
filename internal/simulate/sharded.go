package simulate

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dist"
	"repro/internal/gismo"
	"repro/internal/ring"
	"repro/internal/workload"
)

const (
	// laneRingDepth is the capacity of each lane's input and output
	// SPSC ring: how far the dispatcher may run ahead of a worker, and
	// a worker ahead of the collector, before backpressure parks them.
	laneRingDepth = 512
	// dispatchStage is the per-lane staging-buffer size: the dispatcher
	// accumulates admitted events per lane and publishes them with one
	// bulk ring push (one atomic store + one wake per stage) instead of
	// one per event.
	dispatchStage = 64
	// maxReorderWindow caps the collector's reorder window so a huge
	// lane count cannot balloon the collector's footprint.
	maxReorderWindow = 32768
	// MaxServeLanes bounds the serve worker count.
	MaxServeLanes = 1024
)

// DefaultServeLanes is the default serve-lane count: one lane per
// schedulable CPU (GOMAXPROCS), clamped to [1, MaxServeLanes]. The
// served log is byte-identical at any lane count, so the default only
// chooses throughput, never output.
func DefaultServeLanes() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > MaxServeLanes {
		n = MaxServeLanes
	}
	return n
}

// reorderWindow sizes the collector's reorder window: one full output
// ring per lane, so the rings — not the window — are what backpressure
// a lane that runs ahead. Any size ≥ 1 is deadlock-free (see the
// liveness note on RunStreamSharded); the size only sets how often a
// skewed lane mix stalls placement.
func reorderWindow(lanes int) int {
	w := lanes * laneRingDepth
	if w > maxReorderWindow {
		w = maxReorderWindow
	}
	if w < 2*laneRingDepth {
		w = 2 * laneRingDepth
	}
	return w
}

// laneItem is one admitted event on its way to a serve worker: the
// event, its global admission sequence number, and the concurrency
// level the dispatcher observed at admission.
type laneItem struct {
	ev   workload.Event
	seq  int64
	conc int32
}

// laneResult is one served event on its way back to the collector,
// which restores the exact global admission order by reordering on
// seq.
type laneResult struct {
	seq   int64
	start int64
	sv    served
}

// releaseServed returns a discarded result's pooled entries to their
// owning lane chunks — the abort path, where no sink will ever see
// them.
func releaseServed(sv *served) {
	if sv.entryC != nil {
		sv.entryC.release()
	}
	if sv.dupC != nil {
		sv.dupC.release()
	}
	sv.entry, sv.entryC = nil, nil
	sv.dup, sv.dupC = nil, nil
}

// laneRouter fans admitted events out to the lane input rings through
// per-lane staging buffers: route appends to the event's lane stage,
// and a full stage is published with one SPSC.TryPushN — one atomic
// store and one wake per dispatchStage events instead of one per
// event. All input rings share a single producer gate (the dispatcher
// is the sole producer of every ring), so when no ring can take more
// the dispatcher parks once and any worker's Advance unparks it.
//
// Liveness: flushAll drains *every* lane's stage before parking. If a
// lane's staged items cannot flush, that lane's ring is full of
// strictly earlier, not-yet-served items — so the sequence the
// collector needs next is never stranded in staging; it is always
// already in a ring, a worker, or the reorder window, where the
// backpressure chain drains it.
type laneRouter struct {
	in    []*ring.SPSC[laneItem]
	stage []laneStage
	gate  *ring.Gate // shared producer gate across all input rings
	stop  <-chan struct{}
}

// laneStage is one lane's staging buffer; pos is the first index not
// yet pushed to the ring (a partial flush leaves pos < len(buf)).
type laneStage struct {
	buf []laneItem
	pos int
}

func newLaneRouter(in []*ring.SPSC[laneItem], gate *ring.Gate, stop <-chan struct{}) *laneRouter {
	rt := &laneRouter{in: in, stage: make([]laneStage, len(in)), gate: gate, stop: stop}
	for k := range rt.stage {
		rt.stage[k].buf = make([]laneItem, 0, dispatchStage)
	}
	return rt
}

// route stages it for lane, flushing when the stage fills. It returns
// false only if the run was aborted while blocked on full rings.
//
//lsm:hotpath
func (rt *laneRouter) route(lane int, it laneItem) bool {
	st := &rt.stage[lane]
	st.buf = append(st.buf, it)
	if len(st.buf) < cap(st.buf) {
		return true
	}
	st.pos += rt.in[lane].TryPushN(st.buf[st.pos:])
	if st.pos == len(st.buf) {
		st.buf, st.pos = st.buf[:0], 0
		return true
	}
	return rt.flushAll()
}

// flushRound makes one non-blocking pass over every stage, pushing
// what fits. It reports whether anything remains staged and whether
// this pass moved anything.
func (rt *laneRouter) flushRound() (pending, progress bool) {
	for k := range rt.stage {
		st := &rt.stage[k]
		if st.pos == len(st.buf) {
			st.buf, st.pos = st.buf[:0], 0
			continue
		}
		n := rt.in[k].TryPushN(st.buf[st.pos:])
		if n > 0 {
			progress = true
		}
		st.pos += n
		if st.pos == len(st.buf) {
			st.buf, st.pos = st.buf[:0], 0
		} else {
			pending = true
		}
	}
	return pending, progress
}

// flushAll drains every staged item into the rings, parking on the
// shared producer gate whenever a full pass makes no progress. It
// returns false if the run aborts while parked.
func (rt *laneRouter) flushAll() bool {
	for {
		pending, progress := rt.flushRound()
		if !pending {
			return true
		}
		if progress {
			continue
		}
		rt.gate.Prepare()
		if _, progress = rt.flushRound(); progress {
			rt.gate.Cancel()
			continue
		}
		if !rt.gate.Wait(rt.stop) {
			return false
		}
	}
}

// fusedDispatch merges a ShardedStream's shard slabs directly in the
// dispatcher: a loop-min scan over one cached head per shard, exactly
// the merge gismo's Next runs — but batch-at-a-time over slabs, with
// drained slabs recycled to their producing shard, and without the
// per-event interface call or the separate merge stage. admit is the
// dispatcher's validate-and-stage step; fusedDispatch returns false
// as soon as admit does.
//
//lsm:hotpath
func fusedDispatch(ss workload.ShardedStream, admit func(workload.Event) bool) bool {
	type shardCursor struct {
		hd    workload.Event // == slab[pos]; cached for the scan
		slab  []workload.Event
		pos   int
		shard int
	}
	// The slab contract says slabs are non-empty, but skipping empties
	// here keeps the merge correct for any conforming producer.
	nextSlab := func(s int) ([]workload.Event, bool) {
		for {
			slab, ok := ss.NextSlab(s)
			if !ok {
				return nil, false
			}
			if len(slab) > 0 {
				return slab, true
			}
			ss.RecycleSlab(s, slab)
		}
	}
	cursors := make([]shardCursor, 0, ss.Shards())
	for s := 0; s < ss.Shards(); s++ {
		if slab, ok := nextSlab(s); ok {
			cursors = append(cursors, shardCursor{hd: slab[0], slab: slab, shard: s})
		}
	}
	for len(cursors) > 0 {
		best := 0
		for i := 1; i < len(cursors); i++ {
			if cursors[i].hd.Less(cursors[best].hd) {
				best = i
			}
		}
		c := &cursors[best]
		if !admit(c.hd) {
			return false
		}
		c.pos++
		if c.pos < len(c.slab) {
			c.hd = c.slab[c.pos]
			continue
		}
		ss.RecycleSlab(c.shard, c.slab)
		if slab, ok := nextSlab(c.shard); ok {
			c.slab, c.pos, c.hd = slab, 0, slab[0]
			continue
		}
		last := len(cursors) - 1
		cursors[best] = cursors[last]
		cursors = cursors[:last]
	}
	return true
}

// RunStreamSharded is the parallel form of RunStream: a serial
// dispatcher admits events in start order (computing the concurrency
// level, the only cross-event state) and hash-partitions them across
// lanes client lanes; each lane worker computes its transfers'
// server-model draws and log entries independently, allocating entries
// from a private arena (see arena.go); and a collector merges the lane
// outputs back into admission order before running the same end-time
// reorder buffer as the sequential path.
//
// When src is a workload.ShardedStream (gismo's sharded generator),
// the dispatcher merges the shard slabs inline (see fusedDispatch)
// instead of pulling events one at a time through Next: the
// generate→serve corridor then runs shard → ring → merge+dispatch →
// lane with no intermediate merge goroutine and no per-event
// interface hop.
//
// Because every per-transfer draw is a pure function of (seed, event
// identity) — see serveLane — and the collector restores the exact
// admission order, the sinks observe byte-for-byte the sequence
// RunStream produces: the served log is invariant under the lane
// count. lanes = 1 runs the same pipeline with a single worker.
//
// Every handoff is a bounded SPSC ring (internal/ring): dispatcher →
// worker and worker → collector each have exactly one producer and one
// consumer, so an item crosses a stage for a slot copy plus one atomic
// store — no locks, no channel ops, no per-item allocation. The
// collector multiplexes all output rings through one shared gate and
// places results into a dense-sequence reorder window, leaving any
// result outside the window parked in its lane's ring (which
// backpressures that lane).
//
// Liveness: the result the collector needs next (seq == window lower
// bound) always flows unobstructed — every earlier sequence has been
// emitted, so nothing ahead of it in its lane's rings is blocked, and
// its window slot is by definition free. A lane that receives few (or
// no) events closes its rings at end of stream, which the collector
// observes through the same gate. On abort (a sink error), the stop
// channel unparks every stage and the collector drains the rings,
// releasing entries, until all lanes close.
func RunStreamSharded(src workload.Stream, pop *gismo.Population, horizon int64, cfg Config, seed uint64, lanes int, sinks StreamSinks) (*StreamResult, error) {
	if lanes < 1 || lanes > MaxServeLanes {
		return nil, fmt.Errorf("%w: serve lanes %d", ErrBadConfig, lanes)
	}
	if err := checkServeArgs(&cfg, pop, horizon); err != nil {
		return nil, err
	}
	rows, err := newRowIDs(pop, sinks)
	if err != nil {
		return nil, err
	}

	stop := make(chan struct{}) // closed by the collector on abort
	collGate := ring.NewGate()  // shared consumer gate: one park site for all output rings
	prodGate := ring.NewGate()  // shared producer gate: one park site for all input rings
	in := make([]*ring.SPSC[laneItem], lanes)
	out := make([]*ring.SPSC[laneResult], lanes)
	for k := 0; k < lanes; k++ {
		in[k] = ring.NewSPSC[laneItem](laneRingDepth, prodGate, ring.NewGate())
		out[k] = ring.NewSPSC[laneResult](laneRingDepth, ring.NewGate(), collGate)
	}

	// Dispatcher: the serial prologue. Admits each event (the stream
	// contract and the concurrency level, see admission) and fans it out
	// by client hash through per-lane staging buffers (see laneRouter).
	// When the source is a workload.ShardedStream, the K-way merge runs
	// inline here over the shard slabs — the fused form skips the
	// per-event interface call and the generator-side merge goroutine
	// entirely. dispatchErr and adm belong to the dispatcher until it
	// exits; the collector reads them only after dispatcherDone.Wait().
	var dispatchErr error
	adm := newAdmission(pop, rows)
	var dispatcherDone sync.WaitGroup
	dispatcherDone.Add(1)
	go func() {
		defer dispatcherDone.Done()
		router := newLaneRouter(in, prodGate, stop)
		defer func() {
			workload.CloseStream(src)
			for _, r := range in {
				r.Close()
			}
		}()
		// admit passes one event through the shared admission step and
		// stages it for its lane. It returns false on a stream-contract
		// violation (dispatchErr set) or on abort; either way staged but
		// unflushed items are dropped — the run is failing and the
		// collector only cross-checks counts on the success path.
		admit := func(ev workload.Event) bool {
			conc, ok := adm.admit(ev)
			if !ok {
				dispatchErr = adm.violation(ev)
				return false
			}
			lane := int(dist.Mix64(uint64(ev.Client), laneHash) % uint64(lanes))
			return router.route(lane, laneItem{ev: ev, seq: adm.n - 1, conc: int32(conc)})
		}
		if ss, ok := src.(workload.ShardedStream); ok {
			if !fusedDispatch(ss, admit) {
				return
			}
		} else {
			for {
				ev, ok := src.Next()
				if !ok {
					break
				}
				if !admit(ev) {
					return
				}
			}
		}
		router.flushAll() // publish the tail before the rings close
	}()

	// Lane workers: all the per-transfer computation — server-model
	// draws, byte accounting, entry rendering into arena-backed
	// entries — runs here, in parallel across lanes, each lane
	// funneling into its own output ring.
	var workers sync.WaitGroup
	workers.Add(lanes)
	for k := 0; k < lanes; k++ {
		go func(k int) {
			defer workers.Done()
			defer out[k].Close()
			arena := newLaneArena()
			defer arena.close()
			es := newEventServer(&cfg, pop, horizon, seed, arena, sinks, rows)
			var r laneResult
			for {
				it, ok := in[k].Pop(stop)
				if !ok {
					return // input drained, or aborted
				}
				r.seq = it.seq
				r.start = it.ev.Start
				es.serve(it.ev, int(it.conc), &r.sv)
				if !out[k].Push(r, stop) {
					releaseServed(&r.sv) // aborted: nobody will sink it
					return
				}
			}
		}(k)
	}

	// Collector (this goroutine): place each lane's results into a
	// dense-sequence reorder window, drain the window in admission
	// order through the same transfer-sink / end-time-buffer emission
	// logic as the sequential path, and release each entry's arena
	// chunk once its sink call returns.
	em := newEmitter(chunkReleaser{}, sinks)
	reorder := ring.NewReorder[laneResult](reorderWindow(lanes))
	var firstErr error
	abort := func(err error) {
		if firstErr == nil {
			firstErr = err
			close(stop)
		}
	}

	// Done lanes are recorded once and then skipped: a permanently-Done
	// ring must not count as fresh work in the park re-check, or the
	// collector would busy-spin from the first lane to finish.
	done := make([]bool, lanes)
	remaining := lanes
	for remaining > 0 {
		progress := false
		for k, r := range out {
			if done[k] {
				continue
			}
			for {
				p, ok := r.Peek()
				if !ok {
					break
				}
				if firstErr != nil {
					// Abort drain: discard, releasing pooled entries.
					releaseServed(&p.sv)
					r.Advance()
					progress = true
					continue
				}
				if !reorder.Placeable(uint64(p.seq)) {
					// Out of window: leave it parked in the ring; the
					// window advances via the lane holding seq == next.
					break
				}
				if err := reorder.Place(uint64(p.seq), *p); err != nil {
					abort(err) // impossible by construction; drained above
					continue
				}
				r.Advance()
				progress = true
			}
			if r.Done() {
				done[k] = true
				remaining--
				progress = true
			}
		}
		for firstErr == nil {
			p, ok := reorder.PeekNext()
			if !ok {
				break
			}
			if err := em.emit(p.start, &p.sv); err != nil {
				releaseServed(&p.sv) // not buffered: no sink will see it
				abort(err)
			}
			reorder.Release()
			progress = true
		}
		if remaining > 0 && !progress {
			// Park until a lane pushes or closes. The re-check must
			// mirror the progress condition exactly: only a placeable
			// head (any head during abort drain) or an unrecorded close
			// is work — an unplaceable head must NOT prevent parking,
			// because its wake arrives via the lane delivering seq ==
			// next.
			collGate.Prepare()
			again := false
			for k, r := range out {
				if done[k] {
					continue
				}
				if p, ok := r.Peek(); ok {
					if firstErr != nil || reorder.Placeable(uint64(p.seq)) {
						again = true
						break
					}
				} else if r.Done() {
					again = true
					break
				}
			}
			if again {
				collGate.Cancel()
			} else {
				collGate.Wait(nil)
			}
		}
	}
	workers.Wait()
	dispatcherDone.Wait()

	// Every ring is closed and drained. The first failure wins; on any
	// of them recycle what is still buffered (no sink will see it).
	err = firstErr
	switch {
	case err != nil:
	case dispatchErr != nil:
		err = dispatchErr
	case reorder.Len() != 0:
		err = fmt.Errorf("simulate: sharded serve lost sequence %d (%d results stranded)", reorder.Next(), reorder.Len())
	case int64(em.res.Transfers) != adm.n:
		err = fmt.Errorf("simulate: sharded serve emitted %d of %d admitted transfers", em.res.Transfers, adm.n)
	default:
		var res *StreamResult
		if res, err = em.finish(adm.concurrency.peak); err == nil {
			return res, nil
		}
	}
	for reorder.Len() > 0 {
		if p, ok := reorder.PeekNext(); ok {
			releaseServed(&p.sv)
			reorder.Release()
		} else {
			reorder.Skip()
		}
	}
	_ = em.pending.flushThrough(0, true, nil) // nil sink never errors
	return nil, err
}
