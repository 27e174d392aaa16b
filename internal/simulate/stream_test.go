package simulate

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/gismo"
	"repro/internal/trace"
	"repro/internal/wmslog"
	"repro/internal/workload"
)

// TestRunStreamMatchesRun pins the wrapper to the stream: collecting
// RunStream's sinks must reproduce Run exactly, entry for entry. The
// entry sink copies, per the StreamSinks pooling contract.
func TestRunStreamMatchesRun(t *testing.T) {
	w := testWorkload(t, 13)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 1000

	batch, err := Run(w, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}

	var transfers []trace.Transfer
	var entries []*wmslog.Entry
	res, err := RunStream(w.Stream(), w.Population, w.Model.Horizon, cfg, 5, StreamSinks{
		Transfer: func(tr trace.Transfer) error { transfers = append(transfers, tr); return nil },
		Entry: func(e *wmslog.Entry) error {
			cp := *e
			entries = append(entries, &cp)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers != len(w.Requests) {
		t.Fatalf("stream served %d transfers, want %d", res.Transfers, len(w.Requests))
	}
	if res.PeakConcurrency != batch.PeakConcurrency {
		t.Errorf("peak: stream %d vs batch %d", res.PeakConcurrency, batch.PeakConcurrency)
	}
	if res.Injected != batch.Injected {
		t.Errorf("injected: stream %d vs batch %d", res.Injected, batch.Injected)
	}
	if len(entries) != len(batch.Entries) {
		t.Fatalf("entries: stream %d vs batch %d", len(entries), len(batch.Entries))
	}
	for i := range entries {
		if *entries[i] != *batch.Entries[i] {
			t.Fatalf("entry %d differs:\nstream: %+v\nbatch:  %+v", i, entries[i], batch.Entries[i])
		}
	}
	if res.TotalBytes != batch.Trace.TotalBytes() {
		t.Errorf("bytes: stream %d vs batch %d", res.TotalBytes, batch.Trace.TotalBytes())
	}
	// Transfers arrive in start order and match the batch trace's
	// pre-sort content (trace.New re-sorts with a different tie-break,
	// so compare as multisets via totals).
	for i := 1; i < len(transfers); i++ {
		if transfers[i].Start < transfers[i-1].Start {
			t.Fatal("transfer sink not in start order")
		}
	}
}

// TestRunStreamValidatesInput runs every bad-argument and bad-stream
// case through RunStream and the sequential reference: both must
// refuse exactly the same inputs with the same error.
func TestRunStreamValidatesInput(t *testing.T) {
	w := testWorkload(t, 2)
	cfg := DefaultConfig()
	pop, horizon := w.Population, w.Model.Horizon

	drivers := []struct {
		name string
		run  func(src workload.Stream, pop *gismo.Population, horizon int64, cfg Config, seed uint64, sinks StreamSinks) (*StreamResult, error)
	}{{"reference", referenceRunStream}, {"RunStream", RunStream}}

	cases := []struct {
		name    string
		src     func() workload.Stream
		pop     *gismo.Population
		horizon int64
		want    string
	}{
		{"nil population", w.Stream, nil, horizon, "simulate: bad config: empty population"},
		{"zero horizon", w.Stream, pop, 0, "simulate: bad config: horizon 0"},
		{"empty stream", func() workload.Stream { return workload.NewSliceStream(nil) }, pop, horizon,
			"simulate: bad config: empty workload"},
		// An out-of-order stream must be rejected, not silently mis-served.
		{"out-of-order start", func() workload.Stream {
			return workload.NewSliceStream([]workload.Event{
				{Session: 0, Start: 100, Duration: 1},
				{Session: 1, Start: 50, Duration: 1},
			})
		}, pop, horizon, "simulate: bad config: stream not in start order (50 after 100)"},
		{"client outside population", func() workload.Stream {
			return workload.NewSliceStream([]workload.Event{
				{Session: 0, Client: pop.Size(), Start: 1, Duration: 1},
			})
		}, pop, horizon, fmt.Sprintf("simulate: bad config: client %d outside population of %d", pop.Size(), pop.Size())},
	}
	for _, c := range cases {
		for _, d := range drivers {
			_, err := d.run(c.src(), c.pop, c.horizon, cfg, 1, StreamSinks{})
			if !errors.Is(err, ErrBadConfig) || err.Error() != c.want {
				t.Errorf("%s, %s: err = %v, want %q", c.name, d.name, err, c.want)
			}
		}
	}
}

// syntheticStream fabricates events lazily so the test can serve far
// more requests than it ever materializes.
type syntheticStream struct {
	n       int
	emitted int
	clients int
}

func (s *syntheticStream) Next() (workload.Event, bool) {
	if s.emitted >= s.n {
		return workload.Event{}, false
	}
	e := workload.Event{
		Session:  s.emitted,
		Client:   s.emitted % s.clients,
		Start:    int64(s.emitted / 4), // ~4 starts per second
		Duration: 30,
	}
	s.emitted++
	return e, true
}

// TestRunStreamMemoryBounded is the ISSUE's memory-bound contract: a
// streamed run must never hold the full request slice. It serves 400k
// synthetic events — which would cost ≥ 19 MB as events alone and
// ~100 MB as buffered log entries — while asserting the live heap
// stays tens of times below that.
func TestRunStreamMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement in -short mode")
	}
	m, err := gismo.Scaled(5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := gismo.NewPopulation(200, m.Topology, rand.New(rand.NewPCG(3, 0)))
	if err != nil {
		t.Fatal(err)
	}

	const n = 400_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 0
	src := &syntheticStream{n: n, clients: pop.Size()}
	var served int
	res, err := RunStream(src, pop, int64(n), cfg, 3, StreamSinks{
		Entry: func(e *wmslog.Entry) error { served++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if res.Transfers != n || served != n {
		t.Fatalf("served %d/%d transfers", served, n)
	}

	// Live-heap growth across the run. Materializing the entries alone
	// would add >100 MB; the streamed path needs only the concurrency
	// heap and the reorder buffer (~peak-concurrency entries, here
	// ~120 × 30 s ≈ few thousand). Allow a generous 16 MB for noise.
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	const limit = 16 << 20
	if growth > limit {
		t.Errorf("live heap grew %d bytes during streamed run, want < %d (full materialization would be >100MB)", growth, limit)
	}
}

// TestPendingEntriesOrdering: the reorder buffer releases by (end,
// admission order), a flush stopping at its watermark; a record that
// ends at or before the watermark, and its twin, are held outside the
// queue and go first at the next flush.
func TestPendingEntriesOrdering(t *testing.T) {
	var p pendingRecords
	type rel struct{ end, order int64 }
	var got []rel
	flush := func(limit uint64) {
		for {
			slot, ok := p.pop(limit)
			if !ok {
				return
			}
			r := p.slots[slot]
			got = append(got, rel{r.end, r.duration})
			p.free = append(p.free, slot)
		}
	}
	order := int64(0)
	push := func(end int64) {
		if _, err := p.push(&logRecord{end: end, duration: order}); err != nil {
			t.Fatal(err)
		}
		order++
	}
	flush(p.through(0))
	for _, end := range []int64{9, 3, 7, 3, 11, 1, 3} {
		push(end)
	}
	flush(p.through(3))
	push(3) // ends at the watermark: held, with its twin
	push(3)
	if len(p.held) != 2 {
		t.Fatalf("%d records held, want the two ending at the watermark", len(p.held))
	}
	push(4)
	flush(p.through(3))
	push(2) // below the last end released: held
	flush(math.MaxUint64)
	want := []rel{{1, 5}, {3, 1}, {3, 3}, {3, 6}, {3, 7}, {3, 8}, {2, 10}, {4, 9}, {7, 2}, {9, 0}, {11, 4}}
	if !slices.Equal(got, want) {
		t.Fatalf("released (end, order) %v, want %v", got, want)
	}
	if p.queue.Len() != 0 || len(p.held) != 0 || len(p.free) != len(p.slots) {
		t.Fatalf("buffer not drained: %d queued, %d held, %d of %d slots free", p.queue.Len(), len(p.held), len(p.free), len(p.slots))
	}
}

// TestServeAllocatesNothing: serving a transfer allocates nothing — the
// log record is numbers written by value into the slab, the client's
// row copied out of the population's table.
func TestServeAllocatesNothing(t *testing.T) {
	pop, err := gismo.NewPopulation(500, gismo.Default().Topology, rand.New(rand.NewPCG(4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	es := newEventServer(&cfg, pop, 86400, 9, nil)
	var sv served
	i := 0
	serveOne := func() {
		ev := workload.Event{Client: i % pop.Size(), Object: i % 2, Start: int64(i), Duration: 30, Session: i / 3, Seq: i % 3}
		es.serve(ev, 1+i%50, &sv)
		if got, want := sv.rec.row, pop.Row(ev.Client); got != want || int(sv.rec.client) != ev.Client {
			t.Fatalf("event %d: record of client %d row %+v, client %d is %+v", i, sv.rec.client, got, ev.Client, want)
		}
		i++
	}
	for i < 10 {
		serveOne()
	}
	if allocs := testing.AllocsPerRun(2_000, serveOne); allocs != 0 {
		t.Errorf("%v allocations per served transfer, want 0", allocs)
	}
}

// TestLogRecordSize: a buffered transfer costs the reorder buffer a
// 72-byte record of numbers, not the 192-byte wmslog.Entry it held
// before (DESIGN.md §1b).
func TestLogRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(logRecord{}); size != 72 {
		t.Errorf("logRecord is %d bytes, want 72", size)
	}
}

// TestEmitAllocatesNothing: once the slot pool and the URI cache are
// warm, emitting a transfer — buffering a copy of its record and
// releasing the records it passes to the sinks, rendered as a line and
// as the reused entry — allocates nothing.
func TestEmitAllocatesNothing(t *testing.T) {
	pop, err := gismo.NewPopulation(500, gismo.Default().Topology, rand.New(rand.NewPCG(4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	em, err := newEmitter(pop, StreamSinks{
		Line:  func(time.Time, []byte) error { lines++; return nil },
		Entry: func(*wmslog.Entry) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	var sv served
	i := 0
	emitOne := func() {
		sv.start, sv.rec.end = int64(i), int64(i+30)
		sv.rec.client, sv.rec.object, sv.rec.row = int32(i%pop.Size()), i%3, pop.Row(i%pop.Size())
		sv.span = int64(i%7) * 100_000 // a spanning twin now and then
		if err := em.emit(&sv); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 100 {
		emitOne()
	}
	if allocs := testing.AllocsPerRun(2_000, emitOne); allocs != 0 {
		t.Errorf("%v allocations per emitted transfer, want 0", allocs)
	}
	if lines == 0 {
		t.Error("no line released")
	}
}

// TestServeStageRecyclesSlabs: the recycle ring holds every slab that
// can exist, so no drained slab is ever dropped and a run allocates at
// most the out ring's slabs plus the one being filled and the one being
// drained — however the consumer's pace changes.
func TestServeStageRecyclesSlabs(t *testing.T) {
	m, err := gismo.Scaled(5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := gismo.NewPopulation(64, m.Topology, rand.New(rand.NewPCG(6, 0)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	st := newServeStage(newEventServer(&cfg, pop, 1<<20, 3, nil), newAdmission(pop, nil))
	go st.run(&syntheticStream{n: 200 * serveSlab, clients: pop.Size()})
	// Drain as RunStream does, alternately slower and faster than the
	// serve goroutine, so every slab in circulation piles up first in the
	// out ring, then in the recycle ring.
	slabs := 0
	for {
		slab, ok := st.out.Pop(nil)
		if !ok {
			break
		}
		slabs++
		if slabs/20%2 == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		st.rec.TryPush(slab[:0])
	}
	<-st.done
	if slabs != 200 {
		t.Fatalf("drained %d slabs, want 200", slabs)
	}
	if limit := serveRingDepth + 2; st.made > limit {
		t.Errorf("%d slabs allocated for %d handed over, want <= %d (a drained slab was dropped)", st.made, slabs, limit)
	}
}

// referenceRunStream is the sequential serve loop RunStream's pipeline
// must reproduce: admit, serve and emit each event in turn on one
// goroutine. It is the oracle of every equivalence test in this
// package.
func referenceRunStream(src workload.Stream, pop *gismo.Population, horizon int64, cfg Config, seed uint64, sinks StreamSinks) (*StreamResult, error) {
	defer workload.CloseStream(src)
	if err := checkServeArgs(&cfg, pop, horizon); err != nil {
		return nil, err
	}
	rows, err := newRowIDs(pop, sinks)
	if err != nil {
		return nil, err
	}
	em, err := newEmitter(pop, sinks)
	if err != nil {
		return nil, err
	}
	es := newEventServer(&cfg, pop, horizon, seed, rows)
	adm := newAdmission(pop, rows)
	var sv served
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		conc, ok := adm.admit(ev)
		if !ok {
			return nil, adm.violation(ev)
		}
		es.serve(ev, conc, &sv)
		if err := em.emit(&sv); err != nil {
			return nil, err
		}
	}
	return em.finish(adm.concurrency.peak)
}
