package simulate

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

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
// case over both drivers: the sequential and the sharded path (at one
// and at several lanes) must refuse exactly the same inputs with the
// same error, and the sharded pipeline must not deadlock doing so.
func TestRunStreamValidatesInput(t *testing.T) {
	w := testWorkload(t, 2)
	cfg := DefaultConfig()
	pop, horizon := w.Population, w.Model.Horizon

	type driver struct {
		name string
		run  func(src workload.Stream, pop *gismo.Population, horizon int64) (*StreamResult, error)
	}
	drivers := []driver{{"sequential", func(src workload.Stream, pop *gismo.Population, horizon int64) (*StreamResult, error) {
		return RunStream(src, pop, horizon, cfg, 1, StreamSinks{})
	}}}
	for _, lanes := range []int{1, 4} {
		drivers = append(drivers, driver{fmt.Sprintf("lanes=%d", lanes), func(src workload.Stream, pop *gismo.Population, horizon int64) (*StreamResult, error) {
			return RunStreamSharded(src, pop, horizon, cfg, 1, lanes, StreamSinks{})
		}})
	}

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
			_, err := d.run(c.src(), c.pop, c.horizon)
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

func TestPendingEntriesOrdering(t *testing.T) {
	p := newPendingEntries(&freeEntryPool{})
	ends := []int64{9, 3, 7, 3, 11, 1, 3}
	for i, e := range ends {
		p.push(e, &wmslog.Entry{Duration: int64(i)}, nil)
	}
	var lastEnd int64 = -1
	var lastSeq int64 = -1
	for range ends {
		top := p.heap.Peek()
		p.heap.Pop()
		if top.end < lastEnd {
			t.Fatalf("pop out of end order: %d after %d", top.end, lastEnd)
		}
		if top.end == lastEnd && top.seq < lastSeq {
			t.Fatalf("tie not broken by admission order")
		}
		lastEnd, lastSeq = top.end, top.seq
	}
	if p.heap.Len() != 0 {
		t.Fatal("heap not drained")
	}
}

// TestServeAllocatesNothing: once the entry pool and the URI cache are
// warm, serving a transfer with an entry sink allocates nothing — the
// client's log text is read out of the population's table, not built.
func TestServeAllocatesNothing(t *testing.T) {
	pop, err := gismo.NewPopulation(500, gismo.Default().Topology, rand.New(rand.NewPCG(4, 0)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	pool := &freeEntryPool{}
	sinks := StreamSinks{Entry: func(*wmslog.Entry) error { return nil }}
	es := newEventServer(&cfg, pop, 86400, 9, pool, sinks, nil)
	var sv served
	i := 0
	serveOne := func() {
		ev := workload.Event{Client: i % pop.Size(), Object: i % 2, Start: int64(i), Duration: 30, Session: i / 3, Seq: i % 3}
		es.serve(ev, 1+i%50, &sv)
		if got, want := sv.entry.PlayerID, pop.Client(ev.Client).PlayerID; got != want {
			t.Fatalf("event %d: entry of %q, client is %q", i, got, want)
		}
		pool.put(sv.entry, sv.entryC)
		if sv.dup != nil {
			pool.put(sv.dup, sv.dupC)
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
