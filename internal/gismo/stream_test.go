package gismo

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/workload"
)

// The sharded generator is the canonical producer behind the fused
// serve dispatcher's batch intake.
var _ workload.ShardedStream = (*WorkloadStream)(nil)

func drainStream(t *testing.T, m Model, seed int64, shards int) ([]workload.Event, int) {
	t.Helper()
	ws, err := NewStream(m, seed, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	events := workload.Drain(ws, 0)
	return events, ws.Sessions()
}

// TestStreamShardCountInvariant is the determinism contract of the
// sharded generator: for a fixed seed, shards=1 and shards=8 (and any
// other count) must produce byte-identical event sequences.
func TestStreamShardCountInvariant(t *testing.T) {
	m := testModel()
	const seed = 20020106
	base, baseSessions := drainStream(t, m, seed, 1)
	if len(base) == 0 {
		t.Fatal("empty stream")
	}
	for _, shards := range []int{2, 3, 8} {
		got, sessions := drainStream(t, m, seed, shards)
		if len(got) != len(base) {
			t.Fatalf("shards=%d: %d events, shards=1: %d", shards, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("shards=%d: event %d differs: %+v vs %+v", shards, i, got[i], base[i])
			}
		}
		if sessions != baseSessions {
			t.Errorf("shards=%d: %d sessions, shards=1: %d", shards, sessions, baseSessions)
		}
	}
}

// TestStreamMatchesGenerate pins the compatibility wrapper to the
// stream, and the seed convention to its definition: GenerateSeeded
// must be exactly a drained stream seeded with the first Int63 of a
// rand.NewSource(seed) generator.
func TestStreamMatchesGenerate(t *testing.T) {
	m := testModel()
	seed := rand.New(rand.NewSource(404)).Int63()
	w, err := GenerateSeeded(m, 404)
	if err != nil {
		t.Fatal(err)
	}
	events, sessions := drainStream(t, m, seed, 4)
	if len(events) != len(w.Requests) {
		t.Fatalf("stream %d events vs Generate %d requests", len(events), len(w.Requests))
	}
	for i, e := range events {
		if r := w.Requests[i]; e != r {
			t.Fatalf("event %d: %+v vs request %+v", i, e, r)
		}
	}
	if sessions != w.SessionCount {
		t.Errorf("sessions: stream %d vs Generate %d", sessions, w.SessionCount)
	}
}

func TestStreamOrderAndBounds(t *testing.T) {
	m := testModel()
	ws, err := NewStream(m, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	var prev workload.Event
	n := 0
	for {
		e, ok := ws.Next()
		if !ok {
			break
		}
		if n > 0 && e.Less(prev) {
			t.Fatalf("event %d out of order: %+v after %+v", n, e, prev)
		}
		if e.Start < 0 || e.End() > m.Horizon {
			t.Fatalf("event escapes horizon: %+v", e)
		}
		if e.Client < 0 || e.Client >= m.NumClients {
			t.Fatalf("bad client %d", e.Client)
		}
		if e.Object < 0 || e.Object >= m.NumObjects {
			t.Fatalf("bad object %d", e.Object)
		}
		if e.Duration < 1 {
			t.Fatalf("bad duration %+v", e)
		}
		prev = e
		n++
	}
	if n == 0 {
		t.Fatal("empty stream")
	}
	// Exhausted stream stays exhausted.
	if _, ok := ws.Next(); ok {
		t.Error("exhausted stream yielded an event")
	}
}

// TestStreamCloseWithoutDraining must release the shard goroutines and
// leave the stream unusable but safe.
func TestStreamCloseWithoutDraining(t *testing.T) {
	m := testModel()
	ws, err := NewStream(m, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := ws.Next(); !ok {
			t.Fatal("stream ended after 10 events")
		}
	}
	ws.Close()
	ws.Close() // idempotent
	if _, ok := ws.Next(); ok {
		t.Error("closed stream yielded an event")
	}
}

// TestStreamSlabAPIMatchesNext: merging the NextSlab/RecycleSlab batch
// view by Event.Less must reproduce exactly the sequence Next yields —
// the workload.ShardedStream contract the fused dispatcher relies on.
// Draining every shard to exhaustion also proves no slab (and no
// event) is lost at the ring seam.
func TestStreamSlabAPIMatchesNext(t *testing.T) {
	m := testModel()
	const seed = 20020106
	want, _ := drainStream(t, m, seed, 1)

	ws, err := NewStream(m, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	type cur struct {
		slab  []workload.Event
		pos   int
		shard int
	}
	var cursors []cur
	for s := 0; s < ws.Shards(); s++ {
		if slab, ok := ws.NextSlab(s); ok {
			cursors = append(cursors, cur{slab: slab, shard: s})
		}
	}
	var got []workload.Event
	for len(cursors) > 0 {
		best := 0
		for i := 1; i < len(cursors); i++ {
			if cursors[i].slab[cursors[i].pos].Less(cursors[best].slab[cursors[best].pos]) {
				best = i
			}
		}
		c := &cursors[best]
		got = append(got, c.slab[c.pos])
		c.pos++
		if c.pos == len(c.slab) {
			ws.RecycleSlab(c.shard, c.slab)
			if slab, ok := ws.NextSlab(c.shard); ok {
				c.slab, c.pos = slab, 0
			} else {
				cursors[best] = cursors[len(cursors)-1]
				cursors = cursors[:len(cursors)-1]
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("slab API yielded %d events, Next yields %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d differs: slab API %+v vs Next %+v", i, got[i], want[i])
		}
	}
}

// TestStreamSlabRecyclingBounded: drained slabs must return to their
// producing shard, so a full drain allocates only the slabs that can be
// simultaneously in flight per shard (output ring + fill + drain), not
// one per flush.
func TestStreamSlabRecyclingBounded(t *testing.T) {
	m := testModel()
	const shards = 4
	ws, err := NewStream(m, 20020106, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	n := 0
	for {
		if _, ok := ws.Next(); !ok {
			break
		}
		n++
	}
	// Per shard: the output ring can hold streamBatchDepth slabs, the
	// shard fills one more, and the consumer drains one more. Anything
	// beyond that means recycling is broken and every flush allocates.
	maxAllocs := int64(shards * (streamBatchDepth + 2))
	if got := ws.slabAllocs.Load(); got > maxAllocs {
		t.Errorf("drained %d events with %d slab allocations, want <= %d (recycling broken)", n, got, maxAllocs)
	}
	if n == 0 {
		t.Fatal("empty stream")
	}
}

// TestStreamCloseMidDrain: closing a stream halfway through a drain
// must release every shard goroutine even while shards are parked on
// full output rings, and must stay safe through both consumption APIs.
func TestStreamCloseMidDrain(t *testing.T) {
	m := testModel()
	for name, drain := range map[string]func(ws *WorkloadStream){
		"next": func(ws *WorkloadStream) {
			for i := 0; i < 100; i++ {
				if _, ok := ws.Next(); !ok {
					t.Fatal("stream ended before 100 events")
				}
			}
		},
		"slab": func(ws *WorkloadStream) {
			slab, ok := ws.NextSlab(0)
			if !ok {
				t.Fatal("shard 0 produced no slab")
			}
			ws.RecycleSlab(0, slab)
		},
	} {
		before := runtime.NumGoroutine()
		ws, err := NewStream(m, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		drain(ws)
		ws.Close()
		// The shard goroutines observe the abort at their next ring
		// operation; give them a bounded moment to exit.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("%s: %d goroutines before stream, %d after Close — shard goroutines leaked", name, before, got)
		}
		if _, ok := ws.Next(); ok && name == "next" {
			t.Errorf("%s: closed stream yielded an event", name)
		}
	}
}

// TestStreamModeGuard: a stream consumed through Next must panic if the
// slab API is then used on it (and vice versa) — mixing the two would
// split the merge state across consumers and corrupt the order.
func TestStreamModeGuard(t *testing.T) {
	m := testModel()
	ws, err := NewStream(m, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if _, ok := ws.Next(); !ok {
		t.Fatal("empty stream")
	}
	defer func() {
		if recover() == nil {
			t.Error("NextSlab after Next did not panic")
		}
	}()
	ws.NextSlab(0)
}

func TestNewStreamRejectsBadInputs(t *testing.T) {
	m := testModel()
	if _, err := NewStream(m, 1, 0); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := NewStream(m, 1, MaxShards+1); err == nil {
		t.Error("huge shard count accepted")
	}
	bad := m
	bad.Horizon = -1
	if _, err := NewStream(bad, 1, 1); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestWorkloadStreamReplay(t *testing.T) {
	m := testModel()
	w, err := GenerateSeeded(m, 21)
	if err != nil {
		t.Fatal(err)
	}
	replayed := workload.Drain(w.Stream(), len(w.Requests))
	if len(replayed) != len(w.Requests) {
		t.Fatalf("replayed %d events, want %d", len(replayed), len(w.Requests))
	}
	for i, e := range replayed {
		if e != w.Requests[i] {
			t.Fatalf("event %d mismatch", i)
		}
		if i > 0 && e.Less(replayed[i-1]) {
			t.Fatal("replayed stream out of order")
		}
	}
}

// scheduleFixture is the 110k-transfer bench fixture's model
// (Scaled(100, 3) at sixty times the arrival rate) and its arrival
// process under seed.
func scheduleFixture(t *testing.T, seed int64) (*dist.PiecewisePoisson, Model) {
	t.Helper()
	m, err := Scaled(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.BaseArrivalRate *= 60
	pp, err := m.arrivalProcess(seed)
	if err != nil {
		t.Fatal(err)
	}
	return pp, m
}

// TestScheduleSizedOnce: the schedule a stream is built with never
// outgrows the capacity it was made with — no doubling, no old and new
// copy alive at once — and a hint that is too short (a clamped one)
// costs growth, not arrivals.
func TestScheduleSizedOnce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		pp, m := scheduleFixture(t, seed)
		hint := scheduleHint(pp.ExpectedCount(float64(m.Horizon)))
		ws, err := NewStream(m, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws.Close()
		if len(ws.schedule) == 0 || cap(ws.schedule) != hint {
			t.Errorf("seed %d: schedule of %d arrivals has capacity %d, made with %d", seed, len(ws.schedule), cap(ws.schedule), hint)
		}
		if seed > 1 {
			continue
		}
		arrivals := func() *dist.PoissonStream {
			return pp.Stream(rand.New(dist.NewSplitMix64(dist.Mix64(uint64(seed), laneArrivals))), float64(m.Horizon))
		}
		short := drawSchedule(arrivals(), 16)
		if len(short) != len(ws.schedule) {
			t.Fatalf("short hint: %d arrivals, want %d", len(short), len(ws.schedule))
		}
		for i := range short {
			if short[i] != ws.schedule[i] {
				t.Fatalf("short hint: arrival %d = %d, want %d", i, short[i], ws.schedule[i])
			}
		}
	}
	for _, mean := range []float64{math.NaN(), math.Inf(1), 1e30, maxScheduleHint} {
		if got := scheduleHint(mean); got != maxScheduleHint {
			t.Errorf("scheduleHint(%v) = %d, want the clamp %d", mean, got, maxScheduleHint)
		}
	}
	if got := scheduleHint(0); got != 16 {
		t.Errorf("scheduleHint(0) = %d, want 16", got)
	}
}
