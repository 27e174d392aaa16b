package gismo

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/rate"
	"repro/internal/workload"
)

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
// full output rings.
func TestStreamCloseMidDrain(t *testing.T) {
	m := testModel()
	before := runtime.NumGoroutine()
	ws, err := NewStream(m, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, ok := ws.Next(); !ok {
			t.Fatal("stream ended before 100 events")
		}
	}
	ws.Close()
	// The shard goroutines observe the abort at their next ring
	// operation; give them a bounded moment to exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines before stream, %d after Close — shard goroutines leaked", before, got)
	}
	if _, ok := ws.Next(); ok {
		t.Error("closed stream yielded an event")
	}
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

// TestNewStreamRefusesUnkeyableSchedule: a schedule of 2³² sessions
// or more is refused, since a session index beyond 32 bits would spill
// into the start in the shards' cursor keys and misorder the stream.
// The guard is tested at its bound, as no test can draw that many.
func TestNewStreamRefusesUnkeyableSchedule(t *testing.T) {
	for _, n := range []int{0, 1, maxSessions - 1} {
		if err := checkSessions(n); err != nil {
			t.Errorf("%d sessions: %v", n, err)
		}
	}
	for _, n := range []int{maxSessions, maxSessions + 1, math.MaxInt} {
		if err := checkSessions(n); !errors.Is(err, ErrBadModel) {
			t.Errorf("%d sessions: %v, want ErrBadModel", n, err)
		}
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

// arrivalStream is the thinning pass NewStream draws m's schedule from
// under seed.
func arrivalStream(pp *dist.PiecewisePoisson, m Model, seed int64) *dist.PoissonStream {
	return pp.Stream(rand.New(dist.NewSplitMix64(dist.Mix64(uint64(seed), laneArrivals))), float64(m.Horizon))
}

// referenceSchedule is the schedule as it was before it became gaps:
// every arrival's second as an int64.
func referenceSchedule(arrivals *dist.PoissonStream) []int64 {
	var schedule []int64
	for {
		at, ok := arrivals.Next()
		if !ok {
			return schedule
		}
		schedule = append(schedule, int64(at))
	}
}

// decodeSchedule walks a gap schedule as the shards do, returning the
// instants and how many gaps took each varint width.
func decodeSchedule(t *testing.T, gaps []byte) (instants []int64, widths map[int]int) {
	t.Helper()
	widths = map[int]int{}
	var at int64
	for pos := 0; pos < len(gaps); {
		delta, w := binary.Uvarint(gaps[pos:])
		if w <= 0 {
			t.Fatalf("bad varint at byte %d", pos)
		}
		pos += w
		at += int64(delta)
		instants = append(instants, at)
		widths[w]++
	}
	return instants, widths
}

// sameSchedule holds a stream's gap schedule to the int64 thinning pass.
func sameSchedule(t *testing.T, ws *WorkloadStream, want []int64) map[int]int {
	t.Helper()
	got, widths := decodeSchedule(t, ws.schedule)
	if len(got) != len(want) || ws.Sessions() != len(want) {
		t.Fatalf("schedule decodes to %d arrivals, Sessions() = %d, the thinning pass drew %d", len(got), ws.Sessions(), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival %d = %d, want %d", i, got[i], want[i])
		}
	}
	return widths
}

// sparseModel is Scaled(400, 3) with its second day silent: gaps of
// minutes take two varint bytes, the day-long gap three.
func sparseModel(t *testing.T) Model {
	t.Helper()
	m, err := Scaled(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	daily := rate.RealityShowDaily
	daily[1] = 0
	if m.Profile, err = rate.New(m.BaseArrivalRate, rate.RealityShowHourly, daily, 0); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScheduleSizedOnce: a stream's schedule of varint gaps decodes to
// exactly the arrivals the thinning pass draws, including gaps that take
// two and three bytes; on the dense fixture it never outgrows the
// capacity it was made with — no doubling, no old and new copy alive at
// once — and a hint that is too short (a clamped one) costs growth, not
// arrivals. The sizing holds at any rate: the gaps past a byte are
// bounded by the horizon, not the count.
func TestScheduleSizedOnce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		pp, m := scheduleFixture(t, seed)
		hint := scheduleHint(pp.ExpectedCount(float64(m.Horizon)), m.Horizon)
		ws, err := NewStream(m, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws.Close()
		sameSchedule(t, ws, referenceSchedule(arrivalStream(pp, m, seed)))
		if cap(ws.schedule) != hint {
			t.Errorf("seed %d: schedule of %d bytes has capacity %d, made with %d", seed, len(ws.schedule), cap(ws.schedule), hint)
		}

		sparse := sparseModel(t)
		spp, err := sparse.arrivalProcess(seed)
		if err != nil {
			t.Fatal(err)
		}
		sws, err := NewStream(sparse, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		sws.Close()
		widths := sameSchedule(t, sws, referenceSchedule(arrivalStream(spp, sparse, seed)))
		if widths[2] == 0 || widths[3] == 0 {
			t.Errorf("seed %d: sparse schedule's varint widths %v, want 2- and 3-byte gaps", seed, widths)
		}
		if hint := scheduleHint(spp.ExpectedCount(float64(sparse.Horizon)), sparse.Horizon); cap(sws.schedule) != hint {
			t.Errorf("seed %d: sparse schedule of %d bytes has capacity %d, made with %d", seed, len(sws.schedule), cap(sws.schedule), hint)
		}

		if seed > 1 {
			continue
		}
		short, n := drawSchedule(arrivalStream(pp, m, seed), 16)
		if n != ws.Sessions() || string(short) != string(ws.schedule) {
			t.Fatalf("short hint: %d arrivals in %d bytes, want %d in %d", n, len(short), ws.Sessions(), len(ws.schedule))
		}
	}
	for _, mean := range []float64{math.NaN(), math.Inf(1), 1e30, maxScheduleHint} {
		if got := scheduleHint(mean, 86400); got != maxScheduleHint {
			t.Errorf("scheduleHint(%v) = %d, want the clamp %d", mean, got, maxScheduleHint)
		}
	}
	if got := scheduleHint(0, math.MaxInt64); got != maxScheduleHint {
		t.Errorf("scheduleHint(0, MaxInt64) = %d, want the clamp %d", got, maxScheduleHint)
	}
	if got := scheduleHint(0, 127); got != 17 {
		t.Errorf("scheduleHint(0, 127) = %d, want 17", got)
	}
}

// TestStreamBytesPerSession: everything a drained stream allocates
// beyond its population — the schedule, the cursors, the slabs, the
// samplers — is a fixed cost plus at most three bytes per session, over
// horizons that differ eightfold in session count. A schedule of int64
// instants (8 B a session) or a session expanded into a slice (48 B a
// transfer) breaks it.
func TestStreamBytesPerSession(t *testing.T) {
	const perSession, allowance = 3, 384 << 10
	for _, days := range []int{7, 28, 56} {
		m, err := Scaled(100, days)
		if err != nil {
			t.Fatal(err)
		}
		m.BaseArrivalRate *= 10
		const seed = 2002
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		popRng := randv2.New(dist.NewSplitMix64(dist.Mix64(seed, lanePopulation)))
		if _, err := NewPopulation(m.NumClients, m.Topology, popRng); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		population := after.TotalAlloc - before.TotalAlloc

		runtime.ReadMemStats(&before)
		ws, err := NewStream(m, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		for {
			if _, ok := ws.Next(); !ok {
				break
			}
			events++
		}
		runtime.ReadMemStats(&after)
		stream := after.TotalAlloc - before.TotalAlloc - population
		sessions := ws.Sessions()
		t.Logf("%d days: %d sessions, %d events, %d B beyond the population (%.2f B/session)",
			days, sessions, events, stream, float64(stream)/float64(sessions))
		if limit := uint64(perSession*sessions + allowance); stream > limit {
			t.Errorf("%d days: %d sessions allocated %d B beyond the population, want <= %d (%d B/session + %d)",
				days, sessions, stream, limit, perSession, allowance)
		}
	}
}
