package gismo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
	sessions, err := ws.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	return events, sessions
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
// The producer's guard on the exact count is tested at its bound, as
// no test can draw that many; a spec expected to reach it, six
// standard deviations included, is refused by NewStream before the
// producer starts, so before a multi-gigabyte schedule is drawn.
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
	if maxSessions%publishEvery != 0 {
		t.Errorf("publishEvery %d does not divide 2³²: a publish could pass the bound", publishEvery)
	}

	below := float64(maxSessions) - 6*math.Sqrt(maxSessions) - 1024
	for _, mean := range []float64{0, 1, 1e9, below} {
		if err := checkExpectedSessions(mean); err != nil {
			t.Errorf("mean %v: %v", mean, err)
		}
	}
	for _, mean := range []float64{maxSessions - 1, maxSessions, 1e30, math.Inf(1), math.NaN()} {
		if err := checkExpectedSessions(mean); !errors.Is(err, ErrBadModel) {
			t.Errorf("mean %v: %v, want ErrBadModel", mean, err)
		}
	}

	m := testModel()
	m.BaseArrivalRate *= 1e8 // some 10¹¹ sessions over three days
	before := runtime.NumGoroutine()
	if ws, err := NewStream(m, 1, 2); !errors.Is(err, ErrBadModel) {
		if ws != nil {
			ws.Close()
		}
		t.Fatalf("a spec at %g sessions a second: %v, want ErrBadModel", m.BaseArrivalRate, err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines before the refused NewStream, %d after", before, got)
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

// sameSchedule waits for a stream's schedule to be drawn and holds its
// gaps to the int64 thinning pass.
func sameSchedule(t *testing.T, ws *WorkloadStream, want []int64) map[int]int {
	t.Helper()
	sessions, err := ws.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	got, widths := decodeSchedule(t, ws.sched.gaps)
	if len(got) != len(want) || sessions != len(want) {
		t.Fatalf("schedule decodes to %d arrivals, Sessions() = %d, the thinning pass drew %d", len(got), sessions, len(want))
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
// two and three bytes, and on the dense fixture it never outgrows the
// capacity it was made with — no doubling, no old and new copy alive at
// once. The sizing holds at any rate: the gaps past a byte are bounded
// by the horizon, not the count. (TestScheduleGrowsUnderReaders covers
// a hint that is too short.)
func TestScheduleSizedOnce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		pp, m := scheduleFixture(t, seed)
		hint := scheduleHint(pp.ExpectedCount(float64(m.Horizon)), m.Horizon)
		ws, err := NewStream(m, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		sameSchedule(t, ws, referenceSchedule(arrivalStream(pp, m, seed)))
		ws.Close()
		if cap(ws.sched.gaps) != hint {
			t.Errorf("seed %d: schedule of %d bytes has capacity %d, made with %d", seed, len(ws.sched.gaps), cap(ws.sched.gaps), hint)
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
		widths := sameSchedule(t, sws, referenceSchedule(arrivalStream(spp, sparse, seed)))
		sws.Close()
		if widths[2] == 0 || widths[3] == 0 {
			t.Errorf("seed %d: sparse schedule's varint widths %v, want 2- and 3-byte gaps", seed, widths)
		}
		if hint := scheduleHint(spp.ExpectedCount(float64(sparse.Horizon)), sparse.Horizon); cap(sws.sched.gaps) != hint {
			t.Errorf("seed %d: sparse schedule of %d bytes has capacity %d, made with %d", seed, len(sws.sched.gaps), cap(sws.sched.gaps), hint)
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

// TestScheduleGrowsUnderReaders: a producer whose 16-byte hint is
// outgrown many times over publishes each grown buffer with its length
// while readers walk the schedule as the shards do; every reader
// decodes exactly the thinning pass, and the count is its length. Run
// it under -race: a reader that read an unpublished byte, or a
// published byte the producer moved, is a race.
func TestScheduleGrowsUnderReaders(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		pp, m := scheduleFixture(t, seed)
		want := referenceSchedule(arrivalStream(pp, m, seed))
		s := newSchedule()
		got := make([][]int64, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := scheduleReader{s: s}
				for {
					idx, at, ok := r.next()
					if !ok {
						break
					}
					if idx != len(got[i]) {
						t.Errorf("reader %d: arrival %d read as index %d", i, len(got[i]), idx)
						return
					}
					got[i] = append(got[i], at)
				}
				if r.cut {
					t.Errorf("reader %d: walk cut short", i)
				}
			}()
		}
		go s.draw(arrivalStream(pp, m, seed), 16)
		wg.Wait()
		if n, err := s.count(); n != len(want) || err != nil {
			t.Fatalf("seed %d: count %d, %v; the thinning pass drew %d", seed, n, err, len(want))
		}
		if cap(s.gaps) <= 16 {
			t.Errorf("seed %d: a %d-byte schedule never grew past its 16-byte hint", seed, len(s.gaps))
		}
		for i := range got {
			if !slices.Equal(got[i], want) {
				t.Fatalf("seed %d: reader %d decoded %d arrivals unlike the %d of the thinning pass", seed, i, len(got[i]), len(want))
			}
		}
	}
}

// TestStreamCloseWhileShardsWaitForSchedule: shards that have walked
// all of a published prefix park until more is published, and a
// consumer parks in Next on their unflushed slabs. Close wakes them
// all: every goroutine exits, and the goroutine count returns to its
// baseline.
func TestStreamCloseWhileShardsWaitForSchedule(t *testing.T) {
	const seed, shards = 1, 4
	pp, m := scheduleFixture(t, seed)
	arrivals := referenceSchedule(arrivalStream(pp, m, seed))
	var prefix []byte
	var prev int64
	for _, at := range arrivals[:len(arrivals)/2] {
		prefix = binary.AppendUvarint(prefix, uint64(at-prev))
		prev = at
	}

	before := runtime.NumGoroutine()
	ws := &WorkloadStream{model: m, seed: seed, shards: shards, sched: newSchedule(), done: make(chan struct{})}
	ws.sched.publish(prefix, len(arrivals)/2, false) // and no producer to publish the rest
	if err := ws.startShards(); err != nil {
		t.Fatal(err)
	}
	var consumed atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, ok := ws.Next(); !ok {
				return
			}
			consumed.Add(1)
		}
	}()
	// Wait for every shard to park in schedule.wait on the half that was
	// published.
	deadline := time.Now().Add(5 * time.Second)
	stacks := make([]byte, 1<<20)
	for {
		n := runtime.Stack(stacks, true)
		if bytes.Count(stacks[:n], []byte("gismo.(*schedule).wait(")) == shards {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards never all parked on the schedule (%d events consumed)", consumed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-drained:
		t.Fatal("the stream ended on half a schedule that was never finished")
	default:
	}

	t.Logf("%d events consumed when Close was called", consumed.Load())
	ws.Close()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer still parked in Next after Close")
	}
	for runtime.NumGoroutine() > before && time.Now().Before(deadline.Add(5*time.Second)) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines before the stream, %d after Close — shards leaked", before, got)
	}
}

// FuzzStreamedSchedule: for any seed and 1–8 shards, on the dense bench
// fixture and the sparse model, the drained stream equals the 1-shard
// stream and the schedule drawn beside the shards equals the thinning
// pass.
func FuzzStreamedSchedule(f *testing.F) {
	f.Add(int64(1), uint8(1), false)
	f.Add(int64(2002), uint8(7), false)
	f.Add(int64(-7), uint8(2), true)
	f.Add(int64(31337), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, shards uint8, sparse bool) {
		pp, m := scheduleFixture(t, seed)
		if sparse {
			m = sparseModel(t)
			var err error
			if pp, err = m.arrivalProcess(seed); err != nil {
				t.Fatal(err)
			}
		}
		base, _ := drainStream(t, m, seed, 1)
		ws, err := NewStream(m, seed, int(shards)%8+1)
		if err != nil {
			t.Fatal(err)
		}
		defer ws.Close()
		got := workload.Drain(ws, len(base))
		sameSchedule(t, ws, referenceSchedule(arrivalStream(pp, m, seed)))
		if !slices.Equal(got, base) {
			t.Fatalf("%d shards: %d events unlike the 1-shard stream's %d", int(shards)%8+1, len(got), len(base))
		}
	})
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
		sessions, err := ws.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d days: %d sessions, %d events, %d B beyond the population (%.2f B/session)",
			days, sessions, events, stream, float64(stream)/float64(sessions))
		if limit := uint64(perSession*sessions + allowance); stream > limit {
			t.Errorf("%d days: %d sessions allocated %d B beyond the population, want <= %d (%d B/session + %d)",
				days, sessions, stream, limit, perSession, allowance)
		}
	}
}
