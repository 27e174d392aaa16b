package gismo

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/workload"
)

// sessionFixture is a one-day model and the shard-side samplers a
// session is drawn with.
type sessionFixture struct {
	m          Model
	perSession *dist.Zipf
	gap        dist.Lognormal
	length     dist.Lognormal
}

func newSessionFixture(t testing.TB, m Model) *sessionFixture {
	t.Helper()
	perSession, err := dist.NewZipf(m.TransfersPerSession.Alpha, m.TransfersPerSession.N)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := m.gapSampler()
	if err != nil {
		t.Fatal(err)
	}
	length, err := m.lengthSampler()
	if err != nil {
		t.Fatal(err)
	}
	return &sessionFixture{m: m, perSession: perSession, gap: gap, length: length}
}

func (f *sessionFixture) draws() *sessionDraws {
	return newSessionDraws(&f.m, f.perSession, f.gap, f.length)
}

// reference expands the session the old way from a source of its own.
func (f *sessionFixture) reference(seed uint64, session, client int, start int64) ([]workload.Event, *rand.Rand) {
	rng := rand.New(dist.NewSplitMix64(seed))
	return referenceExpandSession(&f.m, session, client, start, rng, f.perSession, f.gap, f.length), rng
}

// sameSession drains one session's cursor and holds it to the eager
// reference event for event, and the shared source's next draw to the
// reference generator's: the cursor consumed exactly the draws the
// expansion did, the overshooting gap of a truncated session included.
func (f *sessionFixture) sameSession(t testing.TB, sd *sessionDraws, seed uint64, session, client int, start int64) {
	t.Helper()
	want, rng := f.reference(seed, session, client, start)
	var got []workload.Event
	c, ok := sd.open(seed, session, client, start)
	for ok {
		got = append(got, c.head())
		ok = sd.step(&c)
	}
	if len(got) != len(want) {
		t.Fatalf("session %d from %d (seed %#x): cursor drew %d transfers, the expansion %d", session, start, seed, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("session %d from %d (seed %#x): transfer %d = %+v, the expansion has %+v", session, start, seed, i, got[i], want[i])
		}
	}
	if a, b := sd.rng.Int63(), rng.Int63(); a != b {
		t.Fatalf("session %d from %d (seed %#x): source out of step after the session (%d vs %d)", session, start, seed, a, b)
	}
}

// TestSessionCursorMatchesExpand: a session drawn transfer by transfer
// from its cursor is the session the eager expansion drew, on the shapes
// where the two could part — arrivals in the horizon's last minutes, a
// gap that overshoots the horizon, lengths under a second, the count's
// extremes and every object-choice branch.
func TestSessionCursorMatchesExpand(t *testing.T) {
	const horizon = 86400
	cases := []struct {
		name   string
		mutate func(*Model)
		back   int64 // starts are drawn in [horizon-back, horizon)
	}{
		{"paper laws", func(*Model) {}, horizon},
		{"last minutes", func(*Model) {}, 600},
		{"gap overshoots", func(m *Model) { m.IntraSessionGap = LognormalParams{Mu: 9, Sigma: 1.3} }, 4 * 3600},
		{"length clamp", func(m *Model) { m.TransferLength = LognormalParams{Mu: -2, Sigma: 1} }, horizon},
		{"N=1", func(m *Model) { m.TransfersPerSession.N = 1 }, horizon},
		{"N=3000 flat", func(m *Model) { m.TransfersPerSession = ZipfParams{Alpha: 0.5, N: 3000} }, horizon},
		{"N=3000 zero gaps", func(m *Model) {
			m.TransfersPerSession = ZipfParams{Alpha: 0.8, N: 3000}
			m.IntraSessionGap = LognormalParams{Mu: -1, Sigma: 1}
		}, 1800},
	}
	for _, tc := range cases {
		for _, objects := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/objects=%d", tc.name, objects), func(t *testing.T) {
				m := Default()
				m.Horizon, m.NumObjects = horizon, objects
				tc.mutate(&m)
				f := newSessionFixture(t, m)
				sd := f.draws()
				pick := rand.New(rand.NewSource(int64(objects)))
				for s := 0; s < 300; s++ {
					start := horizon - 1 - pick.Int63n(tc.back)
					f.sameSession(t, sd, pick.Uint64(), s, pick.Intn(m.NumClients), start)
				}
			})
		}
	}
}

// FuzzSessionCursorMatchesExpand varies what a session's shape depends
// on — the seed, the arrival's distance from the horizon, the count's
// law and support, the object count and both lognormal locations —
// under the same event-for-event and next-draw check.
func FuzzSessionCursorMatchesExpand(f *testing.F) {
	f.Add(uint64(1), uint32(0), uint16(2999), uint8(1), uint8(76), 4.9, 4.38)
	f.Add(uint64(2002), uint32(599), uint16(0), uint8(0), uint8(76), 4.9, 4.38)
	f.Add(uint64(7), uint32(86399), uint16(40), uint8(6), uint8(10), 9.0, -2.0)
	f.Add(uint64(31337), uint32(3600), uint16(2999), uint8(2), uint8(0), -1.0, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, back uint32, n uint16, objects, alpha uint8, gapMu, lenMu float64) {
		if !(math.Abs(gapMu) <= 20 && math.Abs(lenMu) <= 20) {
			t.Skip("lognormal location outside the modelled range")
		}
		const horizon = 86400
		m := Default()
		m.Horizon = horizon
		m.NumObjects = int(objects)%8 + 1
		m.TransfersPerSession = ZipfParams{Alpha: 0.25 + float64(alpha)/32, N: int(n)%3000 + 1}
		m.IntraSessionGap.Mu, m.TransferLength.Mu = gapMu, lenMu
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		fx := newSessionFixture(t, m)
		sd := fx.draws()
		start := horizon - 1 - int64(back)%horizon
		for s := 0; s < 16; s++ {
			fx.sameSession(t, sd, dist.Mix64(seed, uint64(s)), s, s, start)
		}
	})
}

// TestCursorHeapMatchesReferenceSort opens randomly shaped sessions
// into a shard's cursor queue and drains it exactly as runShard does —
// sessions opened between releases, every cursor's draws interleaved
// through the one shared source — and checks the emitted sequence
// against the eagerly expanded sessions sorted by the stream's total
// order. The fixture forces what the packed key, the slot pool and the
// state swap have to get right: sessions that start in the same second
// (the session index decides), zero gaps inside a session (equal starts
// within one cursor), single-transfer sessions (freed on their first
// advance), and sessions interleaving with each other for many steps.
func TestCursorHeapMatchesReferenceSort(t *testing.T) {
	m := Default()
	m.Horizon = 3600
	m.TransfersPerSession = ZipfParams{Alpha: 1.2, N: 40}
	m.IntraSessionGap = LognormalParams{Mu: -0.5, Sigma: 1.5}
	f := newSessionFixture(t, m)
	sd := f.draws()
	pick := rand.New(rand.NewSource(16))

	var q cursorQueue
	var want, got []workload.Event
	release := func(limit uint64) {
		for {
			_, slot, ok := q.q.PopAtMost(limit)
			if !ok {
				return
			}
			got = append(got, q.slots[slot].head())
			q.advance(sd, slot)
		}
	}
	singles, peak := 0, 0
	var start int64
	for s := 0; s < 400; s++ {
		start += int64(pick.Intn(3) / 2) // 400 sessions over ~130 seconds: plenty of (start) ties
		release(cursorKey(start, s))
		seed, client := pick.Uint64(), pick.Intn(100)
		events, _ := f.reference(seed, s, client, start)
		want = append(want, events...)
		if len(events) == 1 {
			singles++
		}
		if c, ok := sd.open(seed, s, client, start); ok {
			q.push(c)
		}
		peak = max(peak, q.q.Len())
	}
	release(math.MaxUint64)
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	if singles == 0 || len(want) < 2000 || peak < 30 {
		t.Fatalf("fixture lost its shape: %d single-transfer sessions, %d events, at most %d sessions pending", singles, len(want), peak)
	}
	if len(got) != len(want) {
		t.Fatalf("emitted %d events, want %d", len(got), len(want))
	}
	zeroGaps := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, reference sort has %+v", i, got[i], want[i])
		}
		if i > 0 && want[i].Start == want[i-1].Start {
			zeroGaps++
		}
	}
	if zeroGaps == 0 {
		t.Fatal("fixture has no equal starts")
	}
	if q.q.Len() != 0 || len(q.free) != len(q.slots) || len(q.slots) > peak {
		t.Errorf("drained queue: %d queued, %d of %d slots free; pool should stop at the %d sessions open at once",
			q.q.Len(), len(q.free), len(q.slots), peak)
	}
}

// TestCursorSize pins a pending session at 48 bytes, with every field
// fixed-width and no pointer: a shard's slot pool holds one cursor per
// open session, and TestStreamBytesPerSession counts on its width.
func TestCursorSize(t *testing.T) {
	c := reflect.TypeOf(cursor{})
	if c.Size() != 48 {
		t.Errorf("cursor is %d bytes, want 48", c.Size())
	}
	for i := 0; i < c.NumField(); i++ {
		switch f := c.Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int32, reflect.Int64, reflect.Struct:
		default:
			t.Errorf("cursor.%s is a %s: the element must stay pointer-free", f.Name, f.Type.Kind())
		}
	}
}

// TestCursorBefore pins the release bound runShard uses: a head's key
// is below the key of an arrival at (start, session) exactly when
// Event.Less puts the head before the arrival's first possible event,
// at the edges of both fields.
func TestCursorBefore(t *testing.T) {
	const maxStart, maxSession = math.MaxInt32, maxSessions - 1
	for _, head := range []workload.Event{
		{Start: 10, Session: 3, Seq: 0},
		{Start: 10, Session: 3, Seq: 7},
		{Start: 9, Session: 8, Seq: 2},
		{Start: 11, Session: 1, Seq: 0},
		{Start: 0, Session: maxSession, Seq: 1},
		{Start: maxStart, Session: 0, Seq: 0},
		{Start: maxStart - 1, Session: maxSession, Seq: 0},
	} {
		for _, bound := range []workload.Event{
			{Start: 10, Session: 2}, {Start: 10, Session: 4}, {Start: 9, Session: 9},
			{Start: 11, Session: 0}, {Start: 12, Session: 0}, {Start: 0, Session: 0},
			{Start: 1, Session: 0}, {Start: maxStart, Session: 0}, {Start: maxStart, Session: 1},
		} {
			if got, want := cursorKey(head.Start, head.Session) < cursorKey(bound.Start, bound.Session), head.Less(bound); got != want {
				t.Errorf("head %+v before (%d, %d) = %v, Event.Less says %v", head, bound.Start, bound.Session, got, want)
			}
		}
	}
}

// TestPlayerIDMatchesSprintf: the strconv builder prints what
// fmt.Sprintf("player-%07d") printed, at the padding edges and past
// the seven-digit width.
func TestPlayerIDMatchesSprintf(t *testing.T) {
	ids := []int{0, 1, 9, 10, 99, 100, 999_999, 1_000_000, 1_000_001, 9_999_999, 10_000_000, 10_000_001, 123_456_789}
	for p := 1; p < 1_000_000_000; p *= 10 {
		ids = append(ids, p-1, p, p+1)
	}
	for _, i := range ids {
		if got, want := playerID(i), fmt.Sprintf("player-%07d", i); got != want {
			t.Errorf("playerID(%d) = %q, want %q", i, got, want)
		}
	}
}
