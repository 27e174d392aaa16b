package gismo

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/workload"
)

// TestCursorHeapMatchesReferenceSort drains randomly shaped sessions
// through the cursor heap exactly as runShard does and checks the
// emitted sequence against sorting all events by the stream's total
// order. The fixture forces what the compact key has to get right:
// sessions that start in the same second (the session index decides),
// zero gaps inside a session (equal starts within one cursor),
// single-event sessions (popped on their first advance), and sessions
// interleaving with each other for many steps.
func TestCursorHeapMatchesReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var sessions [][]workload.Event
	var want []workload.Event
	for s := 0; s < 400; s++ {
		n := 1
		if s%3 != 0 {
			n += rng.Intn(40)
		}
		start := int64(rng.Intn(50)) // 400 sessions over 50 seconds: plenty of (start) ties
		events := make([]workload.Event, 0, n+rng.Intn(8))
		for k := 0; k < n; k++ {
			if k > 0 {
				start += int64(rng.Intn(3)) // gaps of zero included
			}
			events = append(events, workload.Event{
				Session: s, Seq: k, Client: rng.Intn(100), Object: rng.Intn(2),
				Start: start, Duration: 1 + int64(rng.Intn(500)),
			})
		}
		sessions = append(sessions, events)
		want = append(want, events...)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })

	h := newCursorHeap()
	for _, events := range sessions {
		h.Push(newCursor(events))
	}
	var got []workload.Event
	var recycled [][]workload.Event
	for h.Len() > 0 {
		got = append(got, h.Top().head())
		if done := advanceCursor(&h); done != nil {
			recycled = append(recycled, done)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("emitted %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, reference sort has %+v", i, got[i], want[i])
		}
	}

	// Every exhausted session hands back its whole slice — same backing
	// array, full length and capacity — so runShard's spare list reuses
	// the allocation.
	if len(recycled) != len(sessions) {
		t.Fatalf("recycled %d session slices, want %d", len(recycled), len(sessions))
	}
	bySession := map[int][]workload.Event{}
	for _, done := range recycled {
		bySession[done[0].Session] = done
	}
	for s, events := range sessions {
		done := bySession[s]
		if len(done) != len(events) || cap(done) != cap(events) || &done[0] != &events[0] {
			t.Fatalf("session %d: recycled slice len %d cap %d, expanded as len %d cap %d",
				s, len(done), cap(done), len(events), cap(events))
		}
	}
}

// TestCursorBefore pins the release bound runShard uses: the head
// precedes an arrival at (start, session) exactly when Event.Less says
// so for the arrival's first possible event.
func TestCursorBefore(t *testing.T) {
	for _, head := range []workload.Event{
		{Start: 10, Session: 3, Seq: 0},
		{Start: 10, Session: 3, Seq: 7},
		{Start: 9, Session: 8, Seq: 2},
		{Start: 11, Session: 1, Seq: 0},
	} {
		c := newCursor([]workload.Event{head})
		for _, bound := range []workload.Event{
			{Start: 10, Session: 2}, {Start: 10, Session: 4}, {Start: 9, Session: 9},
			{Start: 11, Session: 0}, {Start: 12, Session: 0}, {Start: 0, Session: 0},
		} {
			if got, want := c.before(bound.Start, bound.Session), head.Less(bound); got != want {
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
