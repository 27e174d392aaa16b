package sessions

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/trace"
)

// oracleSessionize is the sessionization this package shipped before the
// one-walk rewrite, kept verbatim as the reference: group indices per
// client in a map, walk each client copying transfers, grow each
// session's index slice, sort the lot by (Start, Client).
func oracleSessionize(tr *trace.Trace, timeout int64) []Session {
	byClient := make(map[int][]int)
	for i, t := range tr.Transfers {
		byClient[int(t.Client)] = append(byClient[int(t.Client)], i)
	}
	var out []Session
	for client, idxs := range byClient {
		out = append(out, oracleSessionizeClient(tr, client, idxs, timeout)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Client < out[j].Client
	})
	return out
}

func oracleSessionizeClient(tr *trace.Trace, client int, idxs []int, timeout int64) []Session {
	var out []Session
	var cur *Session
	for _, i := range idxs {
		t := tr.Transfers[i]
		if cur != nil && t.Start-cur.End > timeout {
			out = append(out, *cur)
			cur = nil
		}
		if cur == nil {
			cur = &Session{Client: client, Start: t.Start, End: t.End()}
		}
		cur.Transfers = append(cur.Transfers, i)
		if t.End() > cur.End {
			cur.End = t.End()
		}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out
}

// oracleSweep is the old SweepTimeout: one full sessionization per
// timeout, counted.
func oracleSweep(tr *trace.Trace, timeouts []int64) []SweepPoint {
	out := make([]SweepPoint, 0, len(timeouts))
	for _, to := range timeouts {
		out = append(out, SweepPoint{Timeout: to, Sessions: len(oracleSessionize(tr, to))})
	}
	return out
}

// randomTrace draws a trace that is awkward on purpose: few clients (so
// each has many transfers), sparse and negative client ids, bursts of
// overlapping and nested transfers, zero-length transfers, equal start
// times, and transfers that end exactly on the horizon.
func randomTrace(t testing.TB, rng *rand.Rand, n int) *trace.Trace {
	t.Helper()
	const horizon = 200000
	ids := []int32{0, 1, 2, 3, 7, 40, -5, 1 << 30}
	ids = ids[:1+rng.Intn(len(ids))]
	transfers := make([]trace.Transfer, n)
	for i := range transfers {
		start := rng.Int63n(horizon)
		if i > 0 && rng.Intn(3) == 0 {
			start = transfers[i-1].Start + rng.Int63n(50) // burst: overlaps and ties
		}
		var dur int64
		switch rng.Intn(5) {
		case 0: // zero-length
		case 1:
			dur = rng.Int63n(20000) // long: nests whatever follows
		case 2:
			dur = max(horizon-start, 0) // touches the horizon
		default:
			dur = rng.Int63n(600)
		}
		transfers[i] = trace.Transfer{Client: ids[rng.Intn(len(ids))], Object: uint16(rng.Intn(2)), Start: start, Duration: dur}
	}
	tr, err := trace.New(horizon, transfers)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSessionizeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 300; round++ {
		tr := randomTrace(t, rng, rng.Intn(400))
		timeout := 1 + rng.Int63n(5000)
		set, err := Sessionize(tr, timeout)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleSessionize(tr, timeout)
		if len(set.Sessions) != len(want) {
			t.Fatalf("round %d, T_o %d: %d sessions, oracle %d", round, timeout, len(set.Sessions), len(want))
		}
		// Sessionize counts its sessions before it walks: one exact
		// allocation, never grown.
		if cap(set.Sessions) != len(want) {
			t.Fatalf("round %d, T_o %d: Sessions has capacity %d for %d sessions", round, timeout, cap(set.Sessions), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(set.Sessions[i], want[i]) {
				t.Fatalf("round %d, T_o %d, session %d:\n got %+v\nwant %+v", round, timeout, i, set.Sessions[i], want[i])
			}
		}
	}
}

// A session's Transfers is a window onto the shared client index;
// appending to it must not write into the next session's window.
func TestSessionTransfersAreClipped(t *testing.T) {
	tr := mk(t, 100000,
		[3]int64{1, 0, 10},
		[3]int64{1, 5000, 10},
		[3]int64{1, 5020, 10},
	)
	set, err := Sessionize(tr, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 2 {
		t.Fatalf("sessions = %d, want 2", set.Count())
	}
	_ = append(set.Sessions[0].Transfers, 99)
	if got := set.Sessions[1].Transfers; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("append to session 0 leaked into session 1: %v", got)
	}
}

func TestSweepTimeoutMatchesSessionize(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		tr := randomTrace(t, rng, rng.Intn(400))
		// Unsorted, repeats allowed, and half of them sitting on or next
		// to a gap the trace really has: "exceeds" is strict.
		gaps := silentGaps(tr)
		timeouts := make([]int64, 1+rng.Intn(12))
		for i := range timeouts {
			timeouts[i] = 1 + rng.Int63n(30000)
			if len(gaps) > 0 && rng.Intn(2) == 0 {
				timeouts[i] = max(gaps[rng.Intn(len(gaps))]+rng.Int63n(3)-1, 1)
			}
		}
		got, err := SweepTimeout(tr, timeouts)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleSweep(tr, timeouts); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d:\n got %v\nwant %v", round, got, want)
		}
	}
}

func TestSweepTimeoutEmptyTrace(t *testing.T) {
	tr := mk(t, 1000)
	got, err := SweepTimeout(tr, []int64{60, 1500})
	if err != nil {
		t.Fatal(err)
	}
	if want := []SweepPoint{{60, 0}, {1500, 0}}; !reflect.DeepEqual(got, want) {
		t.Errorf("empty trace sweep = %v, want %v", got, want)
	}
}

// FuzzSweepMatchesSessionize decodes bytes into a small trace and a
// timeout list and checks the identity SweepTimeout rests on —
// sessions(T_o) = clients + #{silent gaps > T_o} must equal the count
// Sessionize produces — and that Sessionize still means what Section 2.2
// says: inside a session no silent gap exceeds T_o, between consecutive
// sessions of a client the gap does.
func FuzzSweepMatchesSessionize(f *testing.F) {
	// One client, transfers [0,5] and [35,35]: the gap is 30; timeouts 30 and 29.
	f.Add([]byte{1, 29, 28, 0, 0, 10, 0, 35, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0})
	f.Add([]byte{2, 255, 1, 90, 2, 7, 255, 2, 7, 0, 2, 8, 1, 3, 200, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Header: a count byte, then that many timeout bytes.
		k := 1 + int(data[0])%8
		data = data[1:]
		if len(data) < k {
			return
		}
		timeouts := make([]int64, k)
		for i := range timeouts {
			timeouts[i] = 1 + int64(data[i])
		}
		data = data[k:]
		// Body: (client, start step, duration) byte triples. Steps,
		// durations and timeouts of the same order make overlap,
		// nesting, ties, zero lengths and gaps of exactly T_o all common.
		var transfers []trace.Transfer
		var start int64
		for ; len(data) >= 3; data = data[3:] {
			start += int64(data[1])
			transfers = append(transfers, trace.Transfer{
				Client:   int32(data[0] % 4),
				Start:    start,
				Duration: int64(data[2] / 2),
			})
		}
		tr, err := trace.New(1<<20, transfers)
		if err != nil {
			t.Fatal(err)
		}
		points, err := SweepTimeout(tr, timeouts)
		if err != nil {
			t.Fatal(err)
		}
		for i, to := range timeouts {
			set, err := Sessionize(tr, to)
			if err != nil {
				t.Fatal(err)
			}
			if points[i].Timeout != to || points[i].Sessions != set.Count() {
				t.Fatalf("T_o %d: sweep says %+v, Sessionize %d sessions", to, points[i], set.Count())
			}
			lastEnd := make(map[int]int64) // client -> End of its previous session
			for _, sess := range set.Sessions {
				if end, ok := lastEnd[sess.Client]; ok && sess.Start-end <= to {
					t.Fatalf("T_o %d: client %d sessions split by a gap of only %d", to, sess.Client, sess.Start-end)
				}
				lastEnd[sess.Client] = sess.End
				covered := tr.Transfers[sess.Transfers[0]].End()
				for _, ti := range sess.Transfers[1:] {
					tt := tr.Transfers[ti]
					if int(tt.Client) != sess.Client {
						t.Fatalf("transfer %d of client %d in a session of client %d", ti, tt.Client, sess.Client)
					}
					if tt.Start-covered > to {
						t.Fatalf("T_o %d: silent gap %d inside a session", to, tt.Start-covered)
					}
					covered = max(covered, tt.End())
				}
				if covered != sess.End {
					t.Fatalf("session End %d, transfers cover to %d", sess.End, covered)
				}
			}
		}
	})
}
