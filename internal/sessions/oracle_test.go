package sessions

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/trace"
)

// oracleSession is one session as the reference cuts it: the client,
// its transfers' indices into the trace in start order, its first start
// and its latest end.
type oracleSession struct {
	Client     int
	Transfers  []int
	Start, End int64
}

// span is the session as a Sessionizer keeps it.
func (s oracleSession) span() Span {
	return Span{Start: s.Start, End: s.End, Client: int32(s.Client), Count: int32(len(s.Transfers))}
}

// oracleSessionize is the sessionization this package shipped before the
// one-walk rewrite, kept verbatim as the reference: group indices per
// client in a map, walk each client copying transfers, grow each
// session's index slice, sort the lot by (Start, Client).
func oracleSessionize(tr *trace.Trace, timeout int64) []oracleSession {
	byClient := make(map[int][]int)
	for i, t := range tr.Transfers {
		byClient[int(t.Client)] = append(byClient[int(t.Client)], i)
	}
	var out []oracleSession
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

// spansOf returns the sessions as spans, in their order.
func spansOf(ss []oracleSession) []Span {
	out := make([]Span, len(ss))
	for i, s := range ss {
		out[i] = s.span()
	}
	return out
}

func oracleSessionizeClient(tr *trace.Trace, client int, idxs []int, timeout int64) []oracleSession {
	var out []oracleSession
	var cur *oracleSession
	for _, i := range idxs {
		t := tr.Transfers[i]
		if cur != nil && t.Start-cur.End > timeout {
			out = append(out, *cur)
			cur = nil
		}
		if cur == nil {
			cur = &oracleSession{Client: client, Start: t.Start, End: t.End()}
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

// silentGaps collects, in trace order, every positive gap between a
// transfer's start and the latest end among the same client's earlier
// transfers — the gaps SweepTimeout tallies, found without sessions.
func silentGaps(tr *trace.Trace) []int64 {
	var gaps []int64
	latest := make(map[int32]int64) // latest end per client so far
	for _, t := range tr.Transfers {
		if end, seen := latest[t.Client]; seen && t.Start > end {
			gaps = append(gaps, t.Start-end)
		}
		latest[t.Client] = max(latest[t.Client], t.End())
	}
	return gaps
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

// TestSessionizeMatchesOracle: a Set holds the oracle's sessions, as
// spans in (Start, Client) order, and its arrival times are their
// starts.
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
		spans := slices.Collect(set.z.Spans())
		if set.Count() != len(want) || len(spans) != len(want) {
			t.Fatalf("round %d, T_o %d: %d sessions (%d spans), oracle %d", round, timeout, set.Count(), len(spans), len(want))
		}
		arrivals := set.ArrivalTimes()
		for i, w := range want {
			if spans[i] != w.span() || arrivals[i] != w.Start {
				t.Fatalf("round %d, T_o %d, session %d:\n got %+v, arrival %d\nwant %+v", round, timeout, i, spans[i], arrivals[i], w)
			}
		}
	}
}

// oracleSamples is what the session and client layers read of a
// session list, computed the way Set's methods did before the
// Sessionizer: OFF times in session order through a per-client walk
// (unsorted), intra-session gaps through each session's window of
// transfer indices, and per-client session counts in ascending
// client-id order.
func oracleSamples(tr *trace.Trace, ss []oracleSession) (offs, intra []float64, perClient []int) {
	offs, intra = []float64{}, []float64{}
	prev := make(map[int]int) // client → 1 + index of its previous session
	counts := make(map[int]int)
	for i, s := range ss {
		if p := prev[s.Client]; p != 0 {
			if off := s.Start - ss[p-1].End; off >= 0 {
				offs = append(offs, float64(off))
			}
		}
		prev[s.Client] = i + 1
		counts[s.Client]++
		for k := 1; k < len(s.Transfers); k++ {
			intra = append(intra, float64(tr.Transfers[s.Transfers[k]].Start-tr.Transfers[s.Transfers[k-1]].Start))
		}
	}
	ids := make([]int, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		perClient = append(perClient, counts[id])
	}
	return offs, intra, perClient
}

// TestSessionizerMatchesOracle: fed a trace one transfer at a time, the
// Sessionizer keeps exactly the oracle's sessions as spans, and the
// samples the oracle's session list yields — OFF times, intra-session
// gaps in session order, per-client session counts and the client
// count.
func TestSessionizerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var err error
	for round := 0; round < 300; round++ {
		tr, timeout := randomTrace(t, rng, rng.Intn(400)), 1+rng.Int63n(5000)
		if round%60 == 0 { // sessions enough for several blocks of spans
			ts := make([]trace.Transfer, 3*spanBlock)
			for i := range ts {
				ts[i] = trace.Transfer{Client: int32(rng.Intn(4 * spanBlock)), Start: int64(i) * 3, Duration: rng.Int63n(3)}
			}
			if tr, err = trace.New(int64(len(ts))*3, ts); err != nil {
				t.Fatal(err)
			}
			timeout = 1
		}
		z, err := NewSessionizer(timeout, rng.Intn(50)) // a client hint too short, exact or too long
		if err != nil {
			t.Fatal(err)
		}
		want := oracleSessionize(tr, timeout)
		opened := 0
		for i := range tr.Transfers {
			s, open := z.Add(&tr.Transfers[i])
			if open {
				opened++
			}
			if sp := z.span(s); int(sp.Client) != int(tr.Transfers[i].Client) || s >= opened {
				t.Fatalf("round %d: transfer %d assigned to session %d of client %d", round, i, s, sp.Client)
			}
		}
		if round%60 == 0 && z.Sessions() <= spanBlock {
			t.Fatalf("round %d: %d sessions fill one block of spans", round, z.Sessions())
		}
		spans := slices.Collect(z.Spans())
		if len(spans) != len(want) || z.Sessions() != len(want) {
			t.Fatalf("round %d, T_o %d: %d spans, oracle %d sessions", round, timeout, len(spans), len(want))
		}
		for i, w := range want {
			if got := spans[i]; got != w.span() || got.On() != w.End-w.Start {
				t.Fatalf("round %d, session %d: span %+v, oracle %+v", round, i, got, w)
			}
		}
		offs, intra, perClient := oracleSamples(tr, want)
		if got := z.OffTimes(); !reflect.DeepEqual(got, offs) {
			t.Fatalf("round %d: OffTimes %v, oracle %v", round, got, offs)
		}
		if got := z.IntraArrivals(); !reflect.DeepEqual(got, intra) {
			t.Fatalf("round %d: IntraArrivals %v, oracle %v", round, got, intra)
		}
		if got := z.IntraArrivals(); !reflect.DeepEqual(got, intra) {
			t.Fatalf("round %d: IntraArrivals a second time %v, oracle %v", round, got, intra)
		}
		if got := z.SessionsPerClient(); !reflect.DeepEqual(got, perClient) && len(got)+len(perClient) > 0 {
			t.Fatalf("round %d: SessionsPerClient %v, oracle %v", round, got, perClient)
		}
		if z.Clients() != len(perClient) {
			t.Fatalf("round %d: Clients %d, oracle %d", round, z.Clients(), len(perClient))
		}
	}
	if _, err := NewSessionizer(0, 0); err == nil {
		t.Error("zero timeout: want error")
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
// the reference sessionization (oracleSessionize) produces — that the
// reference still means what Section 2.2 says (inside a session no
// silent gap exceeds T_o, between consecutive sessions of a client the
// gap does) and that Sessionize keeps its sessions, span for span.
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
			want := oracleSessionize(tr, to)
			if points[i].Timeout != to || points[i].Sessions != len(want) {
				t.Fatalf("T_o %d: sweep says %+v, the reference %d sessions", to, points[i], len(want))
			}
			set, err := Sessionize(tr, to)
			if err != nil {
				t.Fatal(err)
			}
			if got := slices.Collect(set.z.Spans()); !slices.Equal(got, spansOf(want)) {
				t.Fatalf("T_o %d: Sessionize keeps %+v, the reference %+v", to, got, want)
			}
			lastEnd := make(map[int]int64) // client -> End of its previous session
			for _, sess := range want {
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
