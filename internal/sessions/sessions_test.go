package sessions

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// mk builds a trace from (client, start, duration) triples.
func mk(t *testing.T, horizon int64, rows ...[3]int64) *trace.Trace {
	t.Helper()
	transfers := make([]trace.Transfer, len(rows))
	for i, r := range rows {
		transfers[i] = trace.Transfer{
			Client: int32(r[0]), Start: r[1], Duration: r[2], AS: 1,
		}
	}
	tr, err := trace.New(horizon, transfers)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sessionizer feeds tr's transfers, in the trace order, to a fresh
// Sessionizer at timeout.
func sessionizer(t *testing.T, tr *trace.Trace, timeout int64) *Sessionizer {
	t.Helper()
	z, err := NewSessionizer(timeout, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Transfers {
		z.Add(&tr.Transfers[i])
	}
	return z
}

func TestSessionizeSplitsOnTimeout(t *testing.T) {
	// Client 1: transfers at [0,10], [100,110], [2000,2010] with To=500:
	// gap 0->100 is 90 (same session), gap 110->2000 is 1890 (new session).
	tr := mk(t, 10000,
		[3]int64{1, 0, 10},
		[3]int64{1, 100, 10},
		[3]int64{1, 2000, 10},
	)
	set, err := Sessionize(tr, 500)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 2 {
		t.Fatalf("sessions = %d, want 2", set.Count())
	}
	spans := slices.Collect(set.z.Spans())
	s0, s1 := spans[0], spans[1]
	if s0.Start != 0 || s0.End != 110 || s0.Count != 2 {
		t.Errorf("s0 = %+v", s0)
	}
	if s1.Start != 2000 || s1.End != 2010 || s1.Count != 1 {
		t.Errorf("s1 = %+v", s1)
	}
	if s0.On() != 110 || s1.On() != 10 {
		t.Errorf("ON times: %d, %d", s0.On(), s1.On())
	}
}

func TestSessionizeGapExactlyTimeoutStays(t *testing.T) {
	// Gap equal to To does not split ("does not exceed").
	tr := mk(t, 10000,
		[3]int64{1, 0, 10},
		[3]int64{1, 510, 10}, // gap = 500 = To
	)
	set, err := Sessionize(tr, 500)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 1 {
		t.Fatalf("sessions = %d, want 1", set.Count())
	}
}

func TestSessionizeOverlappingTransfersNeverSplit(t *testing.T) {
	// Figure 1: overlapped transfers of the two feeds.
	tr := mk(t, 10000,
		[3]int64{1, 0, 1000},
		[3]int64{1, 400, 100}, // entirely inside the first
		[3]int64{1, 900, 600}, // overlaps the tail
	)
	set, err := Sessionize(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 1 {
		t.Fatalf("sessions = %d, want 1", set.Count())
	}
	if on := slices.Collect(set.z.Spans())[0].On(); on != 1500 {
		t.Errorf("ON = %d, want 1500", on)
	}
}

func TestSessionizeRejectsBadTimeout(t *testing.T) {
	tr := mk(t, 100, [3]int64{1, 0, 1})
	if _, err := Sessionize(tr, 0); err == nil {
		t.Error("zero timeout: want error")
	}
	if _, err := Sessionize(tr, -5); err == nil {
		t.Error("negative timeout: want error")
	}
}

func TestSessionizeMultipleClientsIndependent(t *testing.T) {
	tr := mk(t, 10000,
		[3]int64{1, 0, 10},
		[3]int64{2, 5, 10}, // interleaved with client 1 but separate
		[3]int64{1, 5000, 10},
		[3]int64{2, 5005, 10},
	)
	set, err := Sessionize(tr, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 4 {
		t.Fatalf("sessions = %d, want 4", set.Count())
	}
	// Globally start-sorted.
	if arr := set.ArrivalTimes(); !slices.IsSorted(arr) {
		t.Errorf("sessions not start-sorted: %v", arr)
	}
}

func TestOffTimes(t *testing.T) {
	// Client 1: session A = [0, 110], session B starts 5000.
	// f = t(B) - t(A) - l(A) = 5000 - 0 - 110 = 4890.
	tr := mk(t, 100000,
		[3]int64{1, 0, 10},
		[3]int64{1, 100, 10},
		[3]int64{1, 5000, 10},
	)
	off := sessionizer(t, tr, 1500).OffTimes()
	if len(off) != 1 || off[0] != 4890 {
		t.Errorf("OffTimes = %v, want [4890]", off)
	}
}

func TestTransfersPerSessionAndInterarrivals(t *testing.T) {
	tr := mk(t, 100000,
		[3]int64{1, 0, 10},
		[3]int64{1, 30, 10},
		[3]int64{1, 90, 10},
		[3]int64{2, 1000, 20},
	)
	z := sessionizer(t, tr, 1500)
	var counts []int
	for s := range z.Spans() {
		counts = append(counts, int(s.Count))
	}
	sort.Ints(counts)
	if len(counts) != 2 || counts[0] != 1 || counts[1] != 3 {
		t.Errorf("TransfersPerSession = %v", counts)
	}
	inter := z.IntraArrivals()
	sort.Float64s(inter)
	if len(inter) != 2 || inter[0] != 30 || inter[1] != 60 {
		t.Errorf("interarrivals = %v, want [30 60]", inter)
	}
}

func TestOnTimesAndArrivalTimes(t *testing.T) {
	tr := mk(t, 100000,
		[3]int64{1, 100, 50},
		[3]int64{2, 200, 70},
	)
	set, err := Sessionize(tr, 1500)
	if err != nil {
		t.Fatal(err)
	}
	var on []float64
	for s := range sessionizer(t, tr, 1500).Spans() {
		on = append(on, float64(s.On()))
	}
	sort.Float64s(on)
	if on[0] != 50 || on[1] != 70 {
		t.Errorf("OnTimes = %v", on)
	}
	arr := set.ArrivalTimes()
	if arr[0] != 100 || arr[1] != 200 {
		t.Errorf("ArrivalTimes = %v", arr)
	}
}

func TestSweepTimeoutMonotone(t *testing.T) {
	// More timeout -> fewer or equal sessions (merging only).
	tr := mk(t, 100000,
		[3]int64{1, 0, 10},
		[3]int64{1, 500, 10},
		[3]int64{1, 1500, 10},
		[3]int64{1, 4000, 10},
		[3]int64{2, 100, 10},
		[3]int64{2, 3000, 10},
	)
	points, err := SweepTimeout(tr, []int64{100, 500, 1000, 2500, 5000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Sessions > points[i-1].Sessions {
			t.Errorf("session count increased with timeout: %v", points)
		}
	}
	if points[0].Sessions != 6 {
		t.Errorf("smallest timeout should isolate every transfer: %v", points[0])
	}
	if points[len(points)-1].Sessions != 2 {
		t.Errorf("largest timeout should merge per client: %v", points[len(points)-1])
	}
	if _, err := SweepTimeout(tr, []int64{0}); err == nil {
		t.Error("sweep with bad timeout: want error")
	}
}

// Property: sessionization is a partition — every transfer appears in
// exactly one session, and within-session gaps never exceed To.
func TestSessionizePartitionProperty(t *testing.T) {
	f := func(raw []uint32, toRaw uint16) bool {
		to := int64(toRaw%3000) + 1
		rows := make([][3]int64, 0, len(raw))
		for i, r := range raw {
			start := int64(r % 500000)
			dur := int64((r >> 8) % 3600)
			client := int64(i % 5)
			rows = append(rows, [3]int64{client, start, dur})
		}
		transfers := make([]trace.Transfer, len(rows))
		for i, r := range rows {
			transfers[i] = trace.Transfer{Client: int32(r[0]), Start: r[1], Duration: r[2], AS: 1}
		}
		tr, err := trace.New(1000000, transfers)
		if err != nil {
			return false
		}
		z, err := NewSessionizer(to, 0)
		if err != nil {
			return false
		}
		// Each transfer goes to exactly one session: group them by
		// the session Add assigns.
		members := make(map[int][]trace.Transfer)
		for i := range tr.Transfers {
			s, _ := z.Add(&tr.Transfers[i])
			members[s] = append(members[s], tr.Transfers[i])
		}
		total := 0
		for s, sp := range slices.Collect(z.Spans()) {
			coverageEnd := int64(math.MinInt64)
			for _, tt := range members[s] {
				total++
				if int32(tt.Client) != sp.Client {
					return false // another client's transfer
				}
				if coverageEnd != math.MinInt64 && tt.Start-coverageEnd > to {
					return false // uncut gap
				}
				if tt.End() > coverageEnd {
					coverageEnd = tt.End()
				}
				if tt.Start < sp.Start || tt.End() > sp.End {
					return false // transfer escapes session bounds
				}
			}
			if len(members[s]) != int(sp.Count) {
				return false // the span miscounts its transfers
			}
		}
		return total == len(tr.Transfers)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
