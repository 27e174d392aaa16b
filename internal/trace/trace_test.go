package trace

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/wmslog"
)

func mkTransfer(client int, start, dur int64) Transfer {
	return Transfer{
		Client:   int32(client),
		AS:       1,
		Start:    start,
		Duration: dur,
		Bytes:    dur * 4000,
	}
}

func TestNewSortsTransfers(t *testing.T) {
	tr, err := New(1000, []Transfer{
		mkTransfer(2, 500, 10),
		mkTransfer(1, 100, 10),
		mkTransfer(3, 100, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Transfers[0].Start != 100 || tr.Transfers[0].Client != 1 {
		t.Errorf("first transfer = %+v", tr.Transfers[0])
	}
	if tr.Transfers[1].Client != 3 {
		t.Errorf("tie broken wrong: %+v", tr.Transfers[1])
	}
	if tr.Transfers[2].Start != 500 {
		t.Errorf("last transfer = %+v", tr.Transfers[2])
	}
}

func TestNewRejectsBadHorizon(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("zero horizon: want error")
	}
	if _, err := New(-5, nil); err == nil {
		t.Error("negative horizon: want error")
	}
}

func TestByClientAndCounts(t *testing.T) {
	tr, err := New(1000, []Transfer{
		mkTransfer(1, 100, 10),
		mkTransfer(2, 150, 10),
		mkTransfer(1, 300, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumClients() != 2 || tr.NumTransfers() != 3 {
		t.Errorf("clients=%d transfers=%d", tr.NumClients(), tr.NumTransfers())
	}
	byC := tr.ByClient()
	if byC.Len() != 2 || byC.Client(0) != 1 || byC.Client(1) != 2 {
		t.Fatalf("ByClient clients = %d, want ids 1 and 2 ascending", byC.Len())
	}
	c1, c2 := byC.Transfers(0), byC.Transfers(1)
	if len(c1) != 2 || len(c2) != 1 {
		t.Errorf("ByClient rows = %v, %v", c1, c2)
	}
	// Indices must reference client-1 transfers in start order.
	if tr.Transfers[c1[0]].Start != 100 || tr.Transfers[c1[1]].Start != 300 {
		t.Error("ByClient indices out of order")
	}
}

func TestAggregates(t *testing.T) {
	a := mkTransfer(1, 0, 10)
	b := mkTransfer(2, 5, 10)
	b.IP = 1
	b.AS = 2
	b.Object = 1
	tr, err := New(100, []Transfer{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.TotalBytes(); got != 80000 {
		t.Errorf("TotalBytes = %d", got)
	}
	if tr.DistinctIPs() != 2 || tr.DistinctAS() != 2 || tr.DistinctObjects() != 2 {
		t.Errorf("distinct: ips=%d as=%d obj=%d", tr.DistinctIPs(), tr.DistinctAS(), tr.DistinctObjects())
	}
}

func TestSanitize(t *testing.T) {
	horizon := int64(1000)
	transfers := []Transfer{
		mkTransfer(1, 100, 50),              // kept
		mkTransfer(2, 0, 1000),              // kept (exactly fills horizon)
		mkTransfer(3, 10, 2000),             // spanning: duration > horizon
		mkTransfer(4, 990, 50),              // outside: end > horizon
		mkTransfer(5, -10, 20),              // outside: start < 0
		{Client: 6, Start: 5, Duration: -3}, // negative
	}
	tr, err := New(horizon, transfers)
	if err != nil {
		t.Fatal(err)
	}
	clean, report := tr.Sanitize()
	if report.Input != 6 || report.Kept != 2 {
		t.Errorf("report = %+v", report)
	}
	if report.DroppedSpanning != 1 || report.DroppedOutside != 2 || report.DroppedNegative != 1 {
		t.Errorf("report = %+v", report)
	}
	if clean.NumTransfers() != 2 {
		t.Errorf("clean has %d transfers", clean.NumTransfers())
	}
	for _, tt := range clean.Transfers {
		if tt.Start < 0 || tt.End() > horizon {
			t.Errorf("unsanitized transfer survived: %+v", tt)
		}
	}
}

func TestSanitizeReportString(t *testing.T) {
	r := SanitizeReport{Input: 10, Kept: 7, DroppedSpanning: 1, DroppedOutside: 2}
	s := r.String()
	if s == "" {
		t.Error("empty report string")
	}
}

func TestAuditServerLoadAllLow(t *testing.T) {
	transfers := make([]Transfer, 100)
	for i := range transfers {
		tt := mkTransfer(i, int64(i*10), 20)
		tt.ServerCPU = 2.0
		transfers[i] = tt
	}
	tr, err := New(2000, transfers)
	if err != nil {
		t.Fatal(err)
	}
	audit := tr.AuditServerLoad(10)
	if audit.TransferBelowFrac != 1 {
		t.Errorf("TransferBelowFrac = %v", audit.TransferBelowFrac)
	}
	if audit.TimeBelowFrac != 1 {
		t.Errorf("TimeBelowFrac = %v", audit.TimeBelowFrac)
	}
}

func TestAuditServerLoadDetectsOverload(t *testing.T) {
	low := mkTransfer(1, 0, 100)
	low.ServerCPU = 1
	high := mkTransfer(2, 200, 100)
	high.ServerCPU = 90
	tr, err := New(300, []Transfer{low, high})
	if err != nil {
		t.Fatal(err)
	}
	audit := tr.AuditServerLoad(10)
	if audit.TransferBelowFrac != 0.5 {
		t.Errorf("TransferBelowFrac = %v, want 0.5", audit.TransferBelowFrac)
	}
	// 100 low seconds + 100 high seconds active.
	if audit.TimeBelowFrac != 0.5 {
		t.Errorf("TimeBelowFrac = %v, want 0.5", audit.TimeBelowFrac)
	}
}

func TestAuditServerLoadEmptyTrace(t *testing.T) {
	tr, err := New(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	audit := tr.AuditServerLoad(10)
	if audit.TimeBelowFrac != 1 || audit.TransferBelowFrac != 1 {
		t.Errorf("empty audit = %+v", audit)
	}
}

func TestAuditZeroLengthTransfer(t *testing.T) {
	z := mkTransfer(1, 50, 0)
	z.ServerCPU = 50
	tr, err := New(100, []Transfer{z})
	if err != nil {
		t.Fatal(err)
	}
	audit := tr.AuditServerLoad(10)
	// The zero-length transfer occupies one second at CPU 50.
	if audit.TimeBelowFrac != 0 {
		t.Errorf("TimeBelowFrac = %v, want 0", audit.TimeBelowFrac)
	}
}

func TestFromEntries(t *testing.T) {
	epoch := wmslog.TraceEpoch
	entries := []*wmslog.Entry{
		{
			Timestamp: epoch.Add(200 * time.Second), ClientIP: "1.1.1.1",
			PlayerID: "alpha", URIStem: "/live/feed1", Duration: 50,
			Bytes: 1000, AvgBandwidth: 160, ServerCPU: 1, Status: 200,
			ASNumber: 3, Country: "BR",
		},
		{
			Timestamp: epoch.Add(400 * time.Second), ClientIP: "2.2.2.2",
			PlayerID: "beta", URIStem: "/live/feed2", Duration: 100,
			Bytes: 2000, AvgBandwidth: 160, ServerCPU: 2, Status: 200,
			ASNumber: 4, Country: "US",
		},
		{
			Timestamp: epoch.Add(500 * time.Second), ClientIP: "1.1.1.1",
			PlayerID: "alpha", URIStem: "/live/feed2", Duration: 10,
			Bytes: 50, AvgBandwidth: 40, ServerCPU: 1, Status: 200,
			ASNumber: 3, Country: "BR",
		},
	}
	tr, err := FromEntries(entries, epoch, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTransfers() != 3 || tr.NumClients() != 2 || tr.DistinctObjects() != 2 {
		t.Fatalf("trace: %d transfers, %d clients, %d objects",
			tr.NumTransfers(), tr.NumClients(), tr.DistinctObjects())
	}
	// First entry: end=200, duration=50 -> start=150.
	if tr.Transfers[0].Start != 150 || tr.Transfers[0].Duration != 50 {
		t.Errorf("first transfer = %+v", tr.Transfers[0])
	}
	// Same player ID maps to the same dense client.
	if tr.Transfers[0].Client != tr.Transfers[2].Client {
		t.Error("player 'alpha' split across client IDs")
	}
	if _, err := FromEntries(nil, epoch, 0); err == nil {
		t.Error("zero horizon: want error")
	}
}

// The client index must list, for every distinct client in ascending id
// order, exactly that client's transfers in trace order — whether the
// ids are compact enough for the direct-address table or not.
func TestClientIndexMatchesMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, ids := range [][]int{
		{0, 1, 2, 3, 4, 5},             // dense
		{7, 900, 901, 5000},            // dense table with holes
		{-3, 0, 4},                     // negative ids
		{-1 << 30, 12, 1 << 30},        // too sparse for a table
		{math.MinInt32, math.MaxInt32}, // span overflows the id type
	} {
		transfers := make([]Transfer, 1+rng.Intn(200))
		for i := range transfers {
			transfers[i] = mkTransfer(ids[rng.Intn(len(ids))], rng.Int63n(1000), 10)
		}
		tr, err := New(2000, transfers)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[int][]int)
		for i, tx := range tr.Transfers {
			want[int(tx.Client)] = append(want[int(tx.Client)], i)
		}
		ci := tr.ByClient()
		if ci.Len() != len(want) || tr.NumClients() != len(want) {
			t.Fatalf("ids %v: %d clients, want %d", ids, ci.Len(), len(want))
		}
		for k := 0; k < ci.Len(); k++ {
			if k > 0 && ci.Client(k-1) >= ci.Client(k) {
				t.Fatalf("ids %v: client ids not ascending at slot %d", ids, k)
			}
			if got := ci.Transfers(k); !slices.Equal(got, want[ci.Client(k)]) {
				t.Fatalf("ids %v: client %d row = %v, want %v", ids, ci.Client(k), got, want[ci.Client(k)])
			}
			for _, i := range ci.Transfers(k) {
				if ci.Slot(i) != k {
					t.Fatalf("ids %v: transfer %d has slot %d, is in row %d", ids, i, ci.Slot(i), k)
				}
			}
		}
	}
	empty, err := New(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumClients() != 0 {
		t.Errorf("empty trace has %d clients", empty.NumClients())
	}
}
