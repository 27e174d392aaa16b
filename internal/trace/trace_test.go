package trace

import (
	"errors"
	"math"
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

// numClients counts the distinct clients of tr.
func numClients(tr *Trace) int {
	seen := make(map[int32]bool)
	for _, t := range tr.Transfers {
		seen[t.Client] = true
	}
	return len(seen)
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

// audit feeds tr's transfers to an Auditor at threshold.
func audit(tr *Trace, threshold float64) OverloadAudit {
	a := NewAuditor(tr.Horizon, threshold)
	for i := range tr.Transfers {
		a.Add(&tr.Transfers[i])
	}
	return a.Audit()
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
	got := audit(tr, 10)
	if got.TransferBelowFrac != 1 {
		t.Errorf("TransferBelowFrac = %v", got.TransferBelowFrac)
	}
	if got.TimeBelowFrac != 1 {
		t.Errorf("TimeBelowFrac = %v", got.TimeBelowFrac)
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
	got := audit(tr, 10)
	if got.TransferBelowFrac != 0.5 {
		t.Errorf("TransferBelowFrac = %v, want 0.5", got.TransferBelowFrac)
	}
	// 100 low seconds + 100 high seconds active.
	if got.TimeBelowFrac != 0.5 {
		t.Errorf("TimeBelowFrac = %v, want 0.5", got.TimeBelowFrac)
	}
}

func TestAuditServerLoadEmptyTrace(t *testing.T) {
	tr, err := New(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := audit(tr, 10)
	if got.TimeBelowFrac != 1 || got.TransferBelowFrac != 1 {
		t.Errorf("empty audit = %+v", got)
	}
}

func TestAuditZeroLengthTransfer(t *testing.T) {
	z := mkTransfer(1, 50, 0)
	z.ServerCPU = 50
	tr, err := New(100, []Transfer{z})
	if err != nil {
		t.Fatal(err)
	}
	got := audit(tr, 10)
	// The zero-length transfer occupies one second at CPU 50.
	if got.TimeBelowFrac != 0 {
		t.Errorf("TimeBelowFrac = %v, want 0", got.TimeBelowFrac)
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
	if tr.NumTransfers() != 3 || numClients(tr) != 2 || tr.DistinctObjects() != 2 {
		t.Fatalf("trace: %d transfers, %d clients, %d objects",
			tr.NumTransfers(), numClients(tr), tr.DistinctObjects())
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

// TestNewRejectsHorizonBeyondInt32: the sweeps downstream hold a second
// in 31 bits.
func TestNewRejectsHorizonBeyondInt32(t *testing.T) {
	if _, err := New(math.MaxInt32, nil); err != nil {
		t.Errorf("horizon 2^31-1: %v", err)
	}
	if _, err := New(math.MaxInt32+1, nil); !errors.Is(err, ErrBadTrace) {
		t.Errorf("horizon 2^31: err = %v, want ErrBadTrace", err)
	}
}
