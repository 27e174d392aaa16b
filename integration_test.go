package repro

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gismo"
	"repro/internal/sessions"
	"repro/internal/simulate"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

// TestEndToEndDiskRoundTrip drives the entire system the way the paper's
// measurement pipeline ran: generate → serve → write daily log files to
// disk → parse them back → sanitize → characterize, and checks that the
// disk round trip is lossless with respect to every statistic the
// characterization consumes.
func TestEndToEndDiskRoundTrip(t *testing.T) {
	m, err := gismo.Scaled(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, 77)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.DefaultConfig()
	cfg.SpanningPerMillion = 10000 // 1%
	res, err := simulate.Run(w, cfg, 77)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	files, err := res.WriteLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Three trace days; a transfer ending exactly at the horizon
	// (midnight) is timestamped into a fourth calendar day.
	if len(files) < 3 || len(files) > 4 {
		t.Fatalf("daily files = %d, want 3-4", len(files))
	}
	for _, f := range files {
		if filepath.Ext(f) != ".log" {
			t.Fatalf("unexpected file %s", f)
		}
	}

	entries, st, err := wmslog.ReadFiles(files, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Malformed != 0 {
		t.Fatalf("malformed lines on round trip: %d", st.Malformed)
	}
	if len(entries) != len(res.Entries) {
		t.Fatalf("entries: wrote %d, read %d", len(res.Entries), len(entries))
	}

	tr, err := trace.FromEntries(entries, cfg.Epoch, m.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	clean, report := tr.Sanitize()
	if report.DroppedSpanning != res.Injected {
		t.Errorf("sanitize dropped %d spanning, injected %d", report.DroppedSpanning, res.Injected)
	}

	// The disk-round-tripped trace must match the simulator's in-memory
	// trace on every aggregate the characterization uses.
	mem := res.Trace
	if clean.NumTransfers() != mem.NumTransfers() {
		t.Errorf("transfers: %d vs %d", clean.NumTransfers(), mem.NumTransfers())
	}
	if clean.NumClients() != mem.NumClients() {
		t.Errorf("clients: %d vs %d", clean.NumClients(), mem.NumClients())
	}
	if clean.TotalBytes() != mem.TotalBytes() {
		t.Errorf("bytes: %d vs %d", clean.TotalBytes(), mem.TotalBytes())
	}
	if clean.DistinctAS() != mem.DistinctAS() {
		t.Errorf("ASes: %d vs %d", clean.DistinctAS(), mem.DistinctAS())
	}
	if clean.DistinctIPs() != mem.DistinctIPs() {
		t.Errorf("IPs: %d vs %d", clean.DistinctIPs(), mem.DistinctIPs())
	}

	// Session structure identical under the same timeout.
	setA, err := sessions.Sessionize(clean, 1500)
	if err != nil {
		t.Fatal(err)
	}
	setB, err := sessions.Sessionize(mem, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if setA.Count() != setB.Count() {
		t.Errorf("sessions: %d vs %d", setA.Count(), setB.Count())
	}

	// And the characterization runs clean on the round-tripped trace.
	char, err := core.Characterize(clean, 1500, []int64{500, 1500, 3000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if char.Basic.Objects != 2 {
		t.Errorf("objects = %d", char.Basic.Objects)
	}
}

// TestSeededRunsFullyReproducible checks that two complete pipeline runs
// under the same seed agree transfer-by-transfer (the determinism
// guarantee DESIGN.md promises).
func TestSeededRunsFullyReproducible(t *testing.T) {
	run := func() *trace.Trace {
		m, err := gismo.Scaled(800, 2)
		if err != nil {
			t.Fatal(err)
		}
		w, err := gismo.GenerateSeeded(m, 123)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simulate.Run(w, simulate.DefaultConfig(), 123)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace
	}
	a, b := run(), run()
	if a.NumTransfers() != b.NumTransfers() {
		t.Fatalf("transfer counts differ: %d vs %d", a.NumTransfers(), b.NumTransfers())
	}
	for i := range a.Transfers {
		if a.Transfers[i] != b.Transfers[i] {
			t.Fatalf("transfer %d differs:\n%+v\n%+v", i, a.Transfers[i], b.Transfers[i])
		}
	}
}
