package simulate

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/gismo"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

func testWorkload(t *testing.T, seed int64) *gismo.Workload {
	t.Helper()
	m, err := gismo.Scaled(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gismo.GenerateSeeded(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDefaultConfigValidates(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateCatchesEachField(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.SpanningPerMillion = -1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: want error", i)
		}
	}
}

func TestRunProducesConsistentTraceAndEntries(t *testing.T) {
	w := testWorkload(t, 1)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 0
	res, err := Run(w, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.NumTransfers() != len(w.Requests) {
		t.Fatalf("trace has %d transfers, want %d", res.Trace.NumTransfers(), len(w.Requests))
	}
	if len(res.Entries) != len(w.Requests) {
		t.Fatalf("%d entries, want %d", len(res.Entries), len(w.Requests))
	}
	if res.PeakConcurrency < 1 {
		t.Error("peak concurrency must be at least 1")
	}
	for _, e := range res.Entries {
		if err := e.Validate(); err != nil {
			t.Fatalf("invalid entry: %v", err)
		}
		if e.URIStem != "/live/feed1" && e.URIStem != "/live/feed2" {
			t.Fatalf("bad URI %q", e.URIStem)
		}
	}
	// Entries timestamp-sorted.
	for i := 1; i < len(res.Entries); i++ {
		if res.Entries[i].Timestamp.Before(res.Entries[i-1].Timestamp) {
			t.Fatal("entries not sorted by timestamp")
		}
	}
}

func TestRunRejectsEmptyWorkload(t *testing.T) {
	if _, err := Run(nil, DefaultConfig(), 1); err == nil {
		t.Fatal("nil workload accepted")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	w := testWorkload(t, 1)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = -1
	if _, err := Run(w, cfg, 1); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestBandwidthBimodal(t *testing.T) {
	w := testWorkload(t, 3)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 0
	res, err := Run(w, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	var congested, clientBound int
	for _, tr := range res.Trace.Transfers {
		if tr.Bandwidth < 20000 {
			congested++
		}
		// Within jitter of an access class speed?
		for _, ac := range gismo.AccessClasses {
			if math.Abs(float64(tr.Bandwidth-ac.Bps))/float64(ac.Bps) <= bandwidthJitter+1e-9 {
				clientBound++
				break
			}
		}
	}
	n := float64(res.Trace.NumTransfers())
	if frac := float64(congested) / n; frac < 0.05 || frac > 0.16 {
		t.Errorf("congestion-bound fraction = %v, want ~0.10 (Figure 20)", frac)
	}
	if frac := float64(clientBound) / n; frac < 0.85 {
		t.Errorf("client-bound fraction = %v, want ~0.90", frac)
	}
}

func TestServerStaysUnloaded(t *testing.T) {
	w := testWorkload(t, 5)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 0
	res, err := Run(w, cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	a := trace.NewAuditor(res.Trace.Horizon, 10)
	for i := range res.Trace.Transfers {
		a.Add(&res.Trace.Transfers[i])
	}
	audit := a.Audit()
	if audit.TransferBelowFrac < 0.99 {
		t.Errorf("transfers below 10%% CPU = %v, want >= 0.99 (Section 2.4)", audit.TransferBelowFrac)
	}
	if audit.TimeBelowFrac < 0.99 {
		t.Errorf("time below 10%% CPU = %v, want >= 0.99", audit.TimeBelowFrac)
	}
}

func TestSpanningInjection(t *testing.T) {
	w := testWorkload(t, 7)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 100000 // 10% for a visible sample
	res, err := Run(w, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("no spanning entries injected at 10% rate")
	}
	var spanning int
	for _, e := range res.Entries {
		if e.Duration > w.Model.Horizon {
			spanning++
		}
	}
	if spanning != res.Injected {
		t.Errorf("spanning entries in log = %d, injected = %d", spanning, res.Injected)
	}
	// The sanitization pipeline must drop exactly the injected ones.
	tr, err := trace.FromEntries(res.Entries, wmslog.TraceEpoch, w.Model.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	clean, report := tr.Sanitize()
	if report.DroppedSpanning != res.Injected {
		t.Errorf("sanitize dropped %d spanning, want %d", report.DroppedSpanning, res.Injected)
	}
	if clean.NumTransfers() != len(w.Requests) {
		t.Errorf("clean trace has %d transfers, want %d", clean.NumTransfers(), len(w.Requests))
	}
	// The Transfer sink carries what the log carries: every spanning
	// row as its log line parses (ids aside, which the log numbers its
	// own way).
	if res.Trace.NumTransfers() != len(res.Entries) {
		t.Errorf("trace has %d transfers for %d log entries", res.Trace.NumTransfers(), len(res.Entries))
	}
	spanningRows := func(tr *trace.Trace) []trace.Transfer {
		var out []trace.Transfer
		for _, x := range tr.Transfers {
			if x.Duration > tr.Horizon {
				x.Client, x.IP, x.Country, x.Object = 0, 0, 0, 0
				out = append(out, x)
			}
		}
		slices.SortFunc(out, func(a, b trace.Transfer) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Duration, b.Duration), cmp.Compare(a.ServerCPU, b.ServerCPU))
		})
		return out
	}
	if got, want := spanningRows(res.Trace), spanningRows(tr); !slices.Equal(got, want) {
		t.Errorf("spanning rows differ from the log's:\n got %+v\nwant %+v", got, want)
	}
}

func TestWriteLogsRoundTrip(t *testing.T) {
	w := testWorkload(t, 9)
	cfg := DefaultConfig()
	cfg.SpanningPerMillion = 0
	res, err := Run(w, cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files, err := res.WriteLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("expected multiple daily files, got %v", files)
	}
	entries, st, err := wmslog.ReadFiles(files, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Malformed != 0 {
		t.Errorf("malformed lines: %d", st.Malformed)
	}
	if len(entries) != len(res.Entries) {
		t.Fatalf("read %d entries, wrote %d", len(entries), len(res.Entries))
	}
	// Round trip into a trace must preserve transfer count and durations.
	tr, err := trace.FromEntries(entries, wmslog.TraceEpoch, w.Model.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTransfers() != res.Trace.NumTransfers() {
		t.Errorf("trace transfers: %d vs %d", tr.NumTransfers(), res.Trace.NumTransfers())
	}
	clients := func(tr *trace.Trace) int {
		seen := make(map[int32]bool)
		for _, x := range tr.Transfers {
			seen[x.Client] = true
		}
		return len(seen)
	}
	if clients(tr) != clients(res.Trace) {
		t.Errorf("trace clients: %d vs %d", clients(tr), clients(res.Trace))
	}
	if tr.TotalBytes() != res.Trace.TotalBytes() {
		t.Errorf("bytes: %d vs %d", tr.TotalBytes(), res.Trace.TotalBytes())
	}
}

func TestConcurrencyTracker(t *testing.T) {
	c := newConcurrencyTracker()
	if got := c.admit(0, 10); got != 1 {
		t.Errorf("admit 1: %d", got)
	}
	if got := c.admit(5, 15); got != 2 {
		t.Errorf("admit 2: %d", got)
	}
	if got := c.admit(10, 20); got != 2 { // first ended at 10
		t.Errorf("admit 3: %d", got)
	}
	if got := c.admit(100, 110); got != 1 {
		t.Errorf("admit 4: %d", got)
	}
	if c.peak != 2 {
		t.Errorf("peak = %d", c.peak)
	}
}

// TestConcurrencyTrackerZeroDuration mirrors the legacy end-time-heap
// semantics for degenerate transfers: an end at or before its own
// start counts in its own admission and is gone by the next one, even
// at the same start second.
func TestConcurrencyTrackerZeroDuration(t *testing.T) {
	c := newConcurrencyTracker()
	if got := c.admit(10, 10); got != 1 {
		t.Errorf("zero-duration admit: %d, want 1", got)
	}
	if got := c.admit(10, 12); got != 1 { // previous zero-dur expired
		t.Errorf("same-start admit after zero-dur: %d, want 1", got)
	}
	if got := c.admit(11, 13); got != 2 {
		t.Errorf("overlap admit: %d, want 2", got)
	}
	if c.peak != 2 {
		t.Errorf("peak = %d, want 2", c.peak)
	}
}

// TestConcurrencyTrackerLongTransfers drives ends beyond the ring
// window onto the far-end heap and checks they expire exactly like
// ring-resident ends.
func TestConcurrencyTrackerLongTransfers(t *testing.T) {
	c := newConcurrencyTracker()
	const far = trackerRingSeconds * 3
	if got := c.admit(0, far); got != 1 {
		t.Errorf("far admit: %d", got)
	}
	if got := c.admit(1, 5); got != 2 {
		t.Errorf("short under far: %d", got)
	}
	if got := c.admit(6, 10); got != 2 { // short one expired, far survives
		t.Errorf("after short expiry: %d", got)
	}
	if got := c.admit(far, far+10); got != 1 { // far end expired at its end
		t.Errorf("after far expiry: %d", got)
	}
	if c.peak != 2 {
		t.Errorf("peak = %d, want 2", c.peak)
	}
}

func TestObjectURI(t *testing.T) {
	if ObjectURI(0) != "/live/feed1" || ObjectURI(1) != "/live/feed2" {
		t.Error("URI naming changed")
	}
}
