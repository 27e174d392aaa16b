package core

import (
	"io"
	"runtime"
	"slices"
	"testing"

	"repro/internal/sessions"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wmslog"
)

// sampleFields names every marginal sample a characterization stores:
// the core's, and the figure material's when it has any.
func sampleFields(c *Characterization) map[string][]float64 {
	fields := map[string][]float64{
		"Client.Interarrivals":   c.Client.Interarrivals,
		"Session.OnTimes":        c.Session.OnTimes,
		"Session.OffTimes":       c.Session.OffTimes,
		"Session.IntraArrivals":  c.Session.IntraArrivals,
		"Transfer.Interarrivals": c.Transfer.Interarrivals,
		"Transfer.Lengths":       c.Transfer.Lengths,
	}
	if c.Figures != nil {
		fields["Figures.Transfer.Bandwidths"] = c.Figures.Transfer.Bandwidths
		fields["Figures.Poisson.Interarrivals"] = c.Figures.Poisson.Interarrivals
	}
	return fields
}

// allocated returns the bytes f allocates on the heap (TotalAlloc), a
// count that depends on the code and its input, not on the machine.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCharacterizeSamplesSorted: every sample field of a
// characterization is stored in sorted form — ascending, no NaN, no
// negative value, no −0 — so every reader may take it in place.
func TestCharacterizeSamplesSorted(t *testing.T) {
	char, err := Characterize(weekTrace(t), sessions.DefaultTimeout, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, xs := range sampleFields(char) {
		if len(xs) < 2 {
			t.Errorf("%s holds %d values: the fixture does not exercise it", name, len(xs))
		}
		if !slices.IsSorted(xs) || !stats.SortedForm(xs) {
			t.Errorf("%s is not in sorted form", name)
		}
	}
}

// TestCharacterizeSortsEachSampleOnce: a characterization sorts each of
// its marginal samples exactly once — the producer, in place — and no
// consumer sorts one again (a consumer handed an unsorted sample would
// copy and sort it, and show here as one sort more).
func TestCharacterizeSortsEachSampleOnce(t *testing.T) {
	week := weekTrace(t)
	before := stats.SampleSorts()
	char, err := Characterize(week, sessions.DefaultTimeout, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stats.SampleSorts()-before, int64(len(sampleFields(char))); got != want {
		t.Errorf("Characterize sorted %d samples, want %d: one per marginal", got, want)
	}
}

// TestCharacterizeAllocationBudget bounds the heap bytes one
// Characterize of the served week allocates. The count is exact for
// the code and the fixture, so unlike a time it holds on any machine:
// the bound is the count measured when the timeout sweep stopped
// collecting its gaps, plus about 10 % headroom for the scheduler's
// and the runtime's own allocations. A sample copied again per
// consumer, or the sweep's gaps kept again, costs more than that.
func TestCharacterizeAllocationBudget(t *testing.T) {
	week := weekTrace(t)
	got := allocated(func() {
		if _, err := Characterize(week, sessions.DefaultTimeout, nil, 7); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 1_320_000 // measured 1,163,400–1,165,300 since the figure material streams (1,240,500 when the figure step walked the trace); 1,334,400–1,343,600 before the sweep counted its gaps
	if got > budget {
		t.Errorf("Characterize allocated %d bytes, budget %d", got, budget)
	}
}

// TestObserveSortsEachSampleOnce: Observe sorts exactly the marginal
// samples it keeps, each once, and leaves the figure material nil.
func TestObserveSortsEachSampleOnce(t *testing.T) {
	week := weekTrace(t)
	before := stats.SampleSorts()
	char, err := Observe(week, sessions.DefaultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if char.Figures != nil {
		t.Fatal("Observe filled Figures")
	}
	if got, want := stats.SampleSorts()-before, int64(len(sampleFields(char))); got != want || want != 6 {
		t.Errorf("Observe sorted %d samples, want %d: one per core marginal", got, want)
	}
}

// TestObserveAllocationBudget bounds the heap bytes one Observe of the
// served week allocates, below Characterize's budget by the figure
// material's share: the Figure 9 tally, the Figure 6 replica, the
// Figure 18 bins, the Figure 20 bandwidth sample and the audit are not
// made — the observer walks the trace once and keeps no per-transfer
// index. Like TestCharacterizeAllocationBudget,
// the bound is the measured count plus about 10 % headroom.
func TestObserveAllocationBudget(t *testing.T) {
	week := weekTrace(t)
	got := allocated(func() {
		if _, err := Observe(week, sessions.DefaultTimeout); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 940_000 // measured 853,400–853,500; 1,062,000–1,063,900 when it sessionized into a Set
	if got > budget {
		t.Errorf("Observe allocated %d bytes, budget %d", got, budget)
	}
	full := allocated(func() {
		if _, err := Characterize(week, sessions.DefaultTimeout, nil, 7); err != nil {
			t.Fatal(err)
		}
	})
	if got >= full {
		t.Errorf("Observe allocated %d bytes, Characterize %d: want less", got, full)
	}
	t.Logf("Observe %d B, Characterize %d B", got, full)
}

// TestObserveLogsAllocationBudget bounds the heap bytes one ObserveLogs
// of lsmgen's daily logs allocates, at a fixed core count (each parse
// worker holds its own buffers). The logs' rows go from the merge into
// the observer, so it allocates less than the held ingest
// (trace.SortLogs) into an observer sized the same — its path for logs
// that reach back — by about the slice of rows that holds (56 B a row).
// Like TestObserveAllocationBudget, the bound is the measured count
// plus about 10 % headroom.
func TestObserveLogsAllocationBudget(t *testing.T) {
	dir := t.TempDir()
	writeGenLogs(t, dir, 50, 7, 11)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	got := allocated(func() {
		if _, _, err := ObserveLogs(dir, 7, sessions.DefaultTimeout, nil, io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	paths, err := findLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	hint := 0
	for _, path := range paths {
		hint += wmslog.EntryHint(path)
	}
	var rows int
	full := allocated(func() {
		o, err := NewObserver(7*86400, sessions.DefaultTimeout, hint, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ing, err := trace.SortLogs(paths, wmslog.TraceEpoch, 7*86400, o.Add)
		if err != nil {
			t.Fatal(err)
		}
		o.SetNames(ing.Names)
		if _, err := o.Characterization(); err != nil {
			t.Fatal(err)
		}
		rows = ing.Report.Kept
	})
	t.Logf("ObserveLogs %d B, SortLogs into an observer %d B, %d rows", got, full, rows)
	const budget = 5_340_000 // measured 4,853,300–4,855,700
	if got > budget {
		t.Errorf("ObserveLogs allocated %d bytes, budget %d", got, budget)
	}
	if got+28*uint64(rows) > full {
		t.Errorf("ObserveLogs allocated %d bytes, SortLogs into an observer %d: want less by the held rows' 56 B a row, half of it at least, over %d rows", got, full, rows)
	}
}
