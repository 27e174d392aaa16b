package calibrate

import (
	"runtime"
	"testing"

	"repro/internal/stats"
)

// TestValidateAllocationBudget bounds the heap bytes (TotalAlloc) one
// Validate of a source and its twin allocates, and counts its sorts.
// The characterizations store every float sample sorted in the form
// the KS tests compare, so Validate reads them in place: it sorts only
// the two transfers-per-session samples it widens from integers. The
// byte bound is the count measured when that became so, plus 25 %
// headroom for the runtime's own allocations around the seven KS
// goroutines (the measured count varies by up to 15 % run to run); a
// display copy or a KS copy per layer costs several times more. The count is exact for the
// code and the fixture, so the bound holds on any machine.
func TestValidateAllocationBudget(t *testing.T) {
	char, _ := buildSource(t)
	m, _ := Fit(char)
	twin, err := Twin(m, 11, 1500)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sorts := stats.SampleSorts()
	Validate(char, twin)
	sorts = stats.SampleSorts() - sorts
	runtime.ReadMemStats(&after)
	if sorts != 2 {
		t.Errorf("Validate sorted %d samples, want 2 (the two widened transfers-per-session samples)", sorts)
	}
	const budget = 52_000 // measured 35,900–42,400; 273,800 before
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("Validate allocated %d bytes, budget %d", got, budget)
	}
}

// TestTwinAllocationBudget bounds the heap bytes (TotalAlloc) one
// Twin of the calibration fixture's fitted model allocates. The twin
// is observed as it is served: no trace, client index or session set
// is built for it, only the observer's compact state. The count is
// exact for the code and the fixture, so the bound holds on any
// machine; it is the count measured when the twin stopped building a
// trace, plus about 15 % headroom for the runtime's own allocations
// around the serve and observe goroutines. A trace collected again for
// the twin costs more than that.
func TestTwinAllocationBudget(t *testing.T) {
	char, _ := buildSource(t)
	m, _ := Fit(char)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Twin(m, 11, 1500); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 1_225_000 // measured 1,064,000–1,064,400; 2,029,200–2,029,400 when the twin built a trace
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("Twin allocated %d bytes, budget %d", got, budget)
	}
}
