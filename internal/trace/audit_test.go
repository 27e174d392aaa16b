package trace

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// perSecondReadings is the overload audit's walk as it shipped before
// the event sweep, kept as the reference: a float64 and an int32 slot
// for every second of the horizon, each transfer's reading scattered
// into its first second and out of the second after its last, then one
// integration over the horizon. It returns the reading (running sum ÷
// running count) of every second at least one transfer spans.
func perSecondReadings(tr *Trace) []float64 {
	sum := make([]float64, tr.Horizon+1)
	cnt := make([]int32, tr.Horizon+1)
	for _, t := range tr.Transfers {
		lo, hi := t.Start, t.End()
		if lo < 0 {
			lo = 0
		}
		if hi > tr.Horizon {
			hi = tr.Horizon
		}
		if hi <= lo {
			hi = lo + 1 // zero-length transfers still occupy their second
			if hi > tr.Horizon {
				continue
			}
		}
		sum[lo] += t.ServerCPU
		sum[hi] -= t.ServerCPU
		cnt[lo]++
		cnt[hi]--
	}
	var readings []float64
	var runSum float64
	var runCnt int32
	for s := int64(0); s < tr.Horizon; s++ {
		runSum += sum[s]
		runCnt += cnt[s]
		if runCnt > 0 {
			readings = append(readings, runSum/float64(runCnt))
		}
	}
	return readings
}

// TestAuditMatchesPerSecondReference: the event sweep counts the
// seconds the per-second walk counts. The threshold is put on readings
// the reference itself produced, so a running sum that differs in its
// last bit — readings added in another order — moves a second across
// it.
func TestAuditMatchesPerSecondReference(t *testing.T) {
	cpu := func(tt Transfer, c float64) Transfer { tt.ServerCPU = c; return tt }
	rng := rand.New(rand.NewSource(17))
	random := func(n int, horizon int64) []Transfer {
		ts := make([]Transfer, n)
		for i := range ts {
			start := rng.Int63n(horizon+400) - 200 // some before 0, some past the horizon
			dur := rng.Int63n(900)
			if rng.Intn(5) == 0 {
				dur = 0
			}
			ts[i] = cpu(mkTransfer(rng.Intn(50), start, dur), float64(rng.Intn(997))/10+rng.Float64()/1e6)
		}
		return ts
	}
	fixtures := map[string]struct {
		horizon   int64
		transfers []Transfer
	}{
		// Two transfers end and one starts in second 40; a zero-length
		// one sits in the last second; 0.1 + 0.2 − 0.1 is not 0.2.
		"same second": {100, []Transfer{
			cpu(mkTransfer(1, 10, 30), 0.1),
			cpu(mkTransfer(2, 20, 20), 0.2),
			cpu(mkTransfer(3, 40, 25), 0.3),
			cpu(mkTransfer(4, 5, 80), 0.7),
			cpu(mkTransfer(5, 99, 0), 12.5),
		}},
		"outside the horizon": {60, []Transfer{
			cpu(mkTransfer(1, -30, 10), 3.3), // wholly before 0: the walk counts it in second 0
			cpu(mkTransfer(2, -5, 20), 1.1),
			cpu(mkTransfer(3, 50, 500), 9.9),
			cpu(mkTransfer(4, 60, 5), 50),
			cpu(mkTransfer(5, 200, 0), 50),
			cpu(mkTransfer(6, 59, 1), 0.3),
		}},
		"one second":   {1, random(40, 1)},
		"random":       {3000, random(300, 3000)},
		"past radix":   {86400, random(5000, 86400)},
		"dense events": {500, random(20000, 500)},
	}
	for name, f := range fixtures {
		tr, err := New(f.horizon, f.transfers)
		if err != nil {
			t.Fatal(err)
		}
		readings := perSecondReadings(tr)
		if len(readings) == 0 {
			t.Fatalf("%s: no active second", name)
		}
		thresholds := []float64{0, 10, math.Inf(1)}
		distinct := slices.Compact(slices.Sorted(slices.Values(readings)))
		for i := 0; i < len(distinct); i += max(1, len(distinct)/40) {
			thresholds = append(thresholds, distinct[i], math.Nextafter(distinct[i], math.Inf(1)))
		}
		for _, threshold := range thresholds {
			below := 0
			for _, r := range readings {
				if r < threshold {
					below++
				}
			}
			want := float64(below) / float64(len(readings))
			if got := tr.AuditServerLoad(threshold).TimeBelowFrac; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, threshold %v: TimeBelowFrac = %v, per-second walk has %v (%d of %d active seconds)",
					name, threshold, got, want, below, len(readings))
			}
		}
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
