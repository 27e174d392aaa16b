package analyze

import (
	"errors"
	"math"
	"testing"
)

func TestConcurrencyBasic(t *testing.T) {
	// Two overlapping intervals and one detached.
	intervals := []Interval{
		{Start: 0, End: 10},
		{Start: 5, End: 15},
		{Start: 100, End: 110},
	}
	rep, err := Concurrency(intervals, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Peak != 2 {
		t.Errorf("Peak = %d, want 2", rep.Peak)
	}
	m := rep.Marginal
	// Seconds at concurrency 2: [5,10) = 5 s out of 200.
	if got := 1 - m.CDF(1); math.Abs(got-5.0/200) > 1e-9 {
		t.Errorf("P[c>1] = %v, want 0.025", got)
	}
	// Active seconds: [0,15) + [100,110) = 25.
	if got := m.CCDF(1); math.Abs(got-25.0/200) > 1e-9 {
		t.Errorf("P[c>=1] = %v, want 0.125", got)
	}
}

func TestConcurrencyClipsToHorizon(t *testing.T) {
	intervals := []Interval{
		{Start: -50, End: 10},
		{Start: 90, End: 500},
		{Start: 300, End: 400}, // entirely outside
	}
	rep, err := Concurrency(intervals, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Peak != 1 {
		t.Errorf("Peak = %d, want 1", rep.Peak)
	}
}

func TestConcurrencyZeroLengthInterval(t *testing.T) {
	rep, err := Concurrency([]Interval{{Start: 5, End: 5}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Peak != 1 {
		t.Errorf("zero-length interval should occupy one second; peak = %d", rep.Peak)
	}
}

func TestConcurrencyErrors(t *testing.T) {
	if _, err := Concurrency(nil, 100); err == nil {
		t.Error("no intervals: want error")
	}
	if _, err := Concurrency([]Interval{{0, 1}}, 0); err == nil {
		t.Error("zero horizon: want error")
	}
	// Event seconds are int32: a horizon they cannot hold is refused.
	if _, err := Concurrency([]Interval{{0, 1}}, 1<<31); !errors.Is(err, ErrBadInput) {
		t.Errorf("horizon 2^31: err = %v, want ErrBadInput", err)
	}
}

func TestConcurrencyBinnedMeans(t *testing.T) {
	// One interval covering the first 450 seconds: first 900-s bin mean
	// should be 0.5.
	rep, err := Concurrency([]Interval{{Start: 0, End: 450}}, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Binned.Values) != 2 {
		t.Fatalf("bins = %d", len(rep.Binned.Values))
	}
	if math.Abs(rep.Binned.Values[0]-0.5) > 1e-9 {
		t.Errorf("bin 0 mean = %v, want 0.5", rep.Binned.Values[0])
	}
	if rep.Binned.Values[1] != 0 {
		t.Errorf("bin 1 mean = %v, want 0", rep.Binned.Values[1])
	}
}

func TestConcurrencyDailyFold(t *testing.T) {
	// Two days with identical activity: the day fold must equal one day's
	// pattern exactly.
	day := int64(86400)
	intervals := []Interval{
		{Start: 3600, End: 7200},
		{Start: day + 3600, End: day + 7200},
	}
	rep, err := Concurrency(intervals, 2*day)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DayFold.Values) != 96 {
		t.Fatalf("day fold bins = %d, want 96", len(rep.DayFold.Values))
	}
	// Bins 4..7 (seconds 3600..7200) should be 1, rest 0.
	for i, v := range rep.DayFold.Values {
		want := 0.0
		if i >= 4 && i < 8 {
			want = 1.0
		}
		if math.Abs(v-want) > 1e-9 {
			t.Errorf("day fold bin %d = %v, want %v", i, v, want)
		}
	}
}

func TestConcurrencyACFDailyPeak(t *testing.T) {
	// Periodic activity with a 1-day period over 6 days: the ACF at lag
	// 1440 minutes must be strongly positive (Figure 8).
	day := int64(86400)
	var intervals []Interval
	for d := int64(0); d < 6; d++ {
		intervals = append(intervals, Interval{
			Start: d*day + 18*3600,
			End:   d*day + 23*3600,
		})
	}
	rep, err := Concurrency(intervals, 6*day)
	if err != nil {
		t.Fatal(err)
	}
	acf := rep.ACF()
	if len(acf) < 1441 {
		t.Fatalf("ACF has %d lags", len(acf))
	}
	if acf[0] < 0.999 {
		t.Errorf("ACF(0) = %v", acf[0])
	}
	if acf[1440] < 0.7 {
		t.Errorf("ACF(1440 min) = %v, want strong daily peak", acf[1440])
	}
	if acf[720] > 0 {
		t.Errorf("ACF(720 min) = %v, want negative at half-day", acf[720])
	}
}

func TestConcurrencyShortTraceSkipsWeekFold(t *testing.T) {
	rep, err := Concurrency([]Interval{{0, 100}}, 86400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.WeekFold.Values) != 0 {
		t.Error("week fold should be empty for a one-day trace")
	}
	if len(rep.DayFold.Values) == 0 {
		t.Error("day fold should exist for a one-day trace")
	}
}
