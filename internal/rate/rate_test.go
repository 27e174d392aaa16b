package rate

import (
	"math"
	"testing"
	"testing/quick"
)

func flatHourly() [24]float64 {
	var h [24]float64
	for i := range h {
		h[i] = 1
	}
	return h
}

func flatDaily() [7]float64 {
	var d [7]float64
	for i := range d {
		d[i] = 1
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, flatHourly(), flatDaily(), 0); err == nil {
		t.Error("zero base: want error")
	}
	if _, err := New(-1, flatHourly(), flatDaily(), 0); err == nil {
		t.Error("negative base: want error")
	}
	h := flatHourly()
	h[3] = -0.5
	if _, err := New(1, h, flatDaily(), 0); err == nil {
		t.Error("negative hourly: want error")
	}
	h[3] = math.NaN()
	if _, err := New(1, h, flatDaily(), 0); err == nil {
		t.Error("NaN hourly: want error")
	}
	d := flatDaily()
	d[6] = math.Inf(1)
	if _, err := New(1, flatHourly(), d, 0); err == nil {
		t.Error("Inf daily: want error")
	}
	if _, err := New(1, flatHourly(), flatDaily(), 7); err == nil {
		t.Error("day offset 7: want error")
	}
	if _, err := New(1, flatHourly(), flatDaily(), -1); err == nil {
		t.Error("negative day offset: want error")
	}
}

func TestFlatProfileIsConstant(t *testing.T) {
	p, err := New(2.5, flatHourly(), flatDaily(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 1800, 3600, 86400, 86400 * 3.7, 604800} {
		if got := p.Rate(tt); math.Abs(got-2.5) > 1e-12 {
			t.Errorf("Rate(%v) = %v, want 2.5", tt, got)
		}
	}
}

func TestRateNegativeTimeClamped(t *testing.T) {
	p, _ := New(1, flatHourly(), flatDaily(), 0)
	if got := p.Rate(-100); got != 1 {
		t.Errorf("Rate(-100) = %v", got)
	}
}

func TestRealityShowShape(t *testing.T) {
	p, err := RealityShow(1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-trough (6:30am Sunday) must be far below prime time (9:30pm).
	trough := p.Rate(6*SecondsPerHour + 1800)
	peak := p.Rate(21*SecondsPerHour + 1800)
	if trough >= peak/5 {
		t.Errorf("trough %v not well below peak %v", trough, peak)
	}
	// Weekend (Sunday, t=0 day) above Monday at the same hour.
	sun := p.Rate(20 * SecondsPerHour)
	mon := p.Rate(float64(SecondsPerDay) + 20*SecondsPerHour)
	if sun <= mon {
		t.Errorf("Sunday rate %v should exceed Monday rate %v", sun, mon)
	}
}

func TestRateHourlyInterpolationIsContinuous(t *testing.T) {
	p, err := RealityShow(1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Sample across an hour boundary with 1-second steps: adjacent rates
	// must not jump by more than the profile slope allows.
	prev := p.Rate(10*SecondsPerHour - 30)
	for s := -29; s <= 30; s++ {
		cur := p.Rate(10*SecondsPerHour + float64(s))
		if math.Abs(cur-prev) > 0.001 {
			t.Fatalf("rate jump %v -> %v at offset %d", prev, cur, s)
		}
		prev = cur
	}
}

func TestDayOffsetRotation(t *testing.T) {
	var daily [7]float64
	daily[3] = 1 // only Wednesday is active
	p, err := New(1, flatHourly(), daily, 3)
	if err != nil {
		t.Fatal(err)
	}
	// With offset 3, t=0 is Wednesday: rate should be 1 on day 0.
	if got := p.Rate(3600); got != 1 {
		t.Errorf("day-0 rate = %v, want 1", got)
	}
	// Day 1 is Thursday: rate 0.
	if got := p.Rate(float64(SecondsPerDay) + 3600); got != 0 {
		t.Errorf("day-1 rate = %v, want 0", got)
	}
}

func TestMeanRateFlat(t *testing.T) {
	p, _ := New(3, flatHourly(), flatDaily(), 0)
	if got := p.MeanRate(float64(SecondsPerDay)); math.Abs(got-3) > 1e-9 {
		t.Errorf("MeanRate = %v, want 3", got)
	}
	if got := p.ExpectedArrivals(1000); math.Abs(got-3000) > 1e-6 {
		t.Errorf("ExpectedArrivals = %v, want 3000", got)
	}
	if p.MeanRate(0) != 0 {
		t.Error("MeanRate(0) should be 0")
	}
}

func TestSoccerGameProfile(t *testing.T) {
	p, err := SoccerGame(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	match := p.Rate(16*SecondsPerHour + 1800)
	background := p.Rate(4*SecondsPerHour + 1800)
	if match < 50*background {
		t.Errorf("match rate %v should dwarf background %v", match, background)
	}
}

func TestSoccerGameWrapsMidnight(t *testing.T) {
	p, err := SoccerGame(1, 23)
	if err != nil {
		t.Fatal(err)
	}
	// Kickoff 23h: the second match hour wraps to 0h.
	if p.Hourly[0] != 3.0 {
		t.Errorf("hour 0 multiplier = %v, want 3.0 (wrapped match hour)", p.Hourly[0])
	}
	if p.Hourly[22] != 0.5 {
		t.Errorf("hour 22 multiplier = %v, want 0.5 (pre-game)", p.Hourly[22])
	}
}

// Property: rate is non-negative everywhere and periodic with period one
// week for a zero day offset.
func TestRateProperties(t *testing.T) {
	p, err := RealityShow(1.5)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw float64) bool {
		tt := math.Abs(math.Mod(raw, SecondsPerWeek))
		if math.IsNaN(tt) {
			return true
		}
		r := p.Rate(tt)
		rNext := p.Rate(tt + SecondsPerWeek)
		return r >= 0 && math.Abs(r-rNext) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
