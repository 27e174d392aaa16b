package gismo

import (
	"testing"
)

func TestRampUpSuppressesEarlyArrivals(t *testing.T) {
	m, err := Scaled(100, 8) // ramp capped at 2 days for an 8-day horizon
	if err != nil {
		t.Fatal(err)
	}
	m.DayVariability = 0 // isolate the ramp
	w, err := GenerateSeeded(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	var day1, day5 int
	for _, r := range w.Requests {
		switch r.Start / 86400 {
		case 0:
			day1++
		case 4:
			day5++
		}
	}
	if day1*5 >= day5 {
		t.Errorf("day 1 requests (%d) should be far below day 5 (%d) under the premiere ramp", day1, day5)
	}
}

func TestRampUpDisabled(t *testing.T) {
	m, err := Scaled(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.RampUpDays = 0
	m.DayVariability = 0
	w, err := GenerateSeeded(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	var day1, day3 int
	for _, r := range w.Requests {
		switch r.Start / 86400 {
		case 0:
			day1++
		case 2:
			day3++
		}
	}
	// Without the ramp, day 1 (Sunday) should match or exceed day 3
	// (Tuesday) thanks to the weekend multiplier.
	if day1 < day3/2 {
		t.Errorf("without ramp, day 1 (%d) should be comparable to day 3 (%d)", day1, day3)
	}
}

func TestScaledCapsRampAtQuarterHorizon(t *testing.T) {
	m, err := Scaled(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.RampUpDays > 0.5 {
		t.Errorf("2-day horizon should cap ramp at 0.5 days, got %v", m.RampUpDays)
	}
	full := Default()
	if full.RampUpDays != 3 {
		t.Errorf("28-day default ramp = %v, want 3", full.RampUpDays)
	}
}

func TestDayVariabilityPreservesMeanRoughly(t *testing.T) {
	base, err := Scaled(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	base.RampUpDays = 0

	withVar := base
	withVar.DayVariability = 0.35
	without := base
	without.DayVariability = 0

	count := func(m Model, seed int64) float64 {
		var total int
		const runs = 5
		for s := int64(0); s < runs; s++ {
			w, err := GenerateSeeded(m, seed+s)
			if err != nil {
				t.Fatal(err)
			}
			total += w.SessionCount
		}
		return float64(total) / runs
	}
	a := count(withVar, 10)
	b := count(without, 20)
	// Mean-one lognormal day factors: totals agree within ~20% over
	// 5x7 day-draws.
	if a < 0.75*b || a > 1.35*b {
		t.Errorf("day variability shifted mean sessions: %v vs %v", a, b)
	}
}

func TestRampValidation(t *testing.T) {
	m := Default()
	m.RampUpDays = -1
	if err := m.Validate(); err == nil {
		t.Error("negative ramp days: want error")
	}
	m = Default()
	m.RampUpFloor = 0
	if err := m.Validate(); err == nil {
		t.Error("zero floor with ramp enabled: want error")
	}
	m = Default()
	m.RampUpFloor = 2
	if err := m.Validate(); err == nil {
		t.Error("floor > 1: want error")
	}
	m = Default()
	m.RampUpDays = 0
	m.RampUpFloor = 0 // floor irrelevant when ramp disabled
	if err := m.Validate(); err != nil {
		t.Errorf("disabled ramp should not validate floor: %v", err)
	}
	m = Default()
	m.DayVariability = -0.1
	if err := m.Validate(); err == nil {
		t.Error("negative day variability: want error")
	}
}
